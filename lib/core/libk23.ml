(** libK23 — K23's fast in-process interposer (Section 5.2).

    Its constructor runs as the last LD_PRELOAD initialiser and:

    + reads the offline logs and maps each (region, offset) pair back
      to a virtual address through the current memory map (offsets are
      ASLR-stable);
    + installs the page-0 trampoline (PKU-protected XOM, like
      zpoline/lazypoline);
    + performs a {e single, selective} rewrite of exactly the
      pre-validated sites — each checked to still hold a
      [syscall]/[sysenter] encoding — saving and restoring page
      permissions (this simultaneously avoids P3a, P3b and P5);
    + builds the Robin-Hood hash set of valid sites for the
      NULL-execution check (P4a without zpoline's bitmap cost, P4b);
    + arms the SUD fallback that catches every site the offline phase
      missed (P2a) — the fallback {e never} rewrites;
    + hands startup state over from the ptracer via fake system calls
      and tells it to detach;
    + finally flips the SUD selector to BLOCK: interposition is live.

    The attached handler additionally guards prctl so SUD-based
    interposition cannot be silently disabled (P1b), and re-attaches
    the ptracer around execve so the whole online phase restarts in
    the new image (Section 5.3). *)

open K23_isa
open K23_machine
open K23_kernel
open Kern
open K23_interpose.Interpose

type variant = Default | Ultra | Ultra_plus

let variant_to_string = function
  | Default -> "K23-default"
  | Ultra -> "K23-ultra"
  | Ultra_plus -> "K23-ultra+"

let lib_path = "/usr/lib/libk23.so"

type state = {
  valid : Robin_set.t;  (** rewritten sites, for the NULL-execution check *)
  mutable rewritten : int;
  mutable stale_log_entries : int;  (** log lines that no longer match a syscall *)
  mutable startup_from_ptracer : int;  (** handed over by the ptracer *)
}

type Kern.pstate += K23_state of state

let state_key = "libk23"

let get_state (p : proc) =
  match Hashtbl.find_opt p.pstates state_key with
  | Some (K23_state s) -> s
  | _ -> panic "libK23: no state in pid %d" p.pid

let null_check (ctx : ctx) ~site = Robin_set.mem (get_state ctx.thread.t_proc).valid site

(** Phase 1 of the constructor: logs -> trampoline -> selective rewrite
    -> hash set -> SUD armed (selector still ALLOW). *)
let init1 cfg ~sym (ctx : ctx) =
  let p = ctx.thread.t_proc in
  let w = ctx.world in
  let st =
    {
      valid = Robin_set.create ();
      rewritten = 0;
      stale_log_entries = 0;
      startup_from_ptracer = 0;
    }
  in
  Hashtbl.replace p.pstates state_key (K23_state st);
  install_trampoline ctx cfg;
  (* resolve log entries against the current maps *)
  let entries = Log_store.read w ~app:p.cmd in
  List.iter
    (fun { Log_store.region; offset } ->
      let r =
        List.find_opt (fun r -> r.r_name = region && r.r_sec = `Text) p.regions
      in
      match r with
      | None -> st.stale_log_entries <- st.stale_log_entries + 1
      | Some r ->
        let site = r.r_start + offset in
        (* pre-validated or not, never rewrite bytes that are not a
           syscall/sysenter encoding any more (binary updated since the
           offline phase, corrupt log, ...) *)
        let b0 = try Memory.read_u8_raw p.mem site with Memory.Fault _ -> -1 in
        let b1 = try Memory.read_u8_raw p.mem (site + 1) with Memory.Fault _ -> -1 in
        if b0 = 0x0f && (b1 = 0x05 || b1 = 0x34) then begin
          rewrite_site_atomic ctx ~site;
          Robin_set.add st.valid site;
          st.rewritten <- st.rewritten + 1
        end
        else st.stale_log_entries <- st.stale_log_entries + 1)
    entries;
  (* SUD fallback for everything the offline phase missed; the
     selector byte is still ALLOW (0) so the remaining constructor
     syscalls — including the fake handoff calls — pass through *)
  let sel_addr = arm_sud ctx cfg ~sym in
  (* ultra+: protect the interposer's internal state (the selector
     page) with a dedicated protection key, per the threat model
     (Section 3): application loads/stores to it fault, while the
     interposer itself toggles PKRU around its own accesses (modelled
     by kernel-view writes; the toggle cost is part of the ultra+
     entry cost) *)
  if cfg.stack_switch then begin
    let pkey = p.next_pkey in
    p.next_pkey <- pkey + 1;
    Memory.set_pkey p.mem ~addr:(Memory.align_down sel_addr) ~len:Memory.page_size ~pkey;
    List.iter
      (fun th -> th.regs.pkru <- th.regs.pkru lor (1 lsl (2 * pkey)))
      p.threads
  end

(** Phase 2: after the first fake syscall, the ptracer has deposited
    its accumulated startup state into our buffer. *)
let init2 ~sym (ctx : ctx) =
  let p = ctx.thread.t_proc in
  let st = get_state p in
  match sym p "k23_handoff_buf" with
  | Some buf -> st.startup_from_ptracer <- Memory.read_u64_raw p.mem buf
  | None -> panic "libK23: no handoff buffer"

(** Phase 3: the ptracer has detached; flip the selector to BLOCK. *)
let init3 cfg (ctx : ctx) =
  let p = ctx.thread.t_proc in
  match cfg.sud_selector p with
  | Some sel_addr -> set_selector_all_slots p ~sel_addr selector_block
  | None -> ()

let image ~variant ~handler ~stats () : image =
  let prog =
    x86.assemble
      ([
         Asm.Label "__k23_init";
         Asm.Vcall_named "k23_init1";
         (* fake syscall #1: request the ptracer's state (Section 5.3) *)
         Asm.I (Insn.Mov_ri (RAX, Sysno.k23_handoff));
         Asm.Mov_sym (Reg.RDI, "k23_handoff_buf");
         Asm.I Insn.Syscall;
         Asm.Vcall_named "k23_init2";
         (* fake syscall #2: tell the ptracer to detach *)
         Asm.I (Insn.Mov_ri (RAX, Sysno.k23_detach));
         Asm.I Insn.Syscall;
         Asm.Vcall_named "k23_init3";
         Asm.I Insn.Ret;
       ]
      @ sigsys_handler_items x86 ()
      @ buffer_items [ "k23_selector"; "k23_handoff_buf" ])
  in
  let sym = Mapper.prog_sym ~name:lib_path prog in
  (* K23's trampoline reuses the kernel-clobbered rcx/r11 registers and
     therefore beats lazypoline's entry sequence (Section 6.2.1);
     calibrated near the paper's 1.2788x / 1.3919x / 1.3948x *)
  let cfg =
    {
      (config (variant_to_string variant) ~pre_cost:4 ~post_cost:2 ~handler ~stats) with
      null_check = (match variant with Default -> None | Ultra | Ultra_plus -> Some (17, null_check));
      stack_switch = variant = Ultra_plus;
      sud_selector = (fun p -> sym p "k23_selector");
    }
  in
  library ~name:lib_path ~init:"__k23_init" prog
    ([ ("k23_init1", init1 cfg ~sym); ("k23_init2", init2 ~sym); ("k23_init3", init3 cfg) ]
    @ sigsys_host_fns cfg ~sym ())
