(** lazypoline (Jacobs et al., DSN'24), reimplemented faithfully —
    including the runtime-rewriting flaws the paper dissects.

    No static disassembly: SUD traps the {e first} execution of every
    [syscall]/[sysenter] site (so dynamically generated / dlopen'ed
    code is covered, fixing P2a), and the SIGSYS handler rewrites that
    site to [callq *%rax] before re-issuing the call.  Subsequent
    executions take the page-0 trampoline fast path.

    Deliberately preserved flaws (Sections 4.3-4.5):
    - the 2-byte rewrite is two separate 1-byte stores — not atomic
      (P5: another thread can execute the torn instruction);
    - no cross-core instruction-stream serialisation — other cores may
      keep executing stale bytes (P5);
    - page permissions are not saved before rewriting and are
      "restored" to an assumed r-x, destroying XOM (P5);
    - any trap is trusted: control flow hijacked into data that happens
      to encode [0f 05] gets that data rewritten (P3b);
    - nothing guards execution falling into the page-0 trampoline
      (P4a), and prctl(PR_SYS_DISPATCH_OFF) silently disables it
      (P1b). *)

open K23_isa
open K23_machine
open K23_kernel
open Kern
open K23_interpose.Interpose

let lib_path = "/usr/lib/liblazypoline.so"

type state = {
  rewritten : unit Inttbl.t;
  mutable pending_rw : int option;  (** site currently half-rewritten *)
  mutable data_corruptions : int;  (** sites rewritten inside non-code bytes (for PoCs) *)
}

(* Per-PROCESS state, keyed by pid in the per-launch image closure:
   after fork each process has its own (copy-on-write) memory, so its
   rewriting progress is its own.  A child starts with an empty table
   and simply re-discovers sites through SUD, exactly like the real
   system after fork. *)
type states = state Inttbl.t

let get_state (states : states) (p : proc) =
  match Inttbl.find_opt states p.pid with
  | Some s -> s
  | None ->
    let s = { rewritten = Inttbl.create 64; pending_rw = None; data_corruptions = 0 } in
    Inttbl.replace states p.pid s;
    s

(* --- the flawed two-step runtime rewrite ---------------------------- *)

(** Step 1: make the page writable (wihout saving what it was) and
    store the first byte of [callq *%rax].  Only the writing core's
    icache is invalidated; no serialisation reaches other cores. *)
let rw_step1 states (ctx : ctx) =
  let th = ctx.thread in
  let p = th.t_proc in
  match th.frames with
  | [] -> ()
  | frame :: _ ->
    let site = frame.fr_site in
    let st = get_state states p in
    if Inttbl.mem st.rewritten site || st.pending_rw <> None then ()
    else begin
      Memory.set_perm p.mem ~addr:site ~len:2 ~perm:Memory.perm_rwx;
      Memory.write_u8_raw p.mem site 0xff;
      (* caches are coherent: other cores can now fetch the torn
         [ff 05] bytes — the P5 window is open *)
      code_write_barrier ctx.world ~addr:site ~len:1;
      st.pending_rw <- Some site;
      charge ctx.world th 250
    end

(** Step 2: store the second byte and "restore" permissions to an
    assumed r-x. *)
let rw_step2 states (ctx : ctx) =
  let th = ctx.thread in
  let p = th.t_proc in
  let st = get_state states p in
  match st.pending_rw with
  | None -> ()
  | Some site ->
    Memory.write_u8_raw p.mem (site + 1) 0xd0;
    (* flaw: the original permissions were never saved; XOM or rwx
       pages silently become r-x *)
    Memory.set_perm p.mem ~addr:site ~len:2 ~perm:Memory.perm_rx;
    code_write_barrier ctx.world ~addr:site ~len:2;
    Inttbl.replace st.rewritten site ();
    (match find_region p site with
    | Some r when r.r_sec <> `Text || r.r_owner = Anon -> st.data_corruptions <- st.data_corruptions + 1
    | _ -> ());
    st.pending_rw <- None;
    charge ctx.world th 250

let image ~handler ~stats () : image =
  let states : states = Inttbl.create 16 in
  let prog =
    Asm.assemble
      (ctor_items Asm.kit "__lazypoline_init" "lp_init"
      @ sigsys_handler_items Asm.kit
          ~extra_items:
            [
              Asm.Vcall_named "lp_rw1";
              (* the mprotect round trip between the two stores: on the
                 real system this is a full syscall, leaving the torn
                 [ff 05] bytes fetchable for thousands of cycles *)
              Asm.Vcall_named "lp_rw_mprotect";
              Asm.Vcall_named "lp_rw_mprotect";
              Asm.Vcall_named "lp_rw_mprotect";
              Asm.Vcall_named "lp_rw_mprotect";
              Asm.Vcall_named "lp_rw2";
            ]
          ()
      @ buffer_items [ "lp_selector" ])
  in
  let sym = Mapper.prog_sym ~name:lib_path prog in
  (* calibrated near the paper's 1.3801x microbenchmark overhead; no
     NULL-execution guard (P4a) *)
  let cfg =
    {
      (config "lazypoline" ~pre_cost:16 ~post_cost:6 ~handler ~stats) with
      sud_selector = Mapper.prog_sym_memo ~name:lib_path prog "lp_selector";
    }
  in
  let init (ctx : ctx) =
    let p = ctx.thread.t_proc in
    Inttbl.remove states p.pid;
    ignore (get_state states p);
    install_trampoline ctx cfg;
    let sel_addr = arm_sud ctx cfg ~sym in
    set_selector_all_slots p ~sel_addr selector_block
  in
  library ~name:lib_path ~init:"__lazypoline_init" prog
    ([
       ("lp_init", init);
       ("lp_rw1", rw_step1 states);
       ("lp_rw_mprotect", fun ctx -> charge ctx.world ctx.thread 40);
       ("lp_rw2", rw_step2 states);
     ]
    @ sigsys_host_fns cfg ~sym ())
