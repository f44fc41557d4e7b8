(** Common interposition framework shared by every interposer
    (zpoline, lazypoline, plain SUD, ptrace, K23).

    Provides:
    - the handler ABI: a user-supplied OCaml function with full
      expressiveness (deep argument inspection, emulation, veto);
    - the page-0 trampoline (nop sled + entry sequence), installed by
      rewriting-based interposers, with PKU-based XOM protection;
    - the SIGSYS handler skeleton used by every SUD-based path;
    - shared statistics so benchmarks can compare mechanisms.

    Every interposition path — rewritten [callq *%rax], SIGSYS
    fallback, ptrace stop — funnels into the same user handler, which
    is the paper's definition of a flexible interposer. *)

open K23_isa
open K23_machine
open K23_kernel
open Kern

(* ------------------------------------------------------------------ *)
(* Handler ABI                                                         *)

type action =
  | Forward  (** execute the original system call *)
  | Emulate of int  (** skip the kernel; return this value to the app *)

type handler = ctx -> nr:int -> args:int array -> site:int -> action
(** The interposition function.  [site] is the address of the
    triggering [syscall]/[sysenter] instruction. *)

type stats = {
  mutable interposed : int;
  mutable via_rewrite : int;  (** fast path: rewritten call *)
  mutable via_sigsys : int;  (** SUD fallback *)
  mutable via_ptrace : int;  (** ptrace stops *)
  mutable aborts : int;  (** NULL-execution / prctl-guard aborts *)
  by_nr : (int, int) Hashtbl.t;
}

let fresh_stats () =
  { interposed = 0; via_rewrite = 0; via_sigsys = 0; via_ptrace = 0; aborts = 0; by_nr = Hashtbl.create 32 }

(** The paper's evaluation handler: "an empty interposition function
    that simply invokes the original system call and returns its
    result" — plus counting so exhaustiveness can be verified. *)
let counting_handler ?inner stats : handler =
 fun ctx ~nr ~args ~site ->
  stats.interposed <- stats.interposed + 1;
  Hashtbl.replace stats.by_nr nr (1 + Option.value ~default:0 (Hashtbl.find_opt stats.by_nr nr));
  match inner with Some h -> h ctx ~nr ~args ~site | None -> Forward

(** Abort the target process (SIGABRT), as K23/zpoline do on failed
    runtime checks. *)
let abort ctx = kill_proc ctx.thread.t_proc ~signal:6

(** Add a library to LD_PRELOAD in an environment list. *)
let add_preload env path =
  let rec go acc found = function
    | [] -> List.rev (if found then acc else (("LD_PRELOAD=" ^ path) :: acc))
    | kv :: rest ->
      if String.length kv >= 11 && String.sub kv 0 11 = "LD_PRELOAD=" then
        go (("LD_PRELOAD=" ^ path ^ ":" ^ String.sub kv 11 (String.length kv - 11)) :: acc) true rest
      else go (kv :: acc) found rest
  in
  go [] false env

(* ------------------------------------------------------------------ *)
(* Configuration shared by trampoline and SIGSYS paths                 *)

type config = {
  cfg_name : string;
  pre_cost : int;  (** trampoline handler-entry cost (calibration) *)
  post_cost : int;  (** trampoline handler-exit cost *)
  null_check : (ctx -> site:int -> bool) option;
      (** NULL-execution check: return false to abort (zpoline-ultra's
          bitmap, K23-ultra's hash set) *)
  null_check_cost : int;
  stack_switch : bool;  (** K23-ultra+: switch to a dedicated stack on entry *)
  sud_selector : (proc -> int option);
      (** address of the SUD selector byte, when SUD-based *)
  handler : handler;
  stats : stats;
}

let selector_allow = Sysno.syscall_dispatch_filter_allow
let selector_block = Sysno.syscall_dispatch_filter_block

(** Toggle the calling thread's own selector slot (TLS semantics). *)
let set_selector (th : thread) cfg v =
  match cfg.sud_selector th.t_proc with
  | Some addr -> Memory.write_u8_raw th.t_proc.mem (selector_slot th addr) v
  | None -> ()

(** Initialise every selector slot (current and future threads). *)
let set_selector_all_slots (p : proc) ~sel_addr v =
  for i = 0 to 63 do
    Memory.write_u8_raw p.mem (sel_addr + i) v
  done

(* ------------------------------------------------------------------ *)
(* Trampoline                                                          *)

(** Length of the nop sled: virtual addresses 0..511 all fall through
    to the entry point, so a rewritten [callq *%rax] with any syscall
    number in rax lands here. *)
let nop_sled_len = 512

let trampoline_entry = nop_sled_len
let trampoline_syscall_addr = nop_sled_len + 6 (* after the 6-byte pre vcall *)
let trampoline_post_addr = nop_sled_len + 8 (* after the 2-byte syscall *)

(** Host function run at trampoline entry (fast path). *)
let tramp_pre (cfg : config) (ctx : ctx) =
  let th = ctx.thread in
  let p = th.t_proc in
  let w = ctx.world in
  charge w th cfg.pre_cost;
  (* the rewritten callq pushed the return address: site + 2 *)
  let ret_addr = Memory.read_u64_raw p.mem (Regs.get th.regs RSP) in
  let site = ret_addr - 2 in
  (match cfg.null_check with
  | Some check ->
    charge w th cfg.null_check_cost;
    if not (check ctx ~site) then begin
      (* a call into the trampoline from a site the check does not know *)
      cfg.stats.aborts <- cfg.stats.aborts + 1;
      abort ctx
    end
  | None -> ());
  if proc_dead p then ()
  else begin
    if cfg.stack_switch then charge w th 1;
    (* disable SUD-based interposition via the selector while we are
       handling (Section 5.2) *)
    set_selector th cfg selector_allow;
    let nr = Regs.get th.regs RAX in
    let args = syscall_args th in
    cfg.stats.via_rewrite <- cfg.stats.via_rewrite + 1;
    match cfg.handler ctx ~nr ~args ~site with
    | Forward -> () (* fall through into the trampoline's syscall *)
    | Emulate v ->
      Regs.set th.regs RAX v;
      th.regs.rip <- trampoline_post_addr
  end

let tramp_post (cfg : config) (ctx : ctx) =
  let th = ctx.thread in
  charge ctx.world th cfg.post_cost;
  set_selector th cfg selector_block

(** Build the trampoline pseudo-image for an interposer. *)
let trampoline_image (cfg : config) : image =
  let items =
    [
      Asm.Blob (Bytes.make nop_sled_len '\x90');
      Asm.Label "tramp_entry";
      Asm.Vcall_named "tramp_pre";
      Asm.Label "tramp_syscall";
      Asm.I Insn.Syscall;
      Asm.Label "tramp_post";
      Asm.Vcall_named "tramp_post";
      Asm.I Insn.Ret;
    ]
  in
  {
    im_name = "[trampoline:" ^ cfg.cfg_name ^ "]";
    im_prog = Asm.assemble items;
    im_host_fns = [ ("tramp_pre", tramp_pre cfg); ("tramp_post", tramp_post cfg) ];
    im_init = None;
    im_entry = None;
    im_needed = [];
    im_owner = Trampoline;
  }

(** Map the trampoline at virtual address 0 and protect it as
    eXecute-Only Memory via PKU: data reads/writes to page 0 still
    fault (NULL safety), instruction fetch does not (pitfall P4a). *)
let install_trampoline (ctx : ctx) (cfg : config) =
  let p = ctx.thread.t_proc in
  let w = ctx.world in
  let im = trampoline_image cfg in
  let text = im.im_prog.Asm.text in
  let len = Memory.align_up (Bytes.length text) in
  Memory.map p.mem ~addr:0 ~len ~perm:Memory.perm_rx;
  Memory.write_bytes_raw p.mem 0 text;
  add_region p
    {
      r_start = 0;
      r_len = len;
      r_perm = Memory.perm_rx;
      r_name = "[trampoline]";
      r_owner = Trampoline;
      r_image = Some im;
      r_sec = `Text;
    };
  (* XOM: allocate a pkey, tag the page, set Access-Disable in PKRU *)
  let pkey = p.next_pkey in
  p.next_pkey <- pkey + 1;
  Memory.set_pkey p.mem ~addr:0 ~len ~pkey;
  List.iter (fun th -> th.regs.pkru <- th.regs.pkru lor (1 lsl (2 * pkey))) p.threads;
  charge w ctx.thread 800

(* ------------------------------------------------------------------ *)
(* Two-byte rewriting                                                  *)

(** Rewrite a [syscall]/[sysenter] site to [callq *%rax], the zpoline
    transformation.  [atomic] writes both bytes in one step and flushes
    the writer's icache (safe at load time); the unsafe split used by
    lazypoline lives in that module. *)
let rewrite_site_atomic (ctx : ctx) ~site =
  let p = ctx.thread.t_proc in
  let w = ctx.world in
  (* save page permissions, make writable, restore — the correct
     sequence (zpoline / K23; Section 4.5) *)
  let saved = Memory.get_perm p.mem site in
  Memory.set_perm p.mem ~addr:site ~len:2 ~perm:Memory.perm_rwx;
  Memory.write_u8_raw p.mem site 0xff;
  Memory.write_u8_raw p.mem (site + 1) 0xd0;
  (match saved with
  | Some perm -> Memory.set_perm p.mem ~addr:site ~len:2 ~perm
  | None -> ());
  code_write_barrier w ~addr:site ~len:2;
  charge w ctx.thread 400

(** The regions a rewriter scans: executable, and not the interposer's
    own code (real interposers live in a separate dlmopen namespace). *)
let scannable_regions (p : proc) =
  List.filter
    (fun r ->
      r.r_perm.Memory.x
      && match r.r_owner with
         | App | Libc | Ldso | Lib _ -> true
         | Vdso | Interposer | Trampoline | Anon | Stack -> false)
    p.regions

(* ------------------------------------------------------------------ *)
(* SIGSYS handler skeleton                                             *)

(** Labels used by the generated handler code. *)
let sigsys_handler_sym = "__sigsys_handler"

let sigsys_post_sym = "__sigsys_post"

(** Assembly of a SIGSYS handler: [extra_items] run first (lazypoline
    splices its two rewriting steps there), then the common
    pre-vcall / syscall gadget / post-vcall / rt_sigreturn sequence.
    The gadget and the sigreturn syscall live in the interposer's own
    text, which SUD allowlists — the standard recipe from Section 2.1. *)
let sigsys_handler_items ?(extra_items = []) () =
  [ Asm.Label sigsys_handler_sym ]
  @ extra_items
  @ [
      Asm.Vcall_named "sigsys_pre";
      Asm.Label "__sigsys_gadget";
      Asm.I Insn.Syscall;
      Asm.Label sigsys_post_sym;
      Asm.Vcall_named "sigsys_post";
      Asm.I (Insn.Mov_ri (RAX, Sysno.rt_sigreturn));
      Asm.I Insn.Syscall;
    ]

(** AArch64 twin of {!sigsys_handler_items}: same labels, same vcall
    names, [svc #0] gadgets instead of [syscall] and the sigreturn
    number materialised into [x8].  Both assemble to the ISA-neutral
    program type, so the host side ({!sigsys_pre}/{!sigsys_post}) is
    shared. *)
let sigsys_handler_items_arm ?(extra_items = []) () =
  let module A = K23_isa_arm.Asm_arm in
  let module Arm = K23_isa_arm.Arm in
  [ A.Label sigsys_handler_sym ]
  @ extra_items
  @ [
      A.Vcall_named "sigsys_pre";
      A.Label "__sigsys_gadget";
      A.I (Arm.Svc 0);
      A.Label sigsys_post_sym;
      A.Vcall_named "sigsys_post";
    ]
  @ List.map (fun i -> A.I i) (Arm.li 8 Sysno.rt_sigreturn)
  @ [ A.I (Arm.Svc 0) ]

(** Host side of the SIGSYS path.  [im] is the interposer image (for
    label address lookup); [on_sigsys] is an optional extra step run
    before the user handler (K23 uses it for the prctl guard). *)
let sigsys_pre (cfg : config) ~(im : image Lazy.t) ?(on_sigsys = fun _ ~site:_ ~nr:_ -> ()) ()
    (ctx : ctx) =
  let th = ctx.thread in
  let p = th.t_proc in
  let w = ctx.world in
  charge w th (cfg.pre_cost + 40);
  match th.frames with
  | [] -> abort ctx (* sigsys_pre outside a signal handler *)
  | frame :: _ ->
    let nr = frame.fr_sysno and site = frame.fr_site and args = frame.fr_args in
    set_selector th cfg selector_allow;
    on_sigsys ctx ~site ~nr;
    if proc_dead p then ()
    else begin
      cfg.stats.via_sigsys <- cfg.stats.via_sigsys + 1;
      let post_addr =
        match Mapper.image_sym p (Lazy.force im) sigsys_post_sym with
        | Some a -> a
        | None -> panic "%s: missing %s" cfg.cfg_name sigsys_post_sym
      in
      match cfg.handler ctx ~nr ~args ~site with
      | Forward ->
        (* load the attempted syscall into the register file and fall
           into the gadget (ABI register indices come from the ISA:
           rax/rdi/... on x86-64, x8/x0..x5 on arm64) *)
        let isa = w.isa in
        Regs.seti th.regs (K23_isa.Isa.nr_index isa) nr;
        Array.iteri (fun i idx -> Regs.seti th.regs idx args.(i)) (K23_isa.Isa.arg_indices isa)
      | Emulate v ->
        Regs.set th.regs RAX v;
        th.regs.rip <- post_addr
    end

let sigsys_post (cfg : config) (ctx : ctx) =
  let th = ctx.thread in
  charge ctx.world th cfg.post_cost;
  match th.frames with
  | [] -> abort ctx (* sigsys_post outside a signal handler *)
  | frame :: _ ->
    (* store the result into the saved context; the saved rip already
       points past the trapping instruction, so sigreturn resumes
       cleanly (the modern modify-the-signal-context technique) *)
    Regs.set frame.fr_regs RAX (Regs.get th.regs RAX);
    set_selector th cfg selector_block

(** Install the SIGSYS handler and arm SUD for the current thread (and
    have children inherit it), allowlisting the interposer's own text
    region.  Runs from an interposer constructor (host side; the
    corresponding sigaction/prctl kernel work is charged). *)
let arm_sud (ctx : ctx) ~(im : image) ~selector_sym =
  let p = ctx.thread.t_proc in
  let w = ctx.world in
  let handler_addr =
    match Mapper.image_sym p im sigsys_handler_sym with
    | Some a -> a
    | None -> panic "arm_sud: image %s has no SIGSYS handler" im.im_name
  in
  Hashtbl.replace p.sig_handlers sigsys handler_addr;
  let sel_addr =
    match Mapper.image_sym p im selector_sym with
    | Some a -> a
    | None -> panic "arm_sud: image %s has no selector %s" im.im_name selector_sym
  in
  (* allowlist: the interposer's text region *)
  let text_region =
    List.find
      (fun r ->
        (match r.r_image with Some i -> i == im | None -> false) && r.r_sec = `Text)
      p.regions
  in
  let allow_lo = text_region.r_start in
  let allow_hi = text_region.r_start + text_region.r_len in
  ctx.thread.sud <- Some { sel_addr; allow_lo; allow_hi };
  w.sud_ever_armed <- true;
  Kern.ktrace_count w "sud.arm";
  Kern.ktrace_event w ctx.thread
    (K23_obs.Event.Sud_toggle { armed = true; sel_addr; allow_lo; allow_hi });
  charge w ctx.thread 500;
  sel_addr
