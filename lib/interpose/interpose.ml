(** Common interposition framework shared by every interposer
    (zpoline, lazypoline, plain SUD, seccomp, ptrace, ASC-Hook, K23).

    Provides:
    - the handler ABI: a user-supplied OCaml function with full
      expressiveness (deep argument inspection, emulation, veto);
    - the one launch path ({!spawn}): tag, preload, spawn;
    - the page-0 trampoline (nop sled + entry sequence), installed by
      rewriting-based interposers, with PKU-based XOM protection, and
      the one save-permissions/store/restore/serialise code patch;
    - the SIGSYS handler skeleton used by every SUD- and seccomp-based
      path, on both ISAs;
    - shared statistics so benchmarks can compare mechanisms.

    Every interposition path — rewritten [callq *%rax], SIGSYS
    fallback, ptrace stop — funnels into the same user handler, which
    is the paper's definition of a flexible interposer. *)

open K23_isa
open K23_machine
open K23_kernel
open Kern
module Arm = K23_isa_arm.Arm

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

(** The one launch path: tag the ktrace stream with ["mech:" ^ tag],
    register each [preload] image and put it in LD_PRELOAD, then spawn
    [path] ([tracer] and [vdso] as {!World.spawn}). *)
let spawn w ?tag ~preload ?tracer ?vdso ~path ?argv ?(env = []) () =
  Option.iter (fun tag -> ktrace_annot w ("mech:" ^ tag)) tag;
  let env =
    List.fold_left
      (fun env im ->
        register_library w im;
        add_preload env im.im_name)
      env preload
  in
  World.spawn w ~path ?argv ~env ?tracer ?vdso ()

(** An interposition library: [prog] mapped as [name], with
    constructor symbol [init]. *)
let library ~name ~init prog host_fns : image =
  {
    im_name = name;
    im_prog = prog;
    im_host_fns = host_fns;
    im_init = Some init;
    im_entry = None;
    im_needed = [];
    im_owner = Interposer;
  }

(* ------------------------------------------------------------------ *)
(* Configuration shared by trampoline and SIGSYS paths                 *)

type config = {
  cfg_name : string;
  pre_cost : int;  (** trampoline handler-entry cost (calibration) *)
  post_cost : int;  (** trampoline handler-exit cost *)
  null_check : (int * (ctx -> site:int -> bool)) option;
      (** NULL-execution check and its cycle cost: return false to
          abort (zpoline-ultra's bitmap, K23-ultra's hash set) *)
  stack_switch : bool;  (** K23-ultra+: switch to a dedicated stack on entry *)
  sud_selector : (proc -> int option);
      (** address of the SUD selector byte, when SUD-based *)
  handler : handler;
  stats : stats;
}

(** A config with no NULL-execution check, no stack switch and no SUD
    selector. *)
let config name ~pre_cost ~post_cost ~handler ~stats =
  {
    cfg_name = name;
    pre_cost;
    post_cost;
    null_check = None;
    stack_switch = false;
    sud_selector = (fun _ -> None);
    handler;
    stats;
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
  | Some (cost, check) ->
    charge w th cost;
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
(* Code patching                                                       *)

(** Patch [len] code bytes at [addr] with [store], the correct
    sequence (zpoline, K23, ASC-Hook; Section 4.5): save the page
    permissions, make the bytes writable, store, restore, serialise.
    The unsafe split used by lazypoline lives in that module. *)
let patch_code (ctx : ctx) ~addr ~len store =
  let p = ctx.thread.t_proc in
  let saved = Memory.get_perm p.mem addr in
  Memory.set_perm p.mem ~addr ~len ~perm:Memory.perm_rwx;
  store p.mem;
  Option.iter (fun perm -> Memory.set_perm p.mem ~addr ~len ~perm) saved;
  code_write_barrier ctx.world ~addr ~len;
  charge ctx.world ctx.thread 400

(** Rewrite a [syscall]/[sysenter] site to [callq *%rax], the zpoline
    transformation, in one quiescent step (safe at load time). *)
let rewrite_site_atomic (ctx : ctx) ~site =
  patch_code ctx ~addr:site ~len:2 (fun mem ->
      Memory.write_u8_raw mem site 0xff;
      Memory.write_u8_raw mem (site + 1) 0xd0)

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

(** What the SIGSYS skeleton and a constructor stub need from an ISA. *)
type ('insn, 'reg) kit = {
  syscall : 'insn;  (** the trapping instruction *)
  ret : 'insn;
  load_nr : int -> 'insn list;  (** load the syscall-number register *)
  assemble : ('insn, 'reg) Asm.t list -> Asm.program;
}

let x86 =
  {
    syscall = Insn.Syscall;
    ret = Insn.Ret;
    load_nr = (fun n -> [ Insn.Mov_ri (RAX, n) ]);
    assemble = Asm.assemble;
  }

let arm =
  {
    syscall = Arm.Svc 0;
    ret = Arm.Ret;
    load_nr = Arm.li 8;
    assemble = K23_isa_arm.Asm_arm.assemble;
  }

(** A constructor stub: [label: vcall fn; ret]. *)
let ctor_items kit label fn = [ Asm.Label label; Asm.Vcall_named fn; Asm.I kit.ret ]

(** One zeroed 64-byte data buffer per label (a selector's 64 TLS
    slots, K23's handoff buffer). *)
let buffer_items = function
  | [] -> []
  | labels -> Asm.Section `Data :: List.concat_map (fun l -> [ Asm.Label l; Asm.Zeros 64 ]) labels

(** Assembly of a SIGSYS handler: [extra_items] run first (lazypoline
    splices its two rewriting steps there), then the common
    pre-vcall / syscall gadget / post-vcall / rt_sigreturn sequence.
    The gadget and the sigreturn syscall live in the interposer's own
    text, which SUD allowlists — the standard recipe from Section 2.1. *)
let sigsys_handler_items kit ?(extra_items = []) () =
  [ Asm.Label sigsys_handler_sym ]
  @ extra_items
  @ [
      Asm.Vcall_named "sigsys_pre";
      Asm.Label "__sigsys_gadget";
      Asm.I kit.syscall;
      Asm.Label sigsys_post_sym;
      Asm.Vcall_named "sigsys_post";
    ]
  @ List.map (fun i -> Asm.I i) (kit.load_nr Sysno.rt_sigreturn)
  @ [ Asm.I kit.syscall ]

(** A SIGSYS interposer's program on [isa]: the constructor stub, the
    handler skeleton and the [buffers]. *)
let sigsys_program isa ~ctor:(label, fn) buffers =
  let build kit =
    kit.assemble (ctor_items kit label fn @ sigsys_handler_items kit () @ buffer_items buffers)
  in
  match isa with Isa.X86_64 -> build x86 | Isa.Arm64 -> build arm

(** Host side of the SIGSYS path.  [sym] resolves the interposer
    image's own labels; [on_sigsys] is an optional extra step run
    before the user handler (libLogger records the site there). *)
let sigsys_pre (cfg : config) ~sym ?(on_sigsys = fun _ ~site:_ ~nr:_ -> ()) () (ctx : ctx) =
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
      match cfg.handler ctx ~nr ~args ~site with
      | Forward ->
        (* load the attempted syscall into the register file and fall
           into the gadget (ABI register indices come from the ISA:
           rax/rdi/... on x86-64, x8/x0..x5 on arm64) *)
        let isa = w.isa in
        Regs.seti th.regs (Isa.nr_index isa) nr;
        Array.iteri (fun i idx -> Regs.seti th.regs idx args.(i)) (Isa.arg_indices isa)
      | Emulate v ->
        Regs.set th.regs RAX v;
        th.regs.rip <-
          (match sym p sigsys_post_sym with
          | Some a -> a
          | None -> panic "%s: missing %s" cfg.cfg_name sigsys_post_sym)
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

(** The skeleton's two host functions. *)
let sigsys_host_fns cfg ~sym ?on_sigsys () =
  [ ("sigsys_pre", sigsys_pre cfg ~sym ?on_sigsys ()); ("sigsys_post", sigsys_post cfg) ]

(** Register the interposer's SIGSYS handler, found through [sym];
    returns the text region holding it — the interposer's own code,
    which SUD allowlists and seccomp lets through. *)
let install_sigsys_handler (p : proc) ~sym =
  match sym p sigsys_handler_sym with
  | None -> panic "pid %d: interposer has no SIGSYS handler" p.pid
  | Some a ->
    Hashtbl.replace p.sig_handlers sigsys a;
    Option.get (find_region p a)

(** Install the SIGSYS handler and arm SUD, with [cfg]'s selector, for
    the current thread (and have children inherit it), allowlisting
    the interposer's own text region.  Runs from an interposer
    constructor (host side; the corresponding sigaction/prctl kernel
    work is charged). *)
let arm_sud (ctx : ctx) cfg ~sym =
  let p = ctx.thread.t_proc in
  let w = ctx.world in
  let text = install_sigsys_handler p ~sym in
  let sel_addr =
    match cfg.sud_selector p with
    | Some a -> a
    | None -> panic "arm_sud: %s has no selector in pid %d" cfg.cfg_name p.pid
  in
  let allow_lo = text.r_start in
  let allow_hi = text.r_start + text.r_len in
  ctx.thread.sud <- Some { sel_addr; allow_lo; allow_hi };
  w.sud_ever_armed <- true;
  Kern.ktrace_count w "sud.arm";
  Kern.ktrace_event w ctx.thread
    (K23_obs.Event.Sud_toggle { armed = true; sel_addr; allow_lo; allow_hi });
  charge w ctx.thread 500;
  sel_addr
