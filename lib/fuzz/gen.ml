(** Seeded generator of adversarial programs for the differential
    conformance fuzzer.

    Programs are built from weighted {e hazard shapes} — the encoding-
    and control-flow corner cases of the paper's pitfall catalogue
    (raw SYSCALL/SYSENTER, syscall opcode bytes embedded in longer
    instructions' immediates, instructions straddling page boundaries,
    JIT-style self-modifying stores over fresh code, fork/signal-heavy
    sequences, boundary syscall arguments).  Everything draws from one
    {!K23_util.Rng}, so a seed determines the program byte-for-byte.

    The default mix is {e conformance-safe}: every shape in it has the
    same application-observable behaviour natively and under a correct
    interposer, so any divergence the oracle reports is a mechanism
    bug.  Shapes that are {e designed} to diverge under specific
    mechanisms (NULL-call misdirection, execve with a scrubbed
    environment) exist but are opt-in ({!all_shapes_for}) — they are
    how the fuzzer demonstrates a disabled mitigation within a few
    iterations.

    Register discipline: values derived from immediates are "clean"
    and may be printed or branched on; address-valued registers
    (symbol addresses, mmap returns) and syscall-clobbered registers
    (RAX result, RCX/R11) are "dirty" — they differ across mechanisms
    (extra preload libraries shift ASLR draws and fd numbering), so
    generated programs never write them to the console.  The only
    sanctioned exception is branching on the {e zero-ness} of a fork
    return, which is portable by definition. *)

open K23_isa
module Rng = K23_util.Rng
module Sysno = K23_kernel.Sysno

type shape =
  | Raw  (** raw SYSCALL/SYSENTER with benign or boundary arguments *)
  | Embedded  (** 0f05/0f34/ffd0 byte patterns inside immediates *)
  | Straddle  (** an instruction crossing a page boundary *)
  | Smc  (** mmap RWX, store a fresh stub byte-by-byte, call it *)
  | Forky  (** fork / wait4 with console writes ordered by wait *)
  | Sigheavy  (** install a fault handler, fault into it, exit there *)
  | Null_call  (** call *rax with rax=0 (P4a) — diverges by design *)
  | Execve_scrub  (** execve with envp=NULL (P1a) — diverges by design *)
  | Svc_alias
      (** ARM only: a text literal aliasing [svc], read back by the
          program (P3a) — diverges under ASC-Hook by design *)

let shape_to_string = function
  | Raw -> "raw"
  | Embedded -> "embedded"
  | Straddle -> "straddle"
  | Smc -> "smc"
  | Forky -> "fork"
  | Sigheavy -> "signal"
  | Null_call -> "null-call"
  | Execve_scrub -> "execve-scrub"
  | Svc_alias -> "svc-alias"

let shape_of_string = function
  | "raw" -> Some Raw
  | "embedded" -> Some Embedded
  | "straddle" -> Some Straddle
  | "smc" -> Some Smc
  | "fork" -> Some Forky
  | "signal" -> Some Sigheavy
  | "null-call" -> Some Null_call
  | "execve-scrub" -> Some Execve_scrub
  | "svc-alias" -> Some Svc_alias
  | _ -> None

let default_shapes = [ Raw; Embedded; Straddle; Smc; Forky; Sigheavy ]

(** A generated program, tagged by the ISA its items are written in.
    Both arms assemble to the neutral {!Asm.program}; the tag is what
    lets the oracle pick the right registration path and sanity-check
    the world's ISA. *)
type items = X86 of Asm.item list | A64 of K23_isa_arm.Asm_arm.item list

let items_isa = function X86 _ -> K23_isa.Isa.X86_64 | A64 _ -> K23_isa.Isa.Arm64

type prog = {
  items : items;
  shapes : shape list;  (** shape instances, in emission order *)
  nrs : int list;  (** statically chosen syscall numbers *)
}

(* --- building blocks ----------------------------------------------- *)

let pick rng arr = arr.(Rng.int rng (Array.length arr))

let boundary_args = [| 0; 1; -1; 4095; 4096; 4097; max_int; min_int; 0xdeadbeef |]

let sigill = 4
let sigtrap = 5

(* one generator state for both ISAs; labels must be unique per
   program *)
type ('insn, 'reg) st = {
  kit : ('insn, 'reg) kit;
  rng : Rng.t;
  mutable uid : int;
  mutable data : ('insn, 'reg) Asm.t list;  (** accumulated data-section items *)
  mutable tail : ('insn, 'reg) Asm.t list;  (** code placed after the epilogue *)
  mutable used : shape list;
  mutable sysnrs : int list;
}

(** What the shapes need from an ISA beyond its {!Asm.kit}.  Every
    shape that makes no per-ISA draw is written once over this. *)
and ('insn, 'reg) kit = {
  asm : ('insn, 'reg) Asm.kit;
  draw_trap : Rng.t -> 'insn;  (** a drawn trapping instruction *)
  counter : 'reg;  (** the loop counter, reserved *)
  decrement : 'insn;  (** counter -= 1, setting the flags *)
  test : 'reg -> 'insn;  (** set Z from a register's zero-ness *)
  zero : 'reg -> 'insn;  (** clear a register (execve-scrub's NULL envp) *)
  smc_base : 'reg;  (** holds the SMC page *)
  smc_stub : int -> Bytes.t;  (** fresh code: syscall [nr], return *)
  store_byte : 'reg -> int -> int -> ('insn, 'reg) Asm.t list;  (** [store_byte base off v] *)
  ud : ('insn, 'reg) Asm.t;  (** raises SIGILL *)
  breakpoint : ('insn, 'reg) Asm.t;  (** raises SIGTRAP *)
  filler : ('insn, 'reg) st -> ('insn, 'reg) Asm.t list;
      (** executed filler with syscall patterns in its immediates *)
  straddle : ('insn, 'reg) st -> ('insn, 'reg) Asm.t list;
  diverge : shape * (('insn, 'reg) st -> ('insn, 'reg) Asm.t list);
      (** the ISA's designed-to-diverge shape *)
}

let fresh st prefix =
  st.uid <- st.uid + 1;
  Printf.sprintf "%s%d" prefix st.uid

let note_nr st nr = st.sysnrs <- nr :: st.sysnrs

let li kit r v = List.map (fun i -> Asm.I i) (kit.asm.li r v)

(* load the leading syscall arguments, then the number *)
let set_sys kit nr args =
  List.concat (List.mapi (fun i v -> li kit kit.asm.args.(i) v) args) @ li kit kit.asm.nr nr

(* a syscall through the plain trapping instruction *)
let syscall kit nr args = set_sys kit nr args @ [ Asm.I kit.asm.trap ]

let trap st = Asm.I (st.kit.draw_trap st.rng)

let exit_items st code =
  note_nr st Sysno.exit_group;
  syscall st.kit Sysno.exit_group [ code ]

(* a console write of [msg]; the bytes land in the shared console
   buffer and are part of the oracle's comparison *)
let write_msg st msg =
  let lbl = fresh st "m" in
  st.data <- st.data @ [ Asm.Label lbl; Asm.Strz msg ];
  note_nr st Sysno.write;
  let k = st.kit in
  let a = k.asm.args in
  li k a.(0) 1
  @ [ Asm.Mov_sym (a.(1), lbl) ]
  @ li k a.(2) (String.length msg)
  @ li k k.asm.nr Sysno.write
  @ [ trap st ]

(* ... of a fresh short message *)
let write_items st =
  let len = 1 + Rng.int st.rng 8 in
  write_msg st (String.init len (fun _ -> Char.chr (Char.code 'a' + Rng.int st.rng 26)))

let raw_syscall_items st =
  (* one drawn syscall; the trap is drawn before the arguments *)
  let sys nr args =
    note_nr st nr;
    let t = trap st in
    set_sys st.kit nr (args ()) @ [ t ]
  in
  match Rng.int st.rng 6 with
  | 0 -> sys Sysno.getpid (fun () -> [])
  | 1 -> sys Sysno.gettid (fun () -> [])
  | 2 ->
    (* the non-existent syscall with boundary arguments, drawn last
       register first: the kernel answers -ENOSYS whatever the
       registers hold, so wild values are conformance-safe while
       stressing argument plumbing *)
    sys Sysno.bench_nonexistent (fun () ->
        List.rev (List.init 6 (fun _ -> pick st.rng boundary_args)))
  | 3 -> sys Sysno.brk (fun () -> [ 0 ])
  | 4 -> sys Sysno.close (fun () -> [ 99 + Rng.int st.rng 100 ])
  | _ -> write_items st

(* --- x86-64 -------------------------------------------------------- *)

(* Scratch registers safe across raw syscalls: not argument registers,
   not RAX (result), not RCX/R11 (clobbered by the syscall
   instruction), not R13 (loop counter). *)
let scratch = [| Reg.RBX; R12; R14; R15 |]

(* Immediates whose little-endian bytes contain the interposition-
   relevant patterns: 0f 05 (syscall), 0f 34 (sysenter), ff d0
   (callq *rax).  A linear sweep that stays in sync never treats these
   as instruction starts; a desynchronised or byte-scanning rewriter
   would (P2a/P3a). *)
let hazard_imms =
  [| 0x050f; 0x340f; 0xd0ff; 0x050f_050f; 0x050f_340f; 0x90d0_ff05_0f90; 0x0f05_050f_340f |]

(* the registers written are scratch, so the values never escape *)
let x86_filler st =
  let r = pick st.rng scratch in
  match Rng.int st.rng 4 with
  | 0 -> [ Asm.I (Insn.Mov_ri (r, pick st.rng hazard_imms)) ]
  | 1 ->
    (* Mov_ri32 only encodes RAX..RDI; RBX is our only low scratch *)
    [ Asm.I (Insn.Mov_ri32 (RBX, 0x050f_050f)) ]
  | 2 ->
    let r2 = pick st.rng scratch in
    [ Asm.I (Insn.Mov_ri (r, pick st.rng hazard_imms)); Asm.I (Insn.Add_rr (r, r2)) ]
  | _ -> [ Asm.I (Insn.Lea (r, pick st.rng scratch, 0x050f)) ]

(* place a long instruction (or a SYSCALL) across a page boundary of
   the app's text.  App text is mapped at a fixed page-aligned base, so
   an [Align 4096] inside the image is a runtime page boundary. *)
let x86_straddle st =
  let k = 1 + Rng.int st.rng 9 in
  let r = pick st.rng scratch in
  let nops n = Asm.Blob (Bytes.make n '\x90') in
  if k < 2 then begin
    (* the 2-byte SYSCALL itself straddles: opcode byte on one page,
       0x05 on the next *)
    note_nr st Sysno.getpid;
    [ Asm.I (Insn.Mov_ri (RAX, Sysno.getpid)); Asm.Align 4096; nops (4096 - 1); Asm.I Insn.Syscall ]
  end
  else
    (* a 10-byte mov with hazard bytes in the immediate straddles *)
    [ Asm.Align 4096; nops (4096 - k); Asm.I (Insn.Mov_ri (r, pick st.rng hazard_imms)) ]
    @ raw_syscall_items st

(* P4a as a shape: call *rax with rax = 0.  Natively this is a fatal
   jump to an unmapped page; a rewriting interposer without the NULL
   check silently slides down its page-0 trampoline and "returns" from
   a syscall the program never made.  RDI is parked on a dead fd so
   the misdirected read(2) fails fast instead of blocking. *)
let null_call_block _st =
  [ Asm.I (Insn.Mov_ri (RDI, 199)); Asm.I (Insn.Xor_rr (RAX, RAX)); Asm.I (Insn.Call_reg RAX) ]

let x86 =
  {
    asm = Asm.kit;
    draw_trap = (fun rng -> if Rng.int rng 4 = 0 then Insn.Sysenter else Syscall);
    counter = R13;
    decrement = Sub_ri (R13, 1);
    test = (fun r -> Test_rr (r, r));
    zero = (fun r -> Xor_rr (r, r));
    smc_base = R14;
    smc_stub = (fun nr -> Encode.assemble [ Mov_ri32 (RAX, nr); Syscall; Ret ]);
    store_byte = (fun base i v -> [ Asm.I (Insn.Mov_ri (RBX, v)); Asm.I (Store8 (base, i, RBX)) ]);
    ud = Asm.I Ud2;
    breakpoint = Asm.I Int3;
    filler = x86_filler;
    straddle = x86_straddle;
    diverge = (Null_call, null_call_block);
  }

(* --- AArch64 ------------------------------------------------------- *)

(* Register discipline mirrors x86: x0-x5 are syscall arguments, x8 the
   number, x0 the (dirty) result; x16/x17 are the assembler's
   literal-pool scratch, x19/x20 the loader's dispatch cell and x30
   the link register — all avoided.  General scratch is x9-x15 (x14
   holds the SMC page), the loop counter x21.  [svc] clobbers nothing,
   so unlike x86 no register needs reloading across a syscall. *)

module A = K23_isa_arm.Asm_arm
module Arm = K23_isa_arm.Arm

let ascratch = [| 9; 10; 11; 12; 13; 15 |]

(* immediates and register values that contain the [svc] word pattern:
   split across movz/movk 16-bit fields or materialised whole.  An
   aligned sweep never treats them as sites; only in-text {e data}
   words can alias (the [Svc_alias] shape). *)
let arm_filler st =
  let r = pick st.rng ascratch in
  let alias = Arm.encode (Arm.Svc (Rng.int st.rng 0x10000)) in
  match Rng.int st.rng 4 with
  | 0 -> [ A.I (Arm.Movz (r, alias land 0xffff)) ]
  | 1 -> li st.kit r alias
  | 2 ->
    let r2 = pick st.rng ascratch in
    li st.kit r alias @ [ A.I (Arm.Add_rr (r, r, r2)) ]
  | _ -> [ A.I (Arm.Movz (r, alias land 0xffff)); A.I (Arm.Movk (r, (alias lsr 16) land 0xffff, 1)) ]

(* an executable sled of [nwords] nops (Blob keeps the item count and
   therefore the page-offset arithmetic exact) *)
let nop_pad nwords =
  let w = Arm.bytes_of_word (Arm.encode Arm.Nop) in
  let b = Bytes.create (4 * nwords) in
  for i = 0 to nwords - 1 do
    Bytes.blit w 0 b (4 * i) 4
  done;
  A.Blob b

(* no instruction can straddle a page on a fixed-width ISA; the shape
   instead parks genuine [svc] sites on both edges of a page boundary,
   where a patcher's permission and barrier handling must span pages *)
let arm_straddle st =
  note_nr st Sysno.getpid;
  if Rng.int st.rng 2 = 0 then
    (* svc in the last word of a page *)
    li st.kit 8 Sysno.getpid @ [ A.Align 4096; nop_pad 1023; A.I (Arm.Svc 0) ]
  else begin
    (* back-to-back sites bracketing the boundary: last word of one
       page, first word of the next (x8 survives the first svc) *)
    note_nr st Sysno.getpid;
    li st.kit 8 Sysno.getpid @ [ A.Align 4096; nop_pad 1023; A.I (Arm.Svc 0); A.I (Arm.Svc 1) ]
  end

(* P3a as a shape: a literal-pool word whose value aliases the [svc]
   encoding, read back and compared.  An exact aligned sweep cannot
   tell it from code, so ASC-Hook patches it and the program observes
   the rewrite — native and rewriting runs diverge by design. *)
let svc_alias_block st =
  let cont = fresh st "cont" and patched = fresh st "patched" and fin = fresh st "fin" in
  let alias = Arm.encode (Arm.Svc (1 + Rng.int st.rng 0x7fff)) in
  [ A.I (Arm.Ldr_lit (9, 2)) (* x9 := the quad two words below *); A.J cont; A.Quad alias; A.Label cont ]
  @ li st.kit 10 alias
  @ [ A.I (Arm.Subs_rr (31, 9, 10)); A.Jc (Insn.NZ, patched) ]
  @ write_msg st "literal-intact"
  @ [ A.J fin; A.Label patched ]
  @ write_msg st "literal-PATCHED"
  @ [ A.Label fin ]

let arm =
  {
    asm = A.kit;
    draw_trap = (fun rng -> Arm.Svc (Rng.int rng 8));
    counter = 21;
    decrement = Subs_imm (21, 21, 1);
    test = (fun r -> Subs_imm (31, r, 0));
    zero = (fun r -> Movz (r, 0));
    smc_base = 14;
    smc_stub = (fun nr -> Arm.assemble (Arm.li 8 nr @ [ Svc 0; Ret ]));
    store_byte =
      (fun base i v -> List.map (fun x -> A.I x) (Arm.li 9 v) @ [ A.I (Arm.Strb (9, base, i)) ]);
    ud = A.Blob (Bytes.make 4 '\x00') (* zero word: undefined *);
    breakpoint = A.I (Brk 0);
    filler = arm_filler;
    straddle = arm_straddle;
    diverge = (Svc_alias, svc_alias_block);
  }

(** Every shape [isa] realises: the ISA-independent safe mix, then the
    opt-in shapes designed to diverge — the kit's own (P4a's NULL call
    is an x86 trampoline artefact, P3a's alias literal needs a
    fixed-width ISA with in-text literal pools) and execve-scrub. *)
let all_shapes_for isa =
  let own = match isa with K23_isa.Isa.X86_64 -> fst x86.diverge | Arm64 -> fst arm.diverge in
  default_shapes @ [ own; Execve_scrub ]

(* --- shapes -------------------------------------------------------- *)

let raw_block st =
  let one () = raw_syscall_items st in
  if Rng.int st.rng 3 = 0 then begin
    (* bounded counted loop around one syscall *)
    let n = 2 + Rng.int st.rng 4 in
    let lbl = fresh st "loop" in
    let body = one () in
    li st.kit st.kit.counter n
    @ [ Asm.Label lbl ]
    @ body
    @ [ Asm.I st.kit.decrement; Asm.Jc (Insn.NZ, lbl) ]
  end
  else List.concat (List.init (1 + Rng.int st.rng 3) (fun _ -> one ()))

let embedded_block st =
  let fillers = List.concat (List.init (2 + Rng.int st.rng 3) (fun _ -> st.kit.filler st)) in
  (* a raw syscall right after the hazard bytes: a rewriter whose scan
     desynchronised on them would miss or corrupt this site *)
  fillers @ raw_syscall_items st

(* mmap an anonymous RWX page, store a freshly "generated" stub into it
   byte by byte (exercising the store-over-code coherence path), then
   call it — pitfall P2a's late-appearing code as a fuzz shape *)
let smc_block st =
  let k = st.kit in
  let nr = pick st.rng [| Sysno.getpid; Sysno.gettid; Sysno.bench_nonexistent |] in
  note_nr st Sysno.mmap;
  note_nr st nr;
  let stub = k.smc_stub nr in
  syscall k Sysno.mmap [ 0; 4096; 7; 0x20; -1; 0 ]
  @ [ Asm.I (k.asm.mov_rr k.smc_base k.asm.result) ]
  @ List.concat
      (List.init (Bytes.length stub) (fun i -> k.store_byte k.smc_base i (Bytes.get_uint8 stub i)))
  @ [ Asm.I (k.asm.call_reg k.smc_base) ]

(* fork; the parent blocks in wait4 and jumps to [join], the child
   continues at [child] *)
let fork_wait st ~child ~join =
  let k = st.kit in
  syscall k Sysno.fork []
  @ [ Asm.I (k.test k.asm.result); Asm.Jc (Insn.Z, child) ]
  @ syscall k Sysno.wait4 [ -1; 0; 0; 0 ]
  @ [ Asm.J join; Asm.Label child ]

(* the child runs a small body and exits while the parent blocks in
   wait4, so console bytes stay ordered *)
let forky_block st =
  let child = fresh st "child" and join = fresh st "join" in
  note_nr st Sysno.fork;
  note_nr st Sysno.wait4;
  let child_body =
    List.concat (List.init (1 + Rng.int st.rng 2) (fun _ -> raw_syscall_items st))
    @ (if Rng.int st.rng 2 = 0 then write_items st else [])
    @ exit_items st (Rng.int st.rng 32)
  in
  fork_wait st ~child ~join @ child_body @ [ Asm.Label join ]

(* install a handler for a synchronous fault signal, then fault; the
   handler writes a marker and exits — signal delivery, the sigframe
   and handler-issued syscalls all get exercised.  Terminal: nothing
   after this block runs. *)
let sig_block st =
  let handler = fresh st "handler" in
  let signo, trigger =
    if Rng.int st.rng 2 = 0 then (sigill, st.kit.ud) else (sigtrap, st.kit.breakpoint)
  in
  note_nr st Sysno.rt_sigaction;
  let handler_code = write_items st @ exit_items st (32 + Rng.int st.rng 32) in
  st.tail <- st.tail @ [ Asm.Label handler ] @ handler_code;
  let k = st.kit in
  li k k.asm.args.(0) signo
  @ [ Asm.Mov_sym (k.asm.args.(1), handler) ]
  @ syscall k Sysno.rt_sigaction []
  @ [ trigger ]

(* P1a as a shape: fork + execve(helper, argv, envp=NULL).  The
   scrubbed environment drops LD_PRELOAD, so preload-based mechanisms
   lose the child — and seccomp's inherited filter kills it. *)
let exec_child_path = "/bin/fuzz_exec_child"

(* the helper: three ENOSYS calls in a counted loop, then exit 7 *)
let exec_child kit =
  [ Asm.Label "main" ]
  @ li kit kit.counter 3
  @ [ Asm.Label "el" ]
  @ syscall kit Sysno.bench_nonexistent []
  @ [ Asm.I kit.decrement; Asm.Jc (Insn.NZ, "el") ]
  @ syscall kit Sysno.exit_group [ 7 ]

let exec_child_items = exec_child x86

let execve_scrub_block st =
  let child = fresh st "xchild" and join = fresh st "xjoin" in
  let epath = fresh st "epath" and argvv = fresh st "argvv" in
  st.data <- st.data @ [ Asm.Label epath; Asm.Strz exec_child_path; Asm.Align 8; Asm.Label argvv; Asm.Quad 0 ];
  note_nr st Sysno.fork;
  note_nr st Sysno.wait4;
  note_nr st Sysno.execve;
  let k = st.kit in
  let a = k.asm.args in
  fork_wait st ~child ~join
  @ [ Asm.Mov_sym (a.(0), epath); Asm.Mov_sym (a.(1), argvv); Asm.I (k.zero a.(2)) ]
  @ syscall k Sysno.execve []
  (* execve failed: die loudly *)
  @ syscall k Sysno.exit_group [ 9 ]
  @ [ Asm.Label join ]

let block_of_shape st s =
  let diverging, diverge = st.kit.diverge in
  if s = diverging then diverge st
  else
    match s with
    | Raw | Null_call | Svc_alias (* the other ISA's diverging shape has no realisation here *) ->
      raw_block st
    | Embedded -> embedded_block st
    | Straddle -> st.kit.straddle st
    | Smc -> smc_block st
    | Forky -> forky_block st
    | Sigheavy -> sig_block st
    | Execve_scrub -> execve_scrub_block st

(* weights: raw syscalls dominate, structural shapes salt the mix *)
let weight = function
  | Raw -> 5
  | Embedded -> 3
  | Straddle -> 1
  | Smc -> 1
  | Forky -> 1
  | Sigheavy -> 1
  | Null_call -> 2
  | Execve_scrub -> 2
  | Svc_alias -> 2

let pick_shape rng shapes =
  let total = List.fold_left (fun a s -> a + weight s) 0 shapes in
  let roll = Rng.int rng total in
  let rec go acc = function
    | [] -> List.hd shapes
    | s :: rest -> if roll < acc + weight s then s else go (acc + weight s) rest
  in
  go 0 shapes

(* Structure: 1-4 shape blocks, a final exit_group, plus any handler
   code and the data section.  At most one straddle and one terminal
   (signal) block per program; the terminal block, if drawn, goes
   last. *)
let draw kit ~shapes ~wrap rng =
  let st = { kit; rng; uid = 0; data = []; tail = []; used = []; sysnrs = [] } in
  let nblocks = 1 + Rng.int rng 4 in
  let straddled = ref false and terminal = ref false in
  let body = ref [] in
  for _ = 1 to nblocks do
    if not !terminal then begin
      let s = ref (pick_shape rng shapes) in
      if !s = Straddle && !straddled then s := Raw;
      if !s = Straddle then straddled := true;
      if !s = Sigheavy then terminal := true;
      st.used <- st.used @ [ !s ];
      body := !body @ block_of_shape st !s
    end
  done;
  let items =
    [ Asm.Label "main" ]
    @ !body
    @ (if !terminal then [] else exit_items st (Rng.int st.rng 64))
    @ st.tail
    @ (match st.data with [] -> [] | d -> Asm.Section `Data :: d)
  in
  { items = wrap items; shapes = st.used; nrs = List.rev st.sysnrs }

(** Generate one program for [isa].  Same seed, same ISA => the same
    program byte-for-byte.  Both ISAs run one copy of each shape, so a
    seed whose program avoids the per-ISA draws (embedded, straddle,
    the diverging shapes) draws the same logical program on both. *)
let generate ?(shapes = default_shapes) ?(isa = K23_isa.Isa.X86_64) rng =
  match isa with
  | K23_isa.Isa.X86_64 -> draw x86 ~shapes ~wrap:(fun i -> X86 i) rng
  | K23_isa.Isa.Arm64 -> draw arm ~shapes ~wrap:(fun i -> A64 i) rng

(** The execve helper's program for [isa]. *)
let exec_child_for = function
  | K23_isa.Isa.X86_64 -> X86 exec_child_items
  | K23_isa.Isa.Arm64 -> A64 (exec_child arm)

(** Assemble a program with its ISA's assembler. *)
let assemble = function X86 items -> Asm.assemble items | A64 items -> A.assemble items

(* --- coverage accounting ------------------------------------------- *)

let insn_name (i : Insn.t) =
  match i with
  | Nop -> "nop" | Ret -> "ret" | Int3 -> "int3" | Hlt -> "hlt"
  | Syscall -> "syscall" | Sysenter -> "sysenter" | Ud2 -> "ud2" | Cpuid -> "cpuid"
  | Mfence -> "mfence" | Wrpkru -> "wrpkru" | Rdpkru -> "rdpkru" | Vcall _ -> "vcall"
  | Push _ -> "push" | Pop _ -> "pop" | Mov_ri _ -> "mov_ri" | Mov_ri32 _ -> "mov_ri32"
  | Mov_rr _ -> "mov_rr" | Add_rr _ -> "add_rr" | Sub_rr _ -> "sub_rr" | Xor_rr _ -> "xor_rr"
  | Test_rr _ -> "test_rr" | Cmp_rr _ -> "cmp_rr" | Add_ri _ -> "add_ri" | Sub_ri _ -> "sub_ri"
  | Cmp_ri _ -> "cmp_ri" | Load _ -> "load" | Store _ -> "store" | Load8 _ -> "load8"
  | Store8 _ -> "store8" | Lea _ -> "lea" | Jmp_rel _ -> "jmp_rel" | Call_rel _ -> "call_rel"
  | Jcc _ -> "jcc" | Jmp_reg _ -> "jmp_reg" | Call_reg _ -> "call_reg"

(* executable instructions in [items]: a symbol load is [mov_sym]
   instructions, a symbol call or jump [call_sym]; data items count
   zero *)
let count_insns ~mov_sym ~call_sym items =
  List.fold_left
    (fun acc (item : (_, _) Asm.t) ->
      acc
      +
      match item with
      | I _ | J _ | Jc _ | Calll _ | Vcall_named _ -> 1
      | Mov_sym _ -> mov_sym
      | Call_sym _ | Jmp_sym _ -> call_sym
      | Label _ | Blob _ | Zeros _ | Strz _ | Quad _ | Section _ | Align _ -> 0)
    0 items

(** Count the executable instructions of a program's items (pseudo-
    items count as what they assemble to; data items count zero). *)
let insn_count = function
  | X86 items -> count_insns ~mov_sym:1 ~call_sym:2 items
  | A64 items -> count_insns ~mov_sym:2 (* ldr + skip-branch (the pool quad is data) *) ~call_sym:3 items

let add_hist tbl key by =
  Hashtbl.replace tbl key (by + Option.value ~default:0 (Hashtbl.find_opt tbl key))

let arm_insn_name (i : Arm.insn) =
  match i with
  | Svc _ -> "svc" | Bl _ -> "bl" | B _ -> "b" | B_cond _ -> "b_cond" | Br _ -> "br"
  | Blr _ -> "blr" | Ret -> "ret" | Nop -> "nop" | Movz _ -> "movz" | Movk _ -> "movk"
  | Movn _ -> "movn" | Mov_rr _ -> "mov_rr" | Add_imm _ -> "add_imm" | Subs_imm _ -> "subs_imm"
  | Add_rr _ -> "add_rr" | Sub_rr _ -> "sub_rr" | Subs_rr _ -> "subs_rr" | Ldr_lit _ -> "ldr_lit"
  | Ldr _ -> "ldr" | Str _ -> "str" | Ldrb _ -> "ldrb" | Strb _ -> "strb" | Vcall _ -> "vcall"
  | Brk _ -> "brk"

(* count each item under the opcode it assembles to first *)
let hist_items tbl name ~jmp ~jcc ~call ~load items =
  List.iter
    (fun (item : (_, _) Asm.t) ->
      match item with
      | I i -> add_hist tbl (name i) 1
      | J _ -> add_hist tbl jmp 1
      | Jc _ -> add_hist tbl jcc 1
      | Calll _ -> add_hist tbl call 1
      | Mov_sym _ | Call_sym _ | Jmp_sym _ -> add_hist tbl load 1
      | _ -> ())
    items

(** Opcode histogram over programs' items (sorted by name); x86 and
    ARM opcode names never collide, so mixed populations are fine. *)
let insn_histogram progs =
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun p ->
      match p.items with
      | X86 items -> hist_items tbl insn_name ~jmp:"jmp_rel" ~jcc:"jcc" ~call:"call_rel" ~load:"mov_ri" items
      | A64 items -> hist_items tbl arm_insn_name ~jmp:"b" ~jcc:"b_cond" ~call:"bl" ~load:"ldr_lit" items)
    progs;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(** Static syscall-number histogram (sorted by nr). *)
let syscall_histogram progs =
  let tbl = Hashtbl.create 32 in
  List.iter (fun p -> List.iter (fun nr -> add_hist tbl nr 1) p.nrs) progs;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] |> List.sort compare

(* --- instruction generator shared with the round-trip property test - *)

let any_reg rng = Reg.of_index (Rng.int rng 16)
let low_reg rng = Reg.of_index (Rng.int rng 8)
let imm8 rng = Rng.int rng 256 - 128
let disp32 rng = Rng.int rng 0x1_0000_0000 - 0x8000_0000
let imm64 rng = Int64.to_int (Rng.next_int64 rng)  (* any 63-bit OCaml int *)

(** A random instruction over the full ISA with operands drawn from
    each encoding's legal range — the distribution the fuzzer feeds
    the machine and the encode->decode round-trip property tests. *)
let random_insn rng : Insn.t =
  match Rng.int rng 22 with
  | 0 -> ( match Rng.int rng 8 with
    | 0 -> Nop | 1 -> Ret | 2 -> Int3 | 3 -> Hlt | 4 -> Ud2 | 5 -> Cpuid | 6 -> Mfence
    | _ -> if Rng.int rng 2 = 0 then Wrpkru else Rdpkru)
  | 1 -> Syscall
  | 2 -> Sysenter
  | 3 -> Vcall (Rng.int rng 1024)
  | 4 -> Push (any_reg rng)
  | 5 -> Pop (any_reg rng)
  | 6 -> Mov_ri (any_reg rng, if Rng.int rng 2 = 0 then pick rng hazard_imms else imm64 rng)
  | 7 -> Mov_ri32 (low_reg rng, if Rng.int rng 2 = 0 then 0x050f_050f else Rng.int rng 0x1_0000_0000)
  | 8 -> Mov_rr (any_reg rng, any_reg rng)
  | 9 -> Add_rr (any_reg rng, any_reg rng)
  | 10 -> Sub_rr (any_reg rng, any_reg rng)
  | 11 -> Xor_rr (any_reg rng, any_reg rng)
  | 12 -> Test_rr (any_reg rng, any_reg rng)
  | 13 -> Cmp_rr (any_reg rng, any_reg rng)
  | 14 -> ( match Rng.int rng 3 with
    | 0 -> Add_ri (any_reg rng, imm8 rng)
    | 1 -> Sub_ri (any_reg rng, imm8 rng)
    | _ -> Cmp_ri (any_reg rng, imm8 rng))
  | 15 -> Load (any_reg rng, any_reg rng, disp32 rng)
  | 16 -> Store (any_reg rng, disp32 rng, any_reg rng)
  | 17 -> ( match Rng.int rng 2 with
    | 0 -> Load8 (any_reg rng, any_reg rng, disp32 rng)
    | _ -> Store8 (any_reg rng, disp32 rng, any_reg rng))
  | 18 -> Lea (any_reg rng, any_reg rng, disp32 rng)
  | 19 -> ( match Rng.int rng 2 with
    | 0 -> Jmp_rel (disp32 rng)
    | _ -> Call_rel (disp32 rng))
  | 20 ->
    let c : Insn.cond =
      match Rng.int rng 6 with 0 -> Z | 1 -> NZ | 2 -> LT | 3 -> GE | 4 -> LE | _ -> GT
    in
    Jcc (c, disp32 rng)
  | _ -> if Rng.int rng 2 = 0 then Jmp_reg (any_reg rng) else Call_reg (any_reg rng)
