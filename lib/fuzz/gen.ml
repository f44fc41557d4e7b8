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
    environment) exist but are opt-in ({!unsafe_shapes}) — they are
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
let unsafe_shapes = [ Null_call; Execve_scrub ]
let all_shapes = default_shapes @ unsafe_shapes

(* the safe mix is ISA-independent (each shape has a per-ISA
   realisation); the designed-to-diverge shapes differ: P4a's NULL
   call is an x86 trampoline artefact, P3a's alias literal needs a
   fixed-width ISA with in-text literal pools *)
let unsafe_shapes_for = function
  | K23_isa.Isa.X86_64 -> unsafe_shapes
  | K23_isa.Isa.Arm64 -> [ Svc_alias; Execve_scrub ]

let all_shapes_for isa = default_shapes @ unsafe_shapes_for isa

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

(* Scratch registers safe across raw syscalls: not argument registers,
   not RAX (result), not RCX/R11 (clobbered by the syscall
   instruction), not R13 (loop counter). *)
let scratch = [| Reg.RBX; R12; R14; R15 |]

let pick rng arr = arr.(Rng.int rng (Array.length arr))
let pick_l rng l = List.nth l (Rng.int rng (List.length l))

(* Immediates whose little-endian bytes contain the interposition-
   relevant patterns: 0f 05 (syscall), 0f 34 (sysenter), ff d0
   (callq *rax).  A linear sweep that stays in sync never treats these
   as instruction starts; a desynchronised or byte-scanning rewriter
   would (P2a/P3a). *)
let hazard_imms =
  [| 0x050f; 0x340f; 0xd0ff; 0x050f_050f; 0x050f_340f; 0x90d0_ff05_0f90; 0x0f05_050f_340f |]

let boundary_args = [| 0; 1; -1; 4095; 4096; 4097; max_int; min_int; 0xdeadbeef |]

let sigill = 4
let sigtrap = 5

(* one raw syscall: load the six argument registers (as needed), load
   RAX, execute SYSCALL or SYSENTER *)
let trap_insn rng = if Rng.int rng 4 = 0 then Insn.Sysenter else Insn.Syscall

(* one generator state for both ISAs; labels must be unique per
   program *)
type ('insn, 'reg) st = {
  rng : Rng.t;
  mutable uid : int;
  mutable data : ('insn, 'reg) Asm.t list;  (** accumulated data-section items *)
  mutable tail : ('insn, 'reg) Asm.t list;  (** code placed after the epilogue *)
  mutable used : shape list;
  mutable sysnrs : int list;
}

let fresh st prefix =
  st.uid <- st.uid + 1;
  Printf.sprintf "%s%d" prefix st.uid

let note_nr st nr = st.sysnrs <- nr :: st.sysnrs

let exit_items st code =
  note_nr st Sysno.exit_group;
  [ Asm.I (Insn.Mov_ri (RDI, code)); Asm.I (Insn.Mov_ri (RAX, Sysno.exit_group)); Asm.I Insn.Syscall ]

(* a console write of a fresh short message; the bytes land in the
   shared console buffer and are part of the oracle's comparison *)
let write_items st =
  let lbl = fresh st "m" in
  let len = 1 + Rng.int st.rng 8 in
  let msg = String.init len (fun _ -> Char.chr (Char.code 'a' + Rng.int st.rng 26)) in
  st.data <- st.data @ [ Asm.Label lbl; Asm.Strz msg ];
  note_nr st Sysno.write;
  [
    Asm.I (Insn.Mov_ri (RDI, 1));
    Asm.Mov_sym (Reg.RSI, lbl);
    Asm.I (Insn.Mov_ri (RDX, len));
    Asm.I (Insn.Mov_ri (RAX, Sysno.write));
    Asm.I (trap_insn st.rng);
  ]

let raw_syscall_items st =
  match Rng.int st.rng 6 with
  | 0 ->
    note_nr st Sysno.getpid;
    [ Asm.I (Insn.Mov_ri (RAX, Sysno.getpid)); Asm.I (trap_insn st.rng) ]
  | 1 ->
    note_nr st Sysno.gettid;
    [ Asm.I (Insn.Mov_ri (RAX, Sysno.gettid)); Asm.I (trap_insn st.rng) ]
  | 2 ->
    (* the non-existent syscall with boundary arguments: the kernel
       answers -ENOSYS whatever the registers hold, so wild values are
       conformance-safe while stressing argument plumbing *)
    note_nr st Sysno.bench_nonexistent;
    [
      Asm.I (Insn.Mov_ri (RDI, pick st.rng boundary_args));
      Asm.I (Insn.Mov_ri (RSI, pick st.rng boundary_args));
      Asm.I (Insn.Mov_ri (RDX, pick st.rng boundary_args));
      Asm.I (Insn.Mov_ri (R10, pick st.rng boundary_args));
      Asm.I (Insn.Mov_ri (R8, pick st.rng boundary_args));
      Asm.I (Insn.Mov_ri (R9, pick st.rng boundary_args));
      Asm.I (Insn.Mov_ri (RAX, Sysno.bench_nonexistent));
      Asm.I (trap_insn st.rng);
    ]
  | 3 ->
    note_nr st Sysno.brk;
    [ Asm.I (Insn.Mov_ri (RDI, 0)); Asm.I (Insn.Mov_ri (RAX, Sysno.brk)); Asm.I (trap_insn st.rng) ]
  | 4 ->
    note_nr st Sysno.close;
    [
      Asm.I (Insn.Mov_ri (RDI, 99 + Rng.int st.rng 100));
      Asm.I (Insn.Mov_ri (RAX, Sysno.close));
      Asm.I (trap_insn st.rng);
    ]
  | _ -> write_items st

(* executed filler with hazard bytes in the immediates; the registers
   written are scratch, so the values never escape *)
let embedded_filler st =
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

(* --- shapes -------------------------------------------------------- *)

let raw_block st =
  let one () = raw_syscall_items st in
  if Rng.int st.rng 3 = 0 then begin
    (* bounded counted loop around one syscall (R13 is reserved) *)
    let n = 2 + Rng.int st.rng 4 in
    let lbl = fresh st "loop" in
    let body = one () in
    [ Asm.I (Insn.Mov_ri (R13, n)); Asm.Label lbl ]
    @ body
    @ [ Asm.I (Insn.Sub_ri (R13, 1)); Asm.Jc (Insn.NZ, lbl) ]
  end
  else
    List.concat (List.init (1 + Rng.int st.rng 3) (fun _ -> one ()))

let embedded_block st =
  let fillers = List.concat (List.init (2 + Rng.int st.rng 3) (fun _ -> embedded_filler st)) in
  (* a raw syscall right after the hazard bytes: a rewriter whose scan
     desynchronised on them would miss or corrupt this site *)
  fillers @ raw_syscall_items st

(* place a long instruction (or a SYSCALL) across a page boundary of
   the app's text.  App text is mapped at a fixed page-aligned base, so
   an [Align 4096] inside the image is a runtime page boundary. *)
let straddle_block st =
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

(* mmap an anonymous RWX page, store a freshly "generated" stub into it
   byte by byte (exercising the store-over-code coherence path), then
   call it — pitfall P2a's late-appearing code as a fuzz shape *)
let smc_block st =
  let nr = pick_l st.rng [ Sysno.getpid; Sysno.gettid; Sysno.bench_nonexistent ] in
  note_nr st Sysno.mmap;
  note_nr st nr;
  let stub = Encode.assemble [ Mov_ri32 (RAX, nr); Syscall; Ret ] in
  let stores = ref [] in
  Bytes.iteri
    (fun i c ->
      stores :=
        !stores
        @ [ Asm.I (Insn.Mov_ri (RBX, Char.code c)); Asm.I (Insn.Store8 (R14, i, RBX)) ])
    stub;
  [
    Asm.I (Insn.Mov_ri (RDI, 0));
    Asm.I (Insn.Mov_ri (RSI, 4096));
    Asm.I (Insn.Mov_ri (RDX, 7));
    Asm.I (Insn.Mov_ri (R10, 0x20));
    Asm.I (Insn.Mov_ri (R8, -1));
    Asm.I (Insn.Mov_ri (R9, 0));
    Asm.I (Insn.Mov_ri (RAX, Sysno.mmap));
    Asm.I Insn.Syscall;
    Asm.I (Insn.Mov_rr (R14, RAX));
  ]
  @ !stores
  @ [ Asm.I (Insn.Call_reg R14) ]

(* fork; the child runs a small body and exits, the parent blocks in
   wait4 before continuing — so console bytes stay ordered *)
let forky_block st =
  let child = fresh st "child" and join = fresh st "join" in
  note_nr st Sysno.fork;
  note_nr st Sysno.wait4;
  let child_body =
    List.concat (List.init (1 + Rng.int st.rng 2) (fun _ -> raw_syscall_items st))
    @ (if Rng.int st.rng 2 = 0 then write_items st else [])
    @ exit_items st (Rng.int st.rng 32)
  in
  [
    Asm.I (Insn.Mov_ri (RAX, Sysno.fork));
    Asm.I Insn.Syscall;
    Asm.I (Insn.Test_rr (RAX, RAX));
    Asm.Jc (Insn.Z, child);
    Asm.I (Insn.Mov_ri (RDI, -1));
    Asm.I (Insn.Mov_ri (RSI, 0));
    Asm.I (Insn.Mov_ri (RDX, 0));
    Asm.I (Insn.Mov_ri (R10, 0));
    Asm.I (Insn.Mov_ri (RAX, Sysno.wait4));
    Asm.I Insn.Syscall;
    Asm.J join;
    Asm.Label child;
  ]
  @ child_body
  @ [ Asm.Label join ]

(* install a handler for a synchronous fault signal, then fault; the
   handler writes a marker and exits — signal delivery, the sigframe
   and handler-issued syscalls all get exercised.  Terminal: nothing
   after this block runs. *)
let sig_block st =
  let handler = fresh st "handler" in
  let signo, trigger = if Rng.int st.rng 2 = 0 then (sigill, Asm.I Insn.Ud2) else (sigtrap, Asm.I Insn.Int3) in
  note_nr st Sysno.rt_sigaction;
  let handler_code = write_items st @ exit_items st (32 + Rng.int st.rng 32) in
  st.tail <- st.tail @ [ Asm.Label handler ] @ handler_code;
  [
    Asm.I (Insn.Mov_ri (RDI, signo));
    Asm.Mov_sym (Reg.RSI, handler);
    Asm.I (Insn.Mov_ri (RAX, Sysno.rt_sigaction));
    Asm.I Insn.Syscall;
    trigger;
  ]

(* P4a as a shape: call *rax with rax = 0.  Natively this is a fatal
   jump to an unmapped page; a rewriting interposer without the NULL
   check silently slides down its page-0 trampoline and "returns" from
   a syscall the program never made.  RDI is parked on a dead fd so
   the misdirected read(2) fails fast instead of blocking. *)
let null_call_block _st =
  [
    Asm.I (Insn.Mov_ri (RDI, 199));
    Asm.I (Insn.Xor_rr (RAX, RAX));
    Asm.I (Insn.Call_reg RAX);
  ]

(* P1a as a shape: fork + execve(helper, argv, envp=NULL).  The
   scrubbed environment drops LD_PRELOAD, so preload-based mechanisms
   lose the child — and seccomp's inherited filter kills it. *)
let exec_child_path = "/bin/fuzz_exec_child"

let exec_child_items =
  [
    Asm.Label "main";
    Asm.I (Insn.Mov_ri (R13, 3));
    Asm.Label "el";
    Asm.I (Insn.Mov_ri (RAX, Sysno.bench_nonexistent));
    Asm.I Insn.Syscall;
    Asm.I (Insn.Sub_ri (R13, 1));
    Asm.Jc (Insn.NZ, "el");
    Asm.I (Insn.Mov_ri (RDI, 7));
    Asm.I (Insn.Mov_ri (RAX, Sysno.exit_group));
    Asm.I Insn.Syscall;
  ]

let execve_scrub_block st =
  let child = fresh st "xchild" and join = fresh st "xjoin" in
  let epath = fresh st "epath" and argvv = fresh st "argvv" in
  st.data <- st.data @ [ Asm.Label epath; Asm.Strz exec_child_path; Asm.Align 8; Asm.Label argvv; Asm.Quad 0 ];
  note_nr st Sysno.fork;
  note_nr st Sysno.wait4;
  note_nr st Sysno.execve;
  [
    Asm.I (Insn.Mov_ri (RAX, Sysno.fork));
    Asm.I Insn.Syscall;
    Asm.I (Insn.Test_rr (RAX, RAX));
    Asm.Jc (Insn.Z, child);
    Asm.I (Insn.Mov_ri (RDI, -1));
    Asm.I (Insn.Mov_ri (RSI, 0));
    Asm.I (Insn.Mov_ri (RDX, 0));
    Asm.I (Insn.Mov_ri (R10, 0));
    Asm.I (Insn.Mov_ri (RAX, Sysno.wait4));
    Asm.I Insn.Syscall;
    Asm.J join;
    Asm.Label child;
    Asm.Mov_sym (Reg.RDI, epath);
    Asm.Mov_sym (Reg.RSI, argvv);
    Asm.I (Insn.Xor_rr (RDX, RDX));
    Asm.I (Insn.Mov_ri (RAX, Sysno.execve));
    Asm.I Insn.Syscall;
    (* execve failed: die loudly *)
    Asm.I (Insn.Mov_ri (RDI, 9));
    Asm.I (Insn.Mov_ri (RAX, Sysno.exit_group));
    Asm.I Insn.Syscall;
    Asm.Label join;
  ]

let block_of_shape st = function
  | Raw | Svc_alias (* no x86 realisation: alias literals need fixed width *) -> raw_block st
  | Embedded -> embedded_block st
  | Straddle -> straddle_block st
  | Smc -> smc_block st
  | Forky -> forky_block st
  | Sigheavy -> sig_block st
  | Null_call -> null_call_block st
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

(* --- the AArch64 generator ----------------------------------------- *)

(* The same shape mix realised in the fixed-width ISA.  Register
   discipline mirrors x86: x0-x5 are syscall arguments, x8 the number,
   x0 the (dirty) result; x16/x17 are the assembler's literal-pool
   scratch, x19/x20 the loader's dispatch cell and x30 the link
   register — all avoided.  General scratch is x9-x15, the loop
   counter x21.  [svc] clobbers nothing, so unlike x86 no register
   needs reloading across a syscall. *)

module A = K23_isa_arm.Asm_arm
module Arm = K23_isa_arm.Arm

let ascratch = [| 9; 10; 11; 12; 13; 15 |]
let li rd v = List.map (fun i -> A.I i) (Arm.li rd v)
let svc st = A.I (Arm.Svc (Rng.int st.rng 8))

(* an executable sled of [nwords] nops (Blob keeps the item count and
   therefore the page-offset arithmetic exact) *)
let nop_pad nwords =
  let w = Arm.bytes_of_word (Arm.encode Arm.Nop) in
  let b = Bytes.create (4 * nwords) in
  for i = 0 to nwords - 1 do
    Bytes.blit w 0 b (4 * i) 4
  done;
  A.Blob b

let exit_items_arm st code =
  note_nr st Sysno.exit_group;
  li 0 code @ li 8 Sysno.exit_group @ [ A.I (Arm.Svc 0) ]

let write_msg_arm st msg =
  let lbl = fresh st "m" in
  st.data <- st.data @ [ A.Label lbl; A.Strz msg ];
  note_nr st Sysno.write;
  li 0 1 @ [ A.Mov_sym (1, lbl) ] @ li 2 (String.length msg) @ li 8 Sysno.write @ [ svc st ]

let write_items_arm st =
  let len = 1 + Rng.int st.rng 8 in
  let msg = String.init len (fun _ -> Char.chr (Char.code 'a' + Rng.int st.rng 26)) in
  write_msg_arm st msg

let raw_syscall_items_arm st =
  match Rng.int st.rng 6 with
  | 0 ->
    note_nr st Sysno.getpid;
    li 8 Sysno.getpid @ [ svc st ]
  | 1 ->
    note_nr st Sysno.gettid;
    li 8 Sysno.gettid @ [ svc st ]
  | 2 ->
    (* -ENOSYS whatever the registers hold; [Arm.li] materialises any
       OCaml int exactly (movz/movk field reassembly), so the x86
       boundary values carry over unchanged *)
    note_nr st Sysno.bench_nonexistent;
    List.concat (List.init 6 (fun i -> li i (pick st.rng boundary_args)))
    @ li 8 Sysno.bench_nonexistent
    @ [ svc st ]
  | 3 ->
    note_nr st Sysno.brk;
    li 0 0 @ li 8 Sysno.brk @ [ svc st ]
  | 4 ->
    note_nr st Sysno.close;
    li 0 (99 + Rng.int st.rng 100) @ li 8 Sysno.close @ [ svc st ]
  | _ -> write_items_arm st

(* immediates and register values that contain the [svc] word pattern:
   split across movz/movk 16-bit fields or materialised whole.  An
   aligned sweep never treats them as sites; only in-text {e data}
   words can alias (the [Svc_alias] shape). *)
let embedded_filler_arm st =
  let r = pick st.rng ascratch in
  let alias = Arm.encode (Arm.Svc (Rng.int st.rng 0x10000)) in
  match Rng.int st.rng 4 with
  | 0 -> [ A.I (Arm.Movz (r, alias land 0xffff)) ]
  | 1 -> li r alias
  | 2 ->
    let r2 = pick st.rng ascratch in
    li r alias @ [ A.I (Arm.Add_rr (r, r, r2)) ]
  | _ -> [ A.I (Arm.Movz (r, alias land 0xffff)); A.I (Arm.Movk (r, (alias lsr 16) land 0xffff, 1)) ]

let raw_block_arm st =
  let one () = raw_syscall_items_arm st in
  if Rng.int st.rng 3 = 0 then begin
    (* bounded counted loop around one syscall (x21 is reserved) *)
    let n = 2 + Rng.int st.rng 4 in
    let lbl = fresh st "loop" in
    let body = one () in
    li 21 n @ [ A.Label lbl ] @ body
    @ [ A.I (Arm.Subs_imm (21, 21, 1)); A.Jc (Insn.NZ, lbl) ]
  end
  else List.concat (List.init (1 + Rng.int st.rng 3) (fun _ -> one ()))

let embedded_block_arm st =
  let fillers = List.concat (List.init (2 + Rng.int st.rng 3) (fun _ -> embedded_filler_arm st)) in
  fillers @ raw_syscall_items_arm st

(* no instruction can straddle a page on a fixed-width ISA; the shape
   instead parks genuine [svc] sites on both edges of a page boundary,
   where a patcher's permission and barrier handling must span pages *)
let straddle_block_arm st =
  note_nr st Sysno.getpid;
  if Rng.int st.rng 2 = 0 then
    (* svc in the last word of a page *)
    li 8 Sysno.getpid @ [ A.Align 4096; nop_pad 1023; A.I (Arm.Svc 0) ]
  else begin
    (* back-to-back sites bracketing the boundary: last word of one
       page, first word of the next (x8 survives the first svc) *)
    note_nr st Sysno.getpid;
    li 8 Sysno.getpid @ [ A.Align 4096; nop_pad 1023; A.I (Arm.Svc 0); A.I (Arm.Svc 1) ]
  end

let smc_block_arm st =
  let nr = pick_l st.rng [ Sysno.getpid; Sysno.gettid; Sysno.bench_nonexistent ] in
  note_nr st Sysno.mmap;
  note_nr st nr;
  let stub = Arm.assemble (Arm.li 8 nr @ [ Arm.Svc 0; Arm.Ret ]) in
  let stores = ref [] in
  Bytes.iteri
    (fun i c -> stores := !stores @ li 9 (Char.code c) @ [ A.I (Arm.Strb (9, 14, i)) ])
    stub;
  li 0 0 @ li 1 4096 @ li 2 7 @ li 3 0x20 @ li 4 (-1) @ li 5 0 @ li 8 Sysno.mmap
  @ [ A.I (Arm.Svc 0); A.I (Arm.Mov_rr (14, 0)) ]
  @ !stores
  @ [ A.I (Arm.Blr 14) ]

let forky_block_arm st =
  let child = fresh st "child" and join = fresh st "join" in
  note_nr st Sysno.fork;
  note_nr st Sysno.wait4;
  let child_body =
    List.concat (List.init (1 + Rng.int st.rng 2) (fun _ -> raw_syscall_items_arm st))
    @ (if Rng.int st.rng 2 = 0 then write_items_arm st else [])
    @ exit_items_arm st (Rng.int st.rng 32)
  in
  li 8 Sysno.fork
  @ [ A.I (Arm.Svc 0); A.I (Arm.Subs_imm (31, 0, 0)); A.Jc (Insn.Z, child) ]
  @ li 0 (-1) @ li 1 0 @ li 2 0 @ li 3 0 @ li 8 Sysno.wait4
  @ [ A.I (Arm.Svc 0); A.J join; A.Label child ]
  @ child_body
  @ [ A.Label join ]

let sig_block_arm st =
  let handler = fresh st "handler" in
  let signo, trigger =
    if Rng.int st.rng 2 = 0 then (sigill, A.Blob (Bytes.make 4 '\x00')) (* zero word: undefined *)
    else (sigtrap, A.I (Arm.Brk 0))
  in
  note_nr st Sysno.rt_sigaction;
  let handler_code = write_items_arm st @ exit_items_arm st (32 + Rng.int st.rng 32) in
  st.tail <- st.tail @ [ A.Label handler ] @ handler_code;
  li 0 signo @ [ A.Mov_sym (1, handler) ] @ li 8 Sysno.rt_sigaction @ [ A.I (Arm.Svc 0); trigger ]

(* P3a as a shape: a literal-pool word whose value aliases the [svc]
   encoding, read back and compared.  An exact aligned sweep cannot
   tell it from code, so ASC-Hook patches it and the program observes
   the rewrite — native and rewriting runs diverge by design. *)
let svc_alias_block st =
  let cont = fresh st "cont" and patched = fresh st "patched" and fin = fresh st "fin" in
  let alias = Arm.encode (Arm.Svc (1 + Rng.int st.rng 0x7fff)) in
  [ A.I (Arm.Ldr_lit (9, 2)) (* x9 := the quad two words below *); A.J cont; A.Quad alias; A.Label cont ]
  @ li 10 alias
  @ [ A.I (Arm.Subs_rr (31, 9, 10)); A.Jc (Insn.NZ, patched) ]
  @ write_msg_arm st "literal-intact"
  @ [ A.J fin; A.Label patched ]
  @ write_msg_arm st "literal-PATCHED"
  @ [ A.Label fin ]

let exec_child_items_arm =
  [ A.Label "main" ]
  @ li 21 3
  @ [ A.Label "el" ]
  @ li 8 Sysno.bench_nonexistent
  @ [ A.I (Arm.Svc 0); A.I (Arm.Subs_imm (21, 21, 1)); A.Jc (Insn.NZ, "el") ]
  @ li 0 7 @ li 8 Sysno.exit_group
  @ [ A.I (Arm.Svc 0) ]

let execve_scrub_block_arm st =
  let child = fresh st "xchild" and join = fresh st "xjoin" in
  let epath = fresh st "epath" and argvv = fresh st "argvv" in
  st.data <-
    st.data @ [ A.Label epath; A.Strz exec_child_path; A.Align 8; A.Label argvv; A.Quad 0 ];
  note_nr st Sysno.fork;
  note_nr st Sysno.wait4;
  note_nr st Sysno.execve;
  li 8 Sysno.fork
  @ [ A.I (Arm.Svc 0); A.I (Arm.Subs_imm (31, 0, 0)); A.Jc (Insn.Z, child) ]
  @ li 0 (-1) @ li 1 0 @ li 2 0 @ li 3 0 @ li 8 Sysno.wait4
  @ [ A.I (Arm.Svc 0); A.J join; A.Label child; A.Mov_sym (0, epath); A.Mov_sym (1, argvv) ]
  @ li 2 0 @ li 8 Sysno.execve
  @ [ A.I (Arm.Svc 0) ]
  (* execve failed: die loudly *)
  @ li 0 9 @ li 8 Sysno.exit_group
  @ [ A.I (Arm.Svc 0); A.Label join ]

let block_of_shape_arm st = function
  | Raw | Null_call (* no ARM realisation: NULL-call misdirection is an x86 trampoline artefact *) ->
    raw_block_arm st
  | Embedded -> embedded_block_arm st
  | Straddle -> straddle_block_arm st
  | Smc -> smc_block_arm st
  | Forky -> forky_block_arm st
  | Sigheavy -> sig_block_arm st
  | Svc_alias -> svc_alias_block st
  | Execve_scrub -> execve_scrub_block_arm st

(* Structure: 1-4 shape blocks, a final exit_group, plus any handler
   code and the data section.  At most one straddle and one terminal
   (signal) block per program; the terminal block, if drawn, goes
   last.  Both ISAs share this loop, so they draw the rng in the same
   order. *)
let draw ~shapes ~block_of_shape ~exit_items ~wrap rng =
  let st = { rng; uid = 0; data = []; tail = []; used = []; sysnrs = [] } in
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
    program byte-for-byte; the two ISAs draw from the rng in different
    orders and are unrelated streams. *)
let generate ?(shapes = default_shapes) ?(isa = K23_isa.Isa.X86_64) rng =
  match isa with
  | K23_isa.Isa.X86_64 -> draw ~shapes ~block_of_shape ~exit_items ~wrap:(fun i -> X86 i) rng
  | K23_isa.Isa.Arm64 ->
    draw ~shapes ~block_of_shape:block_of_shape_arm ~exit_items:exit_items_arm ~wrap:(fun i -> A64 i) rng

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
