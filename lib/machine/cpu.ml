(** Single-instruction execution engine.

    [step] fetches (through the core's I-cache), decodes and executes
    one instruction, returning either [Stepped] or a [Trapped] outcome
    that the kernel must handle (system calls, host-function escapes,
    faults).  The CPU knows nothing about processes or the kernel. *)

open K23_isa

type trap =
  | Syscall_trap of { site : int; kind : [ `Syscall | `Sysenter | `Svc ] }
      (** [site] is the address of the trapping instruction; rip has
          already been advanced past it (x86 syscall / arm64 svc
          semantics). *)
  | Vcall_trap of int  (** host-function escape; rip advanced *)
  | Fault_trap of Memory.fault  (** rip NOT advanced *)
  | Ud_trap of int  (** undecodable bytes / ud2 at [addr]; rip not advanced *)
  | Int3_trap of int
  | Hlt_trap of int

type outcome = Stepped of int | Trapped of trap * int
(** The [int] is the cycle cost charged for this step. *)

(** Stable short name per trap class; the kernel's ktrace hooks key
    machine-level events and counters on it ("trap.fault", ...). *)
let trap_name = function
  | Syscall_trap _ -> "syscall"
  | Vcall_trap _ -> "vcall"
  | Fault_trap _ -> "fault"
  | Ud_trap _ -> "ud"
  | Int3_trap _ -> "int3"
  | Hlt_trap _ -> "hlt"

let cond_holds (regs : Regs.t) = function
  | Insn.Z -> regs.zf
  | NZ -> not regs.zf
  | LT -> regs.sf
  | GE -> not regs.sf
  | LE -> regs.sf || regs.zf
  | GT -> not (regs.sf || regs.zf)

let set_flags (regs : Regs.t) result =
  regs.zf <- result = 0;
  regs.sf <- result < 0

(* Flags encoded into an int for the r11 <- rflags syscall clobber. *)
let flags_to_int (regs : Regs.t) = (if regs.zf then 0x40 else 0) lor if regs.sf then 0x80 else 0

let step ~cost (regs : Regs.t) (mem : Memory.t) (icache : Icache.t) : outcome =
  let pc = regs.rip in
  match Icache.fetch_decode icache mem pc with
  | exception Memory.Fault f -> Trapped (Fault_trap f, 1)
  | Error `Invalid -> Trapped (Ud_trap pc, 1)
  | Ok (insn, len) -> (
    let c = Cost.insn_cost cost insn in
    let next = pc + len in
    let ok () =
      regs.rip <- next;
      Stepped c
    in
    try
      match insn with
      | Nop ->
        (* fast-forward over nop runs: the page-0 trampoline begins
           with a ~512-byte nop sled, and stepping it one instruction
           at a time would only burn host time — nops are free in the
           cost model and have no architectural effect *)
        regs.rip <- Icache.skip_nops icache mem next;
        Stepped c
      | Ret ->
        let sp = Regs.get regs RSP in
        let ra = Memory.read_u64 mem ~pkru:regs.pkru sp in
        Regs.set regs RSP (sp + 8);
        regs.rip <- ra;
        Stepped c
      | Int3 -> Trapped (Int3_trap pc, c)
      | Hlt -> Trapped (Hlt_trap pc, c)
      | Ud2 -> Trapped (Ud_trap pc, c)
      | Syscall ->
        regs.rip <- next;
        (* x86-64 syscall clobbers: rcx <- next rip, r11 <- rflags.
           K23's trampoline exploits exactly this (Section 6.2.1). *)
        Regs.set regs RCX next;
        Regs.set regs R11 (flags_to_int regs);
        Trapped (Syscall_trap { site = pc; kind = `Syscall }, c)
      | Sysenter ->
        regs.rip <- next;
        Trapped (Syscall_trap { site = pc; kind = `Sysenter }, c)
      | Cpuid ->
        Icache.flush icache;
        Regs.set regs RAX 0;
        Regs.set regs RBX 0;
        Regs.set regs RCX 0;
        Regs.set regs RDX 0;
        ok ()
      | Mfence ->
        Icache.flush icache;
        ok ()
      | Wrpkru ->
        regs.pkru <- Regs.get regs RAX land 0xffff_ffff;
        ok ()
      | Rdpkru ->
        Regs.set regs RAX regs.pkru;
        ok ()
      | Vcall n ->
        regs.rip <- next;
        Trapped (Vcall_trap n, c)
      | Push r ->
        let sp = Regs.get regs RSP - 8 in
        Memory.write_u64 mem ~pkru:regs.pkru sp (Regs.get regs r);
        Icache.invalidate_range icache ~addr:sp ~len:8;
        Regs.set regs RSP sp;
        ok ()
      | Pop r ->
        let sp = Regs.get regs RSP in
        Regs.set regs r (Memory.read_u64 mem ~pkru:regs.pkru sp);
        Regs.set regs RSP (sp + 8);
        ok ()
      | Mov_ri (r, v) ->
        Regs.set regs r v;
        ok ()
      | Mov_ri32 (r, v) ->
        Regs.set regs r (v land 0xffff_ffff);
        ok ()
      | Mov_rr (d, s) ->
        Regs.set regs d (Regs.get regs s);
        ok ()
      | Add_rr (d, s) ->
        let v = Regs.get regs d + Regs.get regs s in
        Regs.set regs d v;
        set_flags regs v;
        ok ()
      | Sub_rr (d, s) ->
        let v = Regs.get regs d - Regs.get regs s in
        Regs.set regs d v;
        set_flags regs v;
        ok ()
      | Xor_rr (d, s) ->
        let v = Regs.get regs d lxor Regs.get regs s in
        Regs.set regs d v;
        set_flags regs v;
        ok ()
      | Test_rr (a, b) ->
        set_flags regs (Regs.get regs a land Regs.get regs b);
        ok ()
      | Cmp_rr (a, b) ->
        set_flags regs (Regs.get regs a - Regs.get regs b);
        ok ()
      | Add_ri (r, v) ->
        let v' = Regs.get regs r + v in
        Regs.set regs r v';
        set_flags regs v';
        ok ()
      | Sub_ri (r, v) ->
        let v' = Regs.get regs r - v in
        Regs.set regs r v';
        set_flags regs v';
        ok ()
      | Cmp_ri (r, v) ->
        set_flags regs (Regs.get regs r - v);
        ok ()
      | Load (d, b, o) ->
        Regs.set regs d (Memory.read_u64 mem ~pkru:regs.pkru (Regs.get regs b + o));
        ok ()
      | Store (b, o, s) ->
        let addr = Regs.get regs b + o in
        Memory.write_u64 mem ~pkru:regs.pkru addr (Regs.get regs s);
        Icache.invalidate_range icache ~addr ~len:8;
        ok ()
      | Load8 (d, b, o) ->
        Regs.set regs d (Memory.read_u8 mem ~pkru:regs.pkru (Regs.get regs b + o));
        ok ()
      | Store8 (b, o, s) ->
        let addr = Regs.get regs b + o in
        Memory.write_u8 mem ~pkru:regs.pkru addr (Regs.get regs s land 0xff);
        Icache.invalidate_range icache ~addr ~len:1;
        ok ()
      | Lea (d, b, o) ->
        Regs.set regs d (Regs.get regs b + o);
        ok ()
      | Jmp_rel d ->
        regs.rip <- next + d;
        Stepped c
      | Call_rel d ->
        let sp = Regs.get regs RSP - 8 in
        Memory.write_u64 mem ~pkru:regs.pkru sp next;
        Icache.invalidate_range icache ~addr:sp ~len:8;
        Regs.set regs RSP sp;
        regs.rip <- next + d;
        Stepped c
      | Jcc (cnd, d) ->
        regs.rip <- (if cond_holds regs cnd then next + d else next);
        Stepped c
      | Jmp_reg r ->
        regs.rip <- Regs.get regs r;
        Stepped c
      | Call_reg r ->
        let sp = Regs.get regs RSP - 8 in
        Memory.write_u64 mem ~pkru:regs.pkru sp next;
        Icache.invalidate_range icache ~addr:sp ~len:8;
        Regs.set regs RSP sp;
        regs.rip <- Regs.get regs r;
        Stepped c
    with Memory.Fault f -> Trapped (Fault_trap f, c))

(** One AArch64 instruction: fixed-width aligned word fetch through
    the I-cache, then direct execution.  No predecode memo — decoding
    a word is a single mask-compare chain, and skipping the memo keeps
    ARM lines byte-only (their lifetime semantics are identical).

    Differences from the x86 step that matter to interposition:
    [svc] clobbers {e nothing} (no rcx/r11 analogue — an ARM
    trampoline can forward a syscall without any register surgery),
    and calls link in x30 rather than pushing to the stack. *)
let step_arm ~cost (regs : Regs.t) (mem : Memory.t) (icache : Icache.t) : outcome =
  let pc = regs.rip in
  if pc land 3 <> 0 then Trapped (Ud_trap pc, 1)
  else
    match Icache.fetch_u32 icache mem pc with
    | exception Memory.Fault f -> Trapped (Fault_trap f, 1)
    | word -> (
      match K23_isa_arm.Arm.decode word with
      | None -> Trapped (Ud_trap pc, 1)
      | Some insn -> (
        let open K23_isa_arm.Arm in
        let c = match insn with Nop -> cost.Cost.nop | _ -> cost.Cost.insn in
        let next = pc + 4 in
        let ok () =
          regs.rip <- next;
          Stepped c
        in
        let g i = Regs.geti regs i in
        let s i v = Regs.seti regs i v in
        try
          match insn with
          | Nop -> ok ()
          | Svc _ ->
            regs.rip <- next;
            Trapped (Syscall_trap { site = pc; kind = `Svc }, c)
          | Vcall n ->
            regs.rip <- next;
            Trapped (Vcall_trap n, c)
          | Brk _ -> Trapped (Int3_trap pc, c)
          | Bl off ->
            s 30 next;
            regs.rip <- pc + (4 * off);
            Stepped c
          | B off ->
            regs.rip <- pc + (4 * off);
            Stepped c
          | B_cond (cnd, off) ->
            regs.rip <- (if cond_holds regs cnd then pc + (4 * off) else next);
            Stepped c
          | Br rn ->
            regs.rip <- g rn;
            Stepped c
          | Blr rn ->
            let t = g rn in
            s 30 next;
            regs.rip <- t;
            Stepped c
          | Ret ->
            regs.rip <- g 30;
            Stepped c
          | Movz (rd, imm) ->
            s rd imm;
            ok ()
          | Movk (rd, imm, hw) ->
            let sh = 16 * hw in
            s rd ((g rd land lnot (0xffff lsl sh)) lor (imm lsl sh));
            ok ()
          | Movn (rd, imm, hw) ->
            s rd (lnot (imm lsl (16 * hw)));
            ok ()
          | Mov_rr (rd, rm) ->
            s rd (g rm);
            ok ()
          | Add_imm (rd, rn, imm) ->
            s rd (g rn + imm);
            ok ()
          | Subs_imm (rd, rn, imm) ->
            let v = g rn - imm in
            if rd <> 31 then s rd v;
            set_flags regs v;
            ok ()
          | Add_rr (rd, rn, rm) ->
            s rd (g rn + g rm);
            ok ()
          | Sub_rr (rd, rn, rm) ->
            s rd (g rn - g rm);
            ok ()
          | Subs_rr (rd, rn, rm) ->
            let v = g rn - g rm in
            if rd <> 31 then s rd v;
            set_flags regs v;
            ok ()
          | Ldr_lit (rd, off) ->
            s rd (Memory.read_u64 mem ~pkru:regs.pkru (pc + (4 * off)));
            ok ()
          | Ldr (rt, rn, imm) ->
            s rt (Memory.read_u64 mem ~pkru:regs.pkru (g rn + imm));
            ok ()
          | Str (rt, rn, imm) ->
            let addr = g rn + imm in
            Memory.write_u64 mem ~pkru:regs.pkru addr (g rt);
            Icache.invalidate_range icache ~addr ~len:8;
            ok ()
          | Ldrb (rt, rn, imm) ->
            s rt (Memory.read_u8 mem ~pkru:regs.pkru (g rn + imm));
            ok ()
          | Strb (rt, rn, imm) ->
            let addr = g rn + imm in
            Memory.write_u8 mem ~pkru:regs.pkru addr (g rt land 0xff);
            Icache.invalidate_range icache ~addr ~len:1;
            ok ()
        with Memory.Fault f -> Trapped (Fault_trap f, c)))
