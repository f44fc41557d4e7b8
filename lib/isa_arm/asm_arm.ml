(** The AArch64 backend of {!K23_isa.Asm}: the shared item vocabulary
    and layout, with fixed-width encodings.

    The interesting difference is symbol addressing: x86 materialises
    absolute addresses with [mov r64, imm64] (a 10-byte instruction
    holding the 8-byte reloc slot {e inside} the instruction), while
    AArch64 has no 64-bit-immediate move — the idiomatic lowering is a
    pc-relative literal load.  [Mov_sym]/[Call_sym]/[Jmp_sym] therefore
    emit an inline literal pool:

    {v
      ldr  xN, [pc, #8]      ; load the 8-byte literal
      b    +16               ; skip over it
      .quad <reloc slot>     ; patched by the loader (R_AARCH64_ABS64)
      (blr/br x17)           ; Call_sym / Jmp_sym only
    v}

    which means {b data words live in executable text} — the authentic
    AArch64 property that keeps pitfall P3a alive on a fixed-width ISA
    (a literal whose value aliases the [svc] encoding is
    indistinguishable from code to any sweep). *)

open K23_isa

type ('insn, 'reg) t = ('insn, 'reg) Asm.t =
  | I of 'insn | Label of string | Blob of bytes | Zeros of int | Strz of string | Quad of int
  | J of string | Jc of Insn.cond * string | Calll of string | Call_sym of string
  | Jmp_sym of string | Mov_sym of 'reg * string | Vcall_named of string
  | Section of Asm.section | Align of int

type item = (Arm.insn, int) t
(** An AArch64 item; registers are flat indices 0..31. *)

let word buf here w = Bytes.set_int32_le buf here (Int32.of_int w)

let emit buf sec here insn =
  if sec = `Text && here land 3 <> 0 then
    Asm.err "arm insn at unaligned text offset %#x (%s)" here (Arm.to_string insn);
  word buf here (Arm.encode insn)

(* word displacement from the branch instruction itself (AArch64
   branches are pc-of-insn-relative, unlike x86's end-relative) *)
let rel name here target =
  if (target - here) land 3 <> 0 then Asm.err "unaligned branch target %S" name;
  (target - here) asr 2

(* ldr xN, [pc, #8] ; b +16 ; the 8-byte slot *)
let load_literal buf sec here rd =
  emit buf sec here (Arm.Ldr_lit (rd, 2));
  emit buf sec (here + 4) (Arm.B 3)

let nop = Arm.encode Arm.Nop

let backend : (Arm.insn, int) Asm.backend =
  {
    size =
      (function
      | I _ | J _ | Jc _ | Calll _ | Vcall_named _ -> 4
      | Call_sym _ | Jmp_sym _ -> 20 (* ldr x17,lit ; b +16 ; .quad ; blr/br x17 *)
      | Mov_sym _ -> 16
      | _ -> 0);
    slot = 8;
    encode =
      (fun buf sec here arg -> function
        | I i -> emit buf sec here i
        | J name -> emit buf sec here (Arm.B (rel name here arg))
        | Jc (c, name) -> emit buf sec here (Arm.B_cond (c, rel name here arg))
        | Calll name -> emit buf sec here (Arm.Bl (rel name here arg))
        | Call_sym _ ->
          load_literal buf sec here 17;
          emit buf sec (here + 16) (Arm.Blr 17)
        | Jmp_sym _ ->
          load_literal buf sec here 17;
          emit buf sec (here + 16) (Arm.Br 17)
        | Mov_sym (rd, _) -> load_literal buf sec here rd
        | Vcall_named _ -> emit buf sec here (Arm.Vcall arg)
        | _ -> ());
    (* unaligned text padding stays zero *)
    pad =
      (fun buf off len ->
        if len land 3 = 0 then
          for i = 0 to (len / 4) - 1 do
            word buf (off + (4 * i)) nop
          done);
  }

let assemble items = Asm.assemble_with backend items

(** AArch64's {!Asm.kit}: x0..x5, x8, x0, [svc #0]; a compare is
    [subs xzr, xN, #imm]. *)
let kit : (Arm.insn, int) Asm.kit =
  {
    reg = Fun.id;
    args = Isa.arg_indices Isa.Arm64;
    nr = Isa.nr_index Isa.Arm64;
    result = 0;
    li = Arm.li;
    trap = Svc 0;
    ret = Ret;
    cmp_ri = (fun r v -> Subs_imm (31, r, v));
    mov_rr = (fun d s -> Mov_rr (d, s));
    call_reg = (fun r -> Blr r);
    jmp_reg = (fun r -> Br r);
    assemble;
  }
