(** Corpus of minimized divergence reproducers.

    Each repro is a standalone {!K23_util.Wire} text file: a small
    header (mechanism, generator seed, the expected divergence,
    escaped) followed by the minimized program as an assembly listing,
    one item per body line in constructor-token form.  The format
    round-trips exactly, so files checked in under [test/corpus/] are
    replayed verbatim by [dune runtest]: the suite re-runs the oracle
    on each and asserts the divergence is still detected — regression
    tests distilled from fuzzing campaigns, in the tradition of a
    crash corpus. *)

open K23_isa
module Mech = K23_eval.Mech
module Wire = K23_util.Wire

type entry = {
  e_mech : Mech.t;  (** mechanism the repro diverges under *)
  e_seed : int;  (** generator seed that first produced it *)
  e_expect : string;  (** rendered divergence at save time *)
  e_faults : K23_faults.Faults.plan option;
      (** fault plan active when the divergence was found; replay arms
          the same plan so fault-triggered repros stay reproducible *)
  e_items : Gen.items;
}

(* ------------------------------------------------------------------ *)
(* Serialisation                                                       *)

let reg_to_s = Reg.to_string

let reg_of_s = Wire.enum "register" Reg.to_string Reg.all

let cond_to_s : Insn.cond -> string = function
  | Z -> "z"
  | NZ -> "nz"
  | LT -> "lt"
  | GE -> "ge"
  | LE -> "le"
  | GT -> "gt"

let cond_of_s = Wire.enum "condition" cond_to_s [ Z; NZ; LT; GE; LE; GT ]

let insn_to_line (i : Insn.t) =
  match i with
  | Nop -> "nop"
  | Ret -> "ret"
  | Int3 -> "int3"
  | Hlt -> "hlt"
  | Syscall -> "syscall"
  | Sysenter -> "sysenter"
  | Ud2 -> "ud2"
  | Cpuid -> "cpuid"
  | Mfence -> "mfence"
  | Wrpkru -> "wrpkru"
  | Rdpkru -> "rdpkru"
  | Vcall n -> Printf.sprintf "vcall %d" n
  | Push r -> Printf.sprintf "push %s" (reg_to_s r)
  | Pop r -> Printf.sprintf "pop %s" (reg_to_s r)
  | Mov_ri (r, v) -> Printf.sprintf "mov_ri %s %d" (reg_to_s r) v
  | Mov_ri32 (r, v) -> Printf.sprintf "mov_ri32 %s %d" (reg_to_s r) v
  | Mov_rr (d, s) -> Printf.sprintf "mov_rr %s %s" (reg_to_s d) (reg_to_s s)
  | Add_rr (d, s) -> Printf.sprintf "add_rr %s %s" (reg_to_s d) (reg_to_s s)
  | Sub_rr (d, s) -> Printf.sprintf "sub_rr %s %s" (reg_to_s d) (reg_to_s s)
  | Xor_rr (d, s) -> Printf.sprintf "xor_rr %s %s" (reg_to_s d) (reg_to_s s)
  | Test_rr (a, b) -> Printf.sprintf "test_rr %s %s" (reg_to_s a) (reg_to_s b)
  | Cmp_rr (a, b) -> Printf.sprintf "cmp_rr %s %s" (reg_to_s a) (reg_to_s b)
  | Add_ri (r, v) -> Printf.sprintf "add_ri %s %d" (reg_to_s r) v
  | Sub_ri (r, v) -> Printf.sprintf "sub_ri %s %d" (reg_to_s r) v
  | Cmp_ri (r, v) -> Printf.sprintf "cmp_ri %s %d" (reg_to_s r) v
  | Load (d, b, o) -> Printf.sprintf "load %s %s %d" (reg_to_s d) (reg_to_s b) o
  | Store (b, o, s) -> Printf.sprintf "store %s %d %s" (reg_to_s b) o (reg_to_s s)
  | Load8 (d, b, o) -> Printf.sprintf "load8 %s %s %d" (reg_to_s d) (reg_to_s b) o
  | Store8 (b, o, s) -> Printf.sprintf "store8 %s %d %s" (reg_to_s b) o (reg_to_s s)
  | Lea (d, b, o) -> Printf.sprintf "lea %s %s %d" (reg_to_s d) (reg_to_s b) o
  | Jmp_rel d -> Printf.sprintf "jmp_rel %d" d
  | Call_rel d -> Printf.sprintf "call_rel %d" d
  | Jcc (c, d) -> Printf.sprintf "jcc %s %d" (cond_to_s c) d
  | Jmp_reg r -> Printf.sprintf "jmp_reg %s" (reg_to_s r)
  | Call_reg r -> Printf.sprintf "call_reg %s" (reg_to_s r)

let hex_of_bytes b =
  let buf = Buffer.create (2 * Bytes.length b) in
  Bytes.iter (fun c -> Buffer.add_string buf (Printf.sprintf "%02x" (Char.code c))) b;
  Buffer.contents buf

let bytes_of_hex s =
  if String.length s mod 2 <> 0 then Wire.fail "odd hex length: %S" s;
  Bytes.init (String.length s / 2) (fun i ->
      match int_of_string_opt ("0x" ^ String.sub s (2 * i) 2) with
      | Some v -> Char.chr v
      | None -> Wire.fail "bad hex: %S" s)

let num = Wire.int "number"

(* an item line is a token, then its space-separated arguments; a
   [strz] payload is the whole rest of the line, trailing spaces and
   all, so body lines are never trimmed *)
let split_item line =
  let tok, rest =
    match String.index_opt line ' ' with
    | None -> (line, "")
    | Some i -> (String.sub line 0 i, String.sub line (i + 1) (String.length line - i - 1))
  in
  (tok, rest, String.split_on_char ' ' rest |> List.filter (fun s -> s <> ""))

let insn_of_line line tok args : Insn.t =
  match (tok, args) with
  | "nop", [] -> Nop
  | "ret", [] -> Ret
  | "int3", [] -> Int3
  | "hlt", [] -> Hlt
  | "syscall", [] -> Syscall
  | "sysenter", [] -> Sysenter
  | "ud2", [] -> Ud2
  | "cpuid", [] -> Cpuid
  | "mfence", [] -> Mfence
  | "wrpkru", [] -> Wrpkru
  | "rdpkru", [] -> Rdpkru
  | "vcall", [ n ] -> Vcall (num n)
  | "push", [ r ] -> Push (reg_of_s r)
  | "pop", [ r ] -> Pop (reg_of_s r)
  | "mov_ri", [ r; v ] -> Mov_ri (reg_of_s r, num v)
  | "mov_ri32", [ r; v ] -> Mov_ri32 (reg_of_s r, num v)
  | "mov_rr", [ d; s ] -> Mov_rr (reg_of_s d, reg_of_s s)
  | "add_rr", [ d; s ] -> Add_rr (reg_of_s d, reg_of_s s)
  | "sub_rr", [ d; s ] -> Sub_rr (reg_of_s d, reg_of_s s)
  | "xor_rr", [ d; s ] -> Xor_rr (reg_of_s d, reg_of_s s)
  | "test_rr", [ a; b ] -> Test_rr (reg_of_s a, reg_of_s b)
  | "cmp_rr", [ a; b ] -> Cmp_rr (reg_of_s a, reg_of_s b)
  | "add_ri", [ r; v ] -> Add_ri (reg_of_s r, num v)
  | "sub_ri", [ r; v ] -> Sub_ri (reg_of_s r, num v)
  | "cmp_ri", [ r; v ] -> Cmp_ri (reg_of_s r, num v)
  | "load", [ d; b; o ] -> Load (reg_of_s d, reg_of_s b, num o)
  | "store", [ b; o; s ] -> Store (reg_of_s b, num o, reg_of_s s)
  | "load8", [ d; b; o ] -> Load8 (reg_of_s d, reg_of_s b, num o)
  | "store8", [ b; o; s ] -> Store8 (reg_of_s b, num o, reg_of_s s)
  | "lea", [ d; b; o ] -> Lea (reg_of_s d, reg_of_s b, num o)
  | "jmp_rel", [ d ] -> Jmp_rel (num d)
  | "call_rel", [ d ] -> Call_rel (num d)
  | "jcc", [ c; d ] -> Jcc (cond_of_s c, num d)
  | "jmp_reg", [ r ] -> Jmp_reg (reg_of_s r)
  | "call_reg", [ r ] -> Call_reg (reg_of_s r)
  | _ -> Wire.fail "bad item line: %S" line

(* --- the AArch64 instruction codec ---------------------------------
   Selected by the [isa:] header key; token names may overlap with the
   x86 codec because a file is parsed under exactly one of them. *)

module Arm = K23_isa_arm.Arm

let arm_insn_to_line (i : Arm.insn) =
  match i with
  | Arm.Svc n -> Printf.sprintf "svc %d" n
  | Arm.Bl o -> Printf.sprintf "bl %d" o
  | Arm.B o -> Printf.sprintf "b %d" o
  | Arm.B_cond (c, o) -> Printf.sprintf "b_cond %s %d" (cond_to_s c) o
  | Arm.Br r -> Printf.sprintf "br %d" r
  | Arm.Blr r -> Printf.sprintf "blr %d" r
  | Arm.Ret -> "ret"
  | Arm.Nop -> "nop"
  | Arm.Movz (r, v) -> Printf.sprintf "movz %d %d" r v
  | Arm.Movk (r, v, hw) -> Printf.sprintf "movk %d %d %d" r v hw
  | Arm.Movn (r, v, hw) -> Printf.sprintf "movn %d %d %d" r v hw
  | Arm.Mov_rr (d, m) -> Printf.sprintf "mov_rr %d %d" d m
  | Arm.Add_imm (d, n, v) -> Printf.sprintf "add_imm %d %d %d" d n v
  | Arm.Subs_imm (d, n, v) -> Printf.sprintf "subs_imm %d %d %d" d n v
  | Arm.Add_rr (d, n, m) -> Printf.sprintf "add_rr %d %d %d" d n m
  | Arm.Sub_rr (d, n, m) -> Printf.sprintf "sub_rr %d %d %d" d n m
  | Arm.Subs_rr (d, n, m) -> Printf.sprintf "subs_rr %d %d %d" d n m
  | Arm.Ldr_lit (r, o) -> Printf.sprintf "ldr_lit %d %d" r o
  | Arm.Ldr (t, n, o) -> Printf.sprintf "ldr %d %d %d" t n o
  | Arm.Str (t, n, o) -> Printf.sprintf "str %d %d %d" t n o
  | Arm.Ldrb (t, n, o) -> Printf.sprintf "ldrb %d %d %d" t n o
  | Arm.Strb (t, n, o) -> Printf.sprintf "strb %d %d %d" t n o
  | Arm.Vcall n -> Printf.sprintf "vcall %d" n
  | Arm.Brk n -> Printf.sprintf "brk %d" n

let arm_insn_of_line line tok args : Arm.insn =
  match (tok, args) with
  | "svc", [ n ] -> Arm.Svc (num n)
  | "bl", [ o ] -> Arm.Bl (num o)
  | "b", [ o ] -> Arm.B (num o)
  | "b_cond", [ c; o ] -> Arm.B_cond (cond_of_s c, num o)
  | "br", [ r ] -> Arm.Br (num r)
  | "blr", [ r ] -> Arm.Blr (num r)
  | "ret", [] -> Arm.Ret
  | "nop", [] -> Arm.Nop
  | "movz", [ r; v ] -> Arm.Movz (num r, num v)
  | "movk", [ r; v; hw ] -> Arm.Movk (num r, num v, num hw)
  | "movn", [ r; v; hw ] -> Arm.Movn (num r, num v, num hw)
  | "mov_rr", [ d; m ] -> Arm.Mov_rr (num d, num m)
  | "add_imm", [ d; n; v ] -> Arm.Add_imm (num d, num n, num v)
  | "subs_imm", [ d; n; v ] -> Arm.Subs_imm (num d, num n, num v)
  | "add_rr", [ d; n; m ] -> Arm.Add_rr (num d, num n, num m)
  | "sub_rr", [ d; n; m ] -> Arm.Sub_rr (num d, num n, num m)
  | "subs_rr", [ d; n; m ] -> Arm.Subs_rr (num d, num n, num m)
  | "ldr_lit", [ r; o ] -> Arm.Ldr_lit (num r, num o)
  | "ldr", [ t; n; o ] -> Arm.Ldr (num t, num n, num o)
  | "str", [ t; n; o ] -> Arm.Str (num t, num n, num o)
  | "ldrb", [ t; n; o ] -> Arm.Ldrb (num t, num n, num o)
  | "strb", [ t; n; o ] -> Arm.Strb (num t, num n, num o)
  | "vcall", [ n ] -> Arm.Vcall (num n)
  | "brk", [ n ] -> Arm.Brk (num n)
  | _ -> Wire.fail "bad arm item line: %S" line

(* --- the item codec ------------------------------------------------
   The pseudo-items' tokens are the same on both ISAs; an ISA supplies
   its instruction codec and the register token of [mov_sym]. *)

let item_to_line insn reg (it : (_, _) Asm.t) =
  match it with
  | Asm.I i -> insn i
  | Asm.Label l -> "label " ^ l
  | Asm.Blob b -> "blob " ^ hex_of_bytes b
  | Asm.Zeros n -> Printf.sprintf "zeros %d" n
  | Asm.Strz s -> "strz " ^ Wire.escape s
  | Asm.Quad n -> Printf.sprintf "quad %d" n
  | Asm.J l -> "j " ^ l
  | Asm.Jc (c, l) -> Printf.sprintf "jc %s %s" (cond_to_s c) l
  | Asm.Calll l -> "calll " ^ l
  | Asm.Call_sym s -> "call_sym " ^ s
  | Asm.Jmp_sym s -> "jmp_sym " ^ s
  | Asm.Mov_sym (r, s) -> Printf.sprintf "mov_sym %s %s" (reg r) s
  | Asm.Vcall_named s -> "vcall_named " ^ s
  | Asm.Section `Text -> "section text"
  | Asm.Section `Data -> "section data"
  | Asm.Align n -> Printf.sprintf "align %d" n

let item_of_line insn reg line : (_, _) Asm.t =
  let tok, rest, args = split_item line in
  match (tok, args) with
  | "label", [ l ] -> Asm.Label l
  | "blob", [ h ] -> Asm.Blob (bytes_of_hex h)
  | "zeros", [ n ] -> Asm.Zeros (num n)
  | "strz", _ -> Asm.Strz (Wire.unescape rest)
  | "quad", [ n ] -> Asm.Quad (num n)
  | "j", [ l ] -> Asm.J l
  | "jc", [ c; l ] -> Asm.Jc (cond_of_s c, l)
  | "calll", [ l ] -> Asm.Calll l
  | "call_sym", [ s ] -> Asm.Call_sym s
  | "jmp_sym", [ s ] -> Asm.Jmp_sym s
  | "mov_sym", [ r; s ] -> Asm.Mov_sym (reg r, s)
  | "vcall_named", [ s ] -> Asm.Vcall_named s
  | "section", [ "text" ] -> Asm.Section `Text
  | "section", [ "data" ] -> Asm.Section `Data
  | "align", [ n ] -> Asm.Align (num n)
  | _ -> Asm.I (insn line tok args)

(** A program's body lines, in its ISA's codec. *)
let item_lines = function
  | Gen.X86 its -> List.map (item_to_line insn_to_line reg_to_s) its
  | Gen.A64 its -> List.map (item_to_line arm_insn_to_line string_of_int) its

(* ------------------------------------------------------------------ *)
(* Files                                                               *)

let to_string (e : entry) =
  (* [isa] is emitted only for non-x86 entries: x86 corpus files keep
     their pre-ISA bytes *)
  let isa = match e.e_items with Gen.X86 _ -> [] | Gen.A64 _ -> [ ("isa", Isa.to_string Isa.Arm64) ] in
  Wire.render ~head:"# k23_fuzz minimized reproducer"
    ((("mech", Mech.to_string e.e_mech) :: isa)
    @ [ ("seed", string_of_int e.e_seed); ("expect", Wire.escape e.e_expect) ]
    @ Option.fold ~none:[] ~some:(fun p -> [ ("faults", K23_faults.Faults.to_string p) ]) e.e_faults)
    (item_lines e.e_items)

let of_string s : entry =
  let fields, body = Wire.split s in
  let faults v = Some (Wire.value "fault plan" K23_faults.Faults.of_string v) in
  {
    e_mech = Wire.require fields "mech" (Wire.value "mechanism" Mech.of_string);
    e_seed = Wire.get fields "seed" (Wire.int "seed") 0;
    e_expect = Wire.get fields "expect" Wire.unescape "";
    e_faults = Wire.get fields "faults" faults None;
    e_items =
      (match Wire.get fields "isa" (Wire.value "isa" Isa.of_string) Isa.X86_64 with
      | Isa.X86_64 -> Gen.X86 (List.map (item_of_line insn_of_line reg_of_s) body)
      | Isa.Arm64 -> Gen.A64 (List.map (item_of_line arm_insn_of_line num) body));
  }

let save ~path e = Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc (to_string e))
let load path = of_string (In_channel.with_open_bin path In_channel.input_all)

(** All [*.repro] files in [dir], sorted by name (deterministic
    replay order); missing directory = empty corpus. *)
let load_dir dir =
  if not (Sys.file_exists dir && Sys.is_directory dir) then []
  else
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".repro")
    |> List.sort String.compare
    |> List.map (fun f -> (f, load (Filename.concat dir f)))
