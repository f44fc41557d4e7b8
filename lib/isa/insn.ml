(** Instructions of the simulated machine.

    The instruction set is a deliberately small x86-64 subset, but the
    *encodings* of the instructions that matter to system call
    interposition are kept byte-identical to real x86-64:

    - [Syscall] is [0x0f 0x05] (2 bytes),
    - [Sysenter] is [0x0f 0x34] (2 bytes),
    - [Call_reg RAX] ("callq *%rax") is [0xff 0xd0] (2 bytes),

    and several longer instructions carry immediates or displacements in
    which those byte patterns can appear ([Mov_ri32], [Jmp_rel], [Load],
    ...).  This is exactly the property that makes static linear-sweep
    disassembly unsound on x86-64 (pitfalls P2a/P3a of the paper) and
    that makes 2-byte in-place rewriting possible (zpoline, lazypoline,
    K23).

    One non-x86 extension exists: [Vcall n] ([0x0f 0x3f] + imm32, an
    unallocated x86 opcode) escapes to a host (OCaml) function attached
    to the process image.  Host functions perform application *logic*
    (parsing, formatting, checksums) on simulated registers and memory;
    they can never issue a system call — entering the kernel always
    requires executing a real [Syscall]/[Sysenter] instruction, so
    interposition exhaustiveness is measured honestly. *)

type cond =
  | Z   (** equal / zero *)
  | NZ  (** not equal / not zero *)
  | LT  (** signed less-than *)
  | GE  (** signed greater-or-equal *)
  | LE  (** signed less-or-equal *)
  | GT  (** signed greater-than *)

let cond_to_string = function
  | Z -> "jz"
  | NZ -> "jnz"
  | LT -> "jl"
  | GE -> "jge"
  | LE -> "jle"
  | GT -> "jg"

type t =
  | Nop                                (* 90 *)
  | Ret                                (* c3 *)
  | Int3                               (* cc *)
  | Hlt                                (* f4 *)
  | Syscall                            (* 0f 05 *)
  | Sysenter                           (* 0f 34 *)
  | Ud2                                (* 0f 0b *)
  | Cpuid                              (* 0f a2 : serialising *)
  | Mfence                             (* 0f ae f0 : serialising *)
  | Wrpkru                             (* 0f 01 ef : PKRU := eax *)
  | Rdpkru                             (* 0f 01 ee : eax := PKRU *)
  | Vcall of int                       (* 0f 3f imm32 : host-function escape *)
  | Push of Reg.t                      (* [41] 50+r *)
  | Pop of Reg.t                       (* [41] 58+r *)
  | Mov_ri of Reg.t * int              (* 48/49 b8+r imm64 *)
  | Mov_ri32 of Reg.t * int            (* b8+r imm32 ; r < 8 only *)
  | Mov_rr of Reg.t * Reg.t            (* REX 89 /r (mod=11) dst <- src *)
  | Add_rr of Reg.t * Reg.t            (* REX 01 /r *)
  | Sub_rr of Reg.t * Reg.t            (* REX 29 /r *)
  | Xor_rr of Reg.t * Reg.t            (* REX 31 /r *)
  | Test_rr of Reg.t * Reg.t           (* REX 85 /r *)
  | Cmp_rr of Reg.t * Reg.t            (* REX 39 /r *)
  | Add_ri of Reg.t * int              (* REX 83 /0 imm8 *)
  | Sub_ri of Reg.t * int              (* REX 83 /5 imm8 *)
  | Cmp_ri of Reg.t * int              (* REX 83 /7 imm8 *)
  | Load of Reg.t * Reg.t * int        (* REX 8b /r disp32 : dst <- [base+disp] *)
  | Store of Reg.t * int * Reg.t       (* REX 89 /r disp32 (mod=10) : [base+disp] <- src *)
  | Load8 of Reg.t * Reg.t * int       (* REX 8a /r disp32 : dst <- zx byte [base+disp] *)
  | Store8 of Reg.t * int * Reg.t      (* REX 88 /r disp32 : byte [base+disp] <- src *)
  | Lea of Reg.t * Reg.t * int         (* REX 8d /r disp32 *)
  | Jmp_rel of int                     (* e9 rel32 (relative to next insn) *)
  | Call_rel of int                    (* e8 rel32 *)
  | Jcc of cond * int                  (* 0f 8x rel32 *)
  | Jmp_reg of Reg.t                   (* [41] ff e0+r *)
  | Call_reg of Reg.t                  (* [41] ff d0+r *)

let to_string = function
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
  | Push r -> Printf.sprintf "push %s" (Reg.to_string r)
  | Pop r -> Printf.sprintf "pop %s" (Reg.to_string r)
  | Mov_ri (r, v) -> Printf.sprintf "mov %s, 0x%x" (Reg.to_string r) v
  | Mov_ri32 (r, v) -> Printf.sprintf "mov %sd, 0x%x" (Reg.to_string r) v
  | Mov_rr (d, s) -> Printf.sprintf "mov %s, %s" (Reg.to_string d) (Reg.to_string s)
  | Add_rr (d, s) -> Printf.sprintf "add %s, %s" (Reg.to_string d) (Reg.to_string s)
  | Sub_rr (d, s) -> Printf.sprintf "sub %s, %s" (Reg.to_string d) (Reg.to_string s)
  | Xor_rr (d, s) -> Printf.sprintf "xor %s, %s" (Reg.to_string d) (Reg.to_string s)
  | Test_rr (a, b) -> Printf.sprintf "test %s, %s" (Reg.to_string a) (Reg.to_string b)
  | Cmp_rr (a, b) -> Printf.sprintf "cmp %s, %s" (Reg.to_string a) (Reg.to_string b)
  | Add_ri (r, v) -> Printf.sprintf "add %s, %d" (Reg.to_string r) v
  | Sub_ri (r, v) -> Printf.sprintf "sub %s, %d" (Reg.to_string r) v
  | Cmp_ri (r, v) -> Printf.sprintf "cmp %s, %d" (Reg.to_string r) v
  | Load (d, b, o) -> Printf.sprintf "mov %s, [%s%+d]" (Reg.to_string d) (Reg.to_string b) o
  | Store (b, o, s) -> Printf.sprintf "mov [%s%+d], %s" (Reg.to_string b) o (Reg.to_string s)
  | Load8 (d, b, o) -> Printf.sprintf "movzx %s, byte [%s%+d]" (Reg.to_string d) (Reg.to_string b) o
  | Store8 (b, o, s) -> Printf.sprintf "mov byte [%s%+d], %sb" (Reg.to_string b) o (Reg.to_string s)
  | Lea (d, b, o) -> Printf.sprintf "lea %s, [%s%+d]" (Reg.to_string d) (Reg.to_string b) o
  | Jmp_rel d -> Printf.sprintf "jmp %+d" d
  | Call_rel d -> Printf.sprintf "call %+d" d
  | Jcc (c, d) -> Printf.sprintf "%s %+d" (cond_to_string c) d
  | Jmp_reg r -> Printf.sprintf "jmp *%s" (Reg.to_string r)
  | Call_reg r -> Printf.sprintf "call *%s" (Reg.to_string r)
