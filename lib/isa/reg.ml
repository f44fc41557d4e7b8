(** General-purpose registers of the simulated x86-64-like machine.

    Indices follow the x86-64 encoding order so that ModRM/REX encodings
    in {!Encode} match real hardware conventions: RAX=0 ... RDI=7,
    R8=8 ... R15=15. *)

type t =
  | RAX
  | RCX
  | RDX
  | RBX
  | RSP
  | RBP
  | RSI
  | RDI
  | R8
  | R9
  | R10
  | R11
  | R12
  | R13
  | R14
  | R15

let all =
  [ RAX; RCX; RDX; RBX; RSP; RBP; RSI; RDI; R8; R9; R10; R11; R12; R13; R14; R15 ]

let index = function
  | RAX -> 0
  | RCX -> 1
  | RDX -> 2
  | RBX -> 3
  | RSP -> 4
  | RBP -> 5
  | RSI -> 6
  | RDI -> 7
  | R8 -> 8
  | R9 -> 9
  | R10 -> 10
  | R11 -> 11
  | R12 -> 12
  | R13 -> 13
  | R14 -> 14
  | R15 -> 15

let of_index = function
  | 0 -> RAX
  | 1 -> RCX
  | 2 -> RDX
  | 3 -> RBX
  | 4 -> RSP
  | 5 -> RBP
  | 6 -> RSI
  | 7 -> RDI
  | 8 -> R8
  | 9 -> R9
  | 10 -> R10
  | 11 -> R11
  | 12 -> R12
  | 13 -> R13
  | 14 -> R14
  | 15 -> R15
  | n -> invalid_arg (Printf.sprintf "Reg.of_index: %d" n)

let to_string = function
  | RAX -> "rax"
  | RCX -> "rcx"
  | RDX -> "rdx"
  | RBX -> "rbx"
  | RSP -> "rsp"
  | RBP -> "rbp"
  | RSI -> "rsi"
  | RDI -> "rdi"
  | R8 -> "r8"
  | R9 -> "r9"
  | R10 -> "r10"
  | R11 -> "r11"
  | R12 -> "r12"
  | R13 -> "r13"
  | R14 -> "r14"
  | R15 -> "r15"
