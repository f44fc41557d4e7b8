(** Two-pass assembler DSL, shared by both ISAs: instructions, labels,
    raw data blobs (the "embedded data in code" of pitfall P3),
    external-symbol relocations (patched by the dynamic loader, like
    R_X86_64_64), and host-function escapes.  Sections: [`Text]
    (mapped r-x) and [`Data] (mapped rw-).

    The item vocabulary and the layout are ISA-neutral; an ISA only
    supplies a {!backend}.  {!assemble} is the x86-64 assembler. *)

type section = [ `Text | `Data ]

(** An item over an ISA's instruction type ['insn] and register type
    ['reg]. *)
type ('insn, 'reg) t =
  | I of 'insn
  | Label of string  (** local label, also exported as a symbol *)
  | Blob of bytes
  | Zeros of int
  | Strz of string  (** NUL-terminated string *)
  | Quad of int  (** 8-byte little-endian literal *)
  | J of string  (** jump to label *)
  | Jc of Insn.cond * string
  | Calll of string  (** call to local label *)
  | Call_sym of string  (** external call: load the reloc slot, call through the register *)
  | Jmp_sym of string
  | Mov_sym of 'reg * string  (** reg := absolute address of symbol (reloc) *)
  | Vcall_named of string  (** host-function escape, indexed per image *)
  | Section of section
  | Align of int

type item = (Insn.t, Reg.t) t
(** An x86-64 item. *)

type reloc = { reloc_section : section; reloc_offset : int; reloc_symbol : string }
(** An 8-byte absolute slot to patch with the symbol's address at load
    time. *)

type program = {
  text : Bytes.t;
  data : Bytes.t;
  symbols : (string * (section * int)) list;
  relocs : reloc list;
  vcalls : string list;  (** host-function names in local-index order *)
}

exception Asm_error of string

val err : ('a, unit, string, 'b) format4 -> 'a
(** Raise {!Asm_error} with a formatted message. *)

(** What an ISA supplies to the shared layout.  Only the
    instruction-bearing items ([I], [J], [Jc], [Calll], [Call_sym],
    [Jmp_sym], [Mov_sym], [Vcall_named]) reach [size] and [encode]. *)
type ('insn, 'reg) backend = {
  size : ('insn, 'reg) t -> int;  (** constant byte size of an item *)
  slot : int;  (** offset of the 8-byte reloc slot inside a symbol load *)
  encode : Bytes.t -> section -> int -> int -> ('insn, 'reg) t -> unit;
      (** [encode buf sec here arg item] writes [item] at offset [here]
          of [buf]; [arg] is the target's offset for a branch and the
          vcall index for [Vcall_named] *)
  pad : Bytes.t -> int -> int -> unit;  (** [pad text off len] fills [Align] padding in text *)
}

val assemble_with : ('insn, 'reg) backend -> ('insn, 'reg) t list -> program
val assemble : item list -> program

(** How an ISA spells what hand-written programs share, so that ld.so,
    the vdso, the SIGSYS skeleton and the fuzz generator are each
    written once for both ISAs. *)
type ('insn, 'reg) kit = {
  reg : int -> 'reg;  (** the register at a flat GPR index *)
  args : 'reg array;  (** the six syscall argument registers, ABI order *)
  nr : 'reg;  (** the syscall-number register *)
  result : 'reg;  (** the syscall result register *)
  li : 'reg -> int -> 'insn list;  (** load an immediate *)
  trap : 'insn;  (** the trapping instruction *)
  ret : 'insn;
  cmp_ri : 'reg -> int -> 'insn;  (** compare with a small immediate *)
  mov_rr : 'reg -> 'reg -> 'insn;  (** [mov_rr dst src] *)
  call_reg : 'reg -> 'insn;
  jmp_reg : 'reg -> 'insn;
  assemble : ('insn, 'reg) t list -> program;
}

val kit : (Insn.t, Reg.t) kit
(** x86-64: rdi/rsi/rdx/r10/r8/r9, rax, [syscall]. *)
