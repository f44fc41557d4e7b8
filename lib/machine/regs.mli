(** Register file of one simulated thread: a flat GPR array wide
    enough for either backend (x86 0..15; arm64 x0..x30 + sp at 31),
    rip, ZF/SF flags and the PKRU protection-key rights register. *)

val width : int
(** Size of the flat register file (32). *)

type t = {
  gpr : int array;
  mutable rip : int;
  mutable zf : bool;
  mutable sf : bool;
  mutable pkru : int;
}

val create : unit -> t
val get : t -> K23_isa.Reg.t -> int
val set : t -> K23_isa.Reg.t -> int -> unit

val geti : t -> int -> int
(** Raw-index read — ISA-generic ABI seams (syscall args, signal
    frames) that dispatch on {!K23_isa.Isa.t}. *)

val seti : t -> int -> int -> unit

val copy : t -> t
(** Snapshot (signal frames, fork). *)

val restore : t -> from:t -> unit
(** Restore in place (sigreturn, clone child setup). *)

val pp : Format.formatter -> t -> unit
