(** Hash table keyed by ints, hashed by arithmetic: one multiply and
    one shift pick the bucket.

    The machine's two hot tables are keyed by ints: {!Memory}'s pages
    by page index and {!Icache}'s lines by line index; the kernel's
    per-process lookup memos are keyed by address or pid, and its
    descriptor and signal-handler tables by fd and signal number.  The polymorphic
    [Hashtbl] hashes and compares those keys through the runtime's
    generic [caml_hash] and [caml_compare]; so does
    [Hashtbl.Make (Int)], whose [Int.hash] is [caml_hash] too.  Here the
    key is multiplied by an odd constant and the bucket is the top bits
    of the product (Fibonacci hashing), so the region bases that share
    low bits (text at [0x400000], libraries on 64 KiB steps, the
    trampoline at 0) spread out, and keys are compared with [=] on
    ints.

    Iteration order is unspecified; no caller depends on it (those
    whose output is ordered sort what they collect). *)

type 'a t

val create : int -> 'a t
(** [create n]: an empty table sized for about [n] bindings.  It grows
    as needed. *)

val length : 'a t -> int

val find : 'a t -> int -> default:'a -> 'a
(** The binding of the key, or [default]: no option is allocated. *)

val find_opt : 'a t -> int -> 'a option
val mem : 'a t -> int -> bool

val replace : 'a t -> int -> 'a -> unit
(** Bind the key, replacing its binding if it has one. *)

val remove : 'a t -> int -> unit
(** Drop the key's binding, if any. *)

val iter : (int -> 'a -> unit) -> 'a t -> unit
val fold : (int -> 'a -> 'acc -> 'acc) -> 'a t -> 'acc -> 'acc

val copy : 'a t -> 'a t
(** A new table with the same bindings.  Changes to either table do
    not show in the other. *)
