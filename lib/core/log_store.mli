(** Offline-phase log files (Figure 3 format): one log per program
    under [/k23/logs], one ["region,offset"] line per unique syscall
    site.  Offsets are region-relative and therefore ASLR-stable
    (Section 5.1).  [seal] makes the directory immutable for the
    installation's lifetime (Section 5.3). *)

val dir : string
val path_for : app:string -> string

type entry = { region : string; offset : int }

val entry_to_line : entry -> string
val entry_of_line : string -> entry option

val read : K23_kernel.Kern.world -> app:string -> entry list
(** Missing log = empty list (K23 then relies on the SUD fallback). *)

val write : K23_kernel.Kern.world -> app:string -> entry list -> unit
val append : K23_kernel.Kern.world -> app:string -> entry list -> unit
(** Merge (multiple offline runs improve coverage). *)

val seal : K23_kernel.Kern.world -> unit
val sealed : K23_kernel.Kern.world -> bool
