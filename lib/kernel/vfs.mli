(** In-memory virtual filesystem: hierarchical directories, regular
    files, unlink/rename/truncate, and an {e immutable} attribute used
    by K23 to seal its offline-log directory (Section 5.3): once
    sealed, any write, rename or unlink below it fails with EPERM. *)

type file
(** A regular file: a logical size over a capacity buffer that doubles
    when it fills, so appends cost amortized O(1) per byte.  Contents
    are reached only through the accessors below. *)

type node = Dir of dir | File of file

and dir = { entries : (string, node) Hashtbl.t; mutable dir_immutable : bool }

type t = { root : dir }

type err = [ `Perm | `Noent | `Notdir | `Isdir | `Inval ]

val create : unit -> t

(** {2 File contents} *)

val pseudo_file : string -> file
(** An immutable file in no directory, holding the given bytes:
    /proc synthesised content, or the empty stand-in for an opened
    directory. *)

val size : file -> int
(** Logical length, as fstat and [lseek(SEEK_END)] report it. *)

val immutable : file -> bool

val read_at : file -> pos:int -> len:int -> Bytes.t
(** Up to [len] bytes from [pos], as a fresh copy; empty at or past
    EOF (a read after seeking past the end returns 0, as on Linux). *)

val write_at : file -> pos:int -> Bytes.t -> unit
(** Write at [pos], growing the file; a gap between the old EOF and
    [pos] reads back as zeros. *)

val truncate : file -> int -> (unit, err) result
(** Set the logical size.  Shrinking discards the tail for good (a
    later extension reads zeros, never the old bytes); extending reads
    back zeros.  [Error `Inval] for a negative length, as ftruncate(2). *)

(** {2 Namespace} *)

val reset : t -> unit
(** Empty the filesystem in place (seals included): observationally a
    fresh {!create}, reusing the root node. *)

val split_path : string -> string list
val lookup : t -> string -> node option
val exists : t -> string -> bool
val is_dir : t -> string -> bool

val path_immutable : t -> string -> bool
(** True when any immutable directory (or the file itself) lies on the
    path — mutations must then fail. *)

val mkdir_p : t -> string -> (dir, err) result
val create_file : t -> string -> (file, err) result
val open_file : t -> string -> (file, err) result
val write_file : t -> string -> string -> (file, err) result
val read_file : t -> string -> (string, err) result
val unlink : t -> string -> (unit, err) result
val rename : t -> string -> string -> (unit, err) result
val listdir : t -> string -> (string list, err) result

val set_immutable : t -> string -> bool -> (unit, err) result
(** Seal (or unseal) a directory or file. *)

val err_to_errno : err -> int
