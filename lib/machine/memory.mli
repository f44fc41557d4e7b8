(** Sparse paged virtual memory with RWX permissions and protection
    keys (Intel MPK semantics).

    Pages are 4 KiB and carry a protection key; data accesses are
    checked against the accessing thread's PKRU register.  Instruction
    fetch is {e never} blocked by PKU — the property that makes
    PKU-based eXecute-Only Memory possible (and leaves pitfall P4a
    open).  [*_raw] accessors bypass checks (kernel view); checked
    accessors raise {!Fault}. *)

val page_size : int
val page_shift : int

type perm = { r : bool; w : bool; x : bool }

val perm_none : perm
val perm_r : perm
val perm_rw : perm
val perm_rx : perm
val perm_rwx : perm
val perm_x : perm

val perm_to_string : perm -> string
(** "rwx"-style rendering, as in /proc/PID/maps. *)

type access = [ `Read | `Write | `Exec ]

type fault = { fault_addr : int; access : access }

exception Fault of fault

type t = {
  pages : (int, page) Hashtbl.t;
  mutable committed_bytes : int;  (** physical memory actually allocated *)
  mutable reserved_bytes : int;
      (** virtual reservations incl. MAP_NORESERVE mappings — the basis
          of the P4b memory measurement *)
  mutable tlb_r_idx : int;
      (** one-entry data-TLBs (read/write/raw): last (page_index, page)
          binding per access kind, flushed on map/unmap.  Permissions
          are never cached — each access re-checks the page record, so
          mprotect/pkey_mprotect/wrpkru take effect immediately. *)
  mutable tlb_r_pg : page;
  mutable tlb_w_idx : int;
  mutable tlb_w_pg : page;
  mutable tlb_raw_idx : int;
  mutable tlb_raw_pg : page;
}

and page = { bytes : Bytes.t; mutable perm : perm; mutable pkey : int }

val create : unit -> t

val page_index : int -> int
val align_down : int -> int
val align_up : int -> int

val is_mapped : t -> int -> bool
val find_page : t -> int -> page option

val map : ?pkey:int -> t -> addr:int -> len:int -> perm:perm -> unit
(** Map (and commit) pages covering [addr, addr+len); [addr] must be
    page-aligned.  MAP_FIXED semantics on overlap: remapped pages come
    back zeroed, and only newly added pages are counted. *)

val reserve : t -> len:int -> unit
(** Virtual-only reservation (MAP_NORESERVE): accounted, not
    committed. *)

val unmap : t -> addr:int -> len:int -> unit

val set_perm : t -> addr:int -> len:int -> perm:perm -> unit
(** mprotect. *)

val set_pkey : t -> addr:int -> len:int -> pkey:int -> unit
(** pkey_mprotect. *)

val get_perm : t -> int -> perm option
val get_pkey : t -> int -> int option

(** {2 Raw (kernel-view) access} *)

val read_u8_raw : t -> int -> int
val write_u8_raw : t -> int -> int -> unit

val read_bytes_raw : t -> int -> int -> Bytes.t
(** [read_bytes_raw t addr len]: one page lookup and one blit per
    in-page chunk.
    @raise Fault at the first byte of the first unmapped page, the
    address a byte-at-a-time loop would fault on. *)

val write_bytes_raw : t -> int -> Bytes.t -> unit
(** Chunked like {!read_bytes_raw}.  On a fault, every byte before the
    faulting address has been stored, as with a byte-at-a-time loop. *)

val read_u64_raw : t -> int -> int
val write_u64_raw : t -> int -> int -> unit

val read_u32_raw : t -> int -> int

val write_u32_raw : t -> int -> int -> unit
(** 4-aligned words live in one page buffer: the store is a single
    access, modelling AArch64's architecturally atomic aligned 32-bit
    code patch (no torn-write P5). *)

(** {2 PKRU-checked (user-view) access} *)

val pkru_access_disabled : int -> int -> bool
val pkru_write_disabled : int -> int -> bool
val check_read : t -> pkru:int -> int -> unit
val check_write : t -> pkru:int -> int -> unit

val check_exec : t -> int -> unit
(** Fetch check: execute permission only — PKU does not apply. *)

val read_u8 : t -> pkru:int -> int -> int
val write_u8 : t -> pkru:int -> int -> int -> unit
val read_u64 : t -> pkru:int -> int -> int
val write_u64 : t -> pkru:int -> int -> int -> unit
val fetch_u8 : t -> int -> int

val clone : t -> t
(** Deep copy, for fork(). *)

val read_cstr : ?max:int -> t -> int -> string
val write_cstr : t -> int -> string -> unit
