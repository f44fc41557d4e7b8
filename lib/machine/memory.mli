(** Sparse paged virtual memory with RWX permissions and protection
    keys (Intel MPK semantics).

    Pages are 4 KiB and carry a protection key; data accesses are
    checked against the accessing thread's PKRU register.  Instruction
    fetch is {e never} blocked by PKU — the property that makes
    PKU-based eXecute-Only Memory possible (and leaves pitfall P4a
    open).  [*_raw] accessors bypass checks (kernel view); checked
    accessors raise {!Fault}.

    Pages are backed on demand.  A fresh mapping shares one all-zero
    buffer, an image section's pages share the buffers {!frames_of_bytes}
    split it into, and {!clone} shares every page between parent and
    child.  A shared page is marked copy-on-write, and the writers of
    this module copy it before their first store.  So only this
    module's writers may store into a page buffer: {!page} is
    abstract, and nothing outside reaches a buffer except through the
    read-only {!page_sub} and {!page_equal_sub}.  None of this shows in
    simulation: the accounting is done at map time, and no cycle is
    charged for a copy. *)

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

type page
(** One mapped page: its buffer, copy-on-write mark, permissions and
    protection key. *)

type t = {
  pages : page Inttbl.t;  (** by page index *)
  mutable committed_bytes : int;
      (** simulated physical memory committed by {!map} and
          {!map_frames}, counted at map time however the page is
          backed *)
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

val create : unit -> t

val page_index : int -> int
val align_down : int -> int
val align_up : int -> int

val is_mapped : t -> int -> bool

val map : ?pkey:int -> t -> addr:int -> len:int -> perm:perm -> unit
(** Map (and commit) zero pages covering [addr, addr+len); [addr] must
    be page-aligned.  MAP_FIXED semantics on overlap: remapped pages
    come back zeroed, and only newly added pages are counted.  No
    buffer is allocated: every page shares the one zero buffer until
    its first store copies it. *)

type frames
(** A byte string split into page-sized buffers, the last padded with
    zeros: an image section ready to be mapped by sharing.  Nothing
    ever writes its buffers. *)

val frames_of_bytes : Bytes.t -> frames
(** Split [b] into [max 1 (ceil (length b / page_size))] page buffers.
    [b] is copied: a later change to it does not reach the frames. *)

val map_frames : t -> addr:int -> perm:perm -> frames -> unit
(** {!map} of one page per frame, with protection key 0, each page
    sharing its frame's buffer copy-on-write instead of the zero
    buffer: reads see the frames' bytes, and the first store to a page
    copies it.  Accounting and MAP_FIXED semantics are {!map}'s. *)

val reserve : t -> len:int -> unit
(** Virtual-only reservation (MAP_NORESERVE): accounted, not
    committed. *)

val unmap : t -> addr:int -> len:int -> unit

val set_perm : t -> addr:int -> len:int -> perm:perm -> unit
(** mprotect: every mapped page that [addr, addr+len) touches.  A
    [len <= 0] touches none. *)

val set_pkey : t -> addr:int -> len:int -> pkey:int -> unit
(** pkey_mprotect, over the same pages as {!set_perm}. *)

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

val read_into_raw : t -> int -> Bytes.t -> int -> int -> unit
(** [read_into_raw t addr dst off len] is {!read_bytes_raw} into
    [dst] at [off]: no buffer is allocated.  On a fault, [dst] holds
    the bytes before the faulting address. *)

val write_from_raw : t -> int -> Bytes.t -> int -> int -> unit
(** [write_from_raw t addr src off len] is {!write_bytes_raw} of
    [src]'s bytes [off, off+len), with the same fault behaviour. *)

val read_u64_raw : t -> int -> int
val write_u64_raw : t -> int -> int -> unit

val write_u32_raw : t -> int -> int -> unit
(** 4-aligned words live in one page buffer: the store is a single
    access, modelling AArch64's architecturally atomic aligned 32-bit
    code patch (no torn-write P5). *)

(** {2 PKRU-checked (user-view) access} *)

val pkru_access_disabled : int -> int -> bool
val pkru_write_disabled : int -> int -> bool
val check_read : t -> pkru:int -> int -> unit
val check_write : t -> pkru:int -> int -> unit

val exec_page : t -> int -> page
(** The page holding the address, checked for instruction fetch:
    execute permission only — PKU does not apply.
    @raise Fault [`Exec] at the address when it is unmapped or not
    executable. *)

val check_exec : t -> int -> unit
(** {!exec_page} for its check alone. *)

val page_sub : page -> int -> int -> Bytes.t
(** [page_sub p off len] is a fresh copy of [len] bytes of [p]'s
    buffer from offset [off]: how the I-cache fills a line. *)

val page_equal_sub : page -> int -> Bytes.t -> bool
(** [page_equal_sub p off b] is whether [p]'s buffer holds [b] at
    offset [off]: how the I-cache rechecks a line.  Compares 8 bytes
    at a time, so [b]'s length must be a multiple of 8.  Allocates
    nothing. *)

val read_u8 : t -> pkru:int -> int -> int
val write_u8 : t -> pkru:int -> int -> int -> unit
val read_u64 : t -> pkru:int -> int -> int
val write_u64 : t -> pkru:int -> int -> int -> unit
val fetch_u8 : t -> int -> int

val clone : t -> t
(** fork(): a memory with the same pages, permissions, keys and
    accounting, sharing every page buffer with [t].  Both sides' pages
    are marked copy-on-write, so a store on either side copies that
    one page first and the other side keeps the old bytes.  Copies no
    buffer. *)

val read_cstr : ?max:int -> t -> int -> string
val write_cstr : t -> int -> string -> unit
