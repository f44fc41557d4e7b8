(** Per-core instruction cache (64-byte lines) with a predecode layer.

    Lines are filled on first fetch (checking execute permission) and
    dropped on self-snoop ({!invalidate_range}), serialising
    instructions ({!flush}), or a kernel cache-coherent code write
    ([Kern.code_write_barrier]).  Coherence is what exposes
    lazypoline's torn two-byte rewrite to other cores (pitfall P5).

    {!fetch_decode} additionally memoises decode results per
    (line, entry-offset); the memo shares the line's lifetime, so
    stale-cache (P3b) and torn-write (P5) semantics are bit-for-bit
    those of byte-by-byte decoding. *)

val line_size : int

type t

val create : ?predecode:bool -> unit -> t
(** [predecode] (default on) enables the per-line decode memo for this
    cache instance.  It is per-instance state on purpose: worlds run
    concurrently on separate domains ([K23_par.Pool]) and must share
    no mutable toggles. *)

val fetch_u8 : t -> Memory.t -> int -> int
(** Fetch one instruction byte through the cache; fills the containing
    line on miss.
    @raise Memory.Fault when the line's page is not executable. *)

val fetch_u32 : t -> Memory.t -> int -> int
(** Fetch one 4-aligned little-endian instruction word through the
    cache (arm64 fixed-width fetch).  Aligned words never straddle a
    line, so staleness is per-line exactly as for {!fetch_u8}.
    @raise Memory.Fault as {!fetch_u8}. *)

val fetch_decode : t -> Memory.t -> int -> (K23_isa.Insn.t * int, K23_isa.Decode.error) result
(** Fetch and decode the instruction starting at the address, serving
    the line's predecode memo when possible.  Instructions straddling
    a line boundary are decoded byte-by-byte and never memoised (their
    bytes live in two lines with independent lifetimes).
    @raise Memory.Fault as {!fetch_u8}. *)

val set_predecode : t -> bool -> unit
(** Enable/disable this instance's predecode memo.  Off,
    {!fetch_decode} decodes byte-by-byte through {!fetch_u8} — the
    reference path the coherence tests compare against.  Set it at
    creation time via [World.Config.predecode] — worlds configure
    every core's cache consistently from there. *)

val invalidate_range : t -> addr:int -> len:int -> unit
val flush : t -> unit

val holds : t -> int -> bool
(** Whether the cache currently holds the line containing the
    address (tests). *)
