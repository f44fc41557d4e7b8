(** Per-core instruction cache (64-byte lines) with a predecode layer.

    Lines are filled on first fetch (checking execute permission) and
    dropped on self-snoop ({!invalidate_range}) or a kernel
    cache-coherent code write ([Kern.code_write_barrier]).  Coherence
    is what exposes lazypoline's torn two-byte rewrite to other cores
    (pitfall P5).  A serialising instruction or an address-space
    switch {!flush}es the cache: every line is rechecked against
    memory before it is served again.

    {!fetch_decode} additionally memoises decode results per
    (line, entry-offset); the memo shares the line's lifetime and is a
    pure function of its bytes, so stale-cache (P3b) and torn-write
    (P5) semantics are bit-for-bit those of byte-by-byte decoding. *)

val line_size : int

type t

val create : ?predecode:bool -> unit -> t
(** [predecode] (default on) enables the per-line decode memo for this
    cache instance, fixed for its lifetime.  Off, {!fetch_decode}
    decodes byte-by-byte through {!fetch_u8} — the reference path the
    coherence tests compare against.  Worlds set it for every core
    from [World.Config.predecode]. *)

val fetch_u8 : t -> Memory.t -> int -> int
(** Fetch one instruction byte through the cache; fills the containing
    line on miss.
    @raise Memory.Fault when the line's page is not executable. *)

val skip_nops : t -> Memory.t -> int -> int
(** [skip_nops t mem addr] is the first address at or after [addr]
    whose cached byte is not a nop ([0x90]), or else the first address
    whose line fill faults.  Each line records, at fill, where its
    trailing run of nops starts, so crossing an all-nop line costs one
    lookup; only the part of a line before that run is scanned.  It
    fills lines in the order a {!fetch_u8} walk would, so it ends where
    that walk would stop and leaves the cache as the walk would.  Never
    raises. *)

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

val invalidate_range : t -> addr:int -> len:int -> unit
(** Drop every line overlapping the range, with its memo. *)

val flush : t -> unit
(** Mark every line for rechecking.  The next fetch from a marked
    line checks execute permission at the fetch address; the line
    keeps its memo only if its bytes still equal memory's, and is
    refilled otherwise.  Observably a drop of every line. *)

val holds : t -> int -> bool
(** Whether the cache currently holds the line containing the
    address (tests).  A line marked by {!flush} and not fetched since
    is not held. *)
