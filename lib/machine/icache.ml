(** Per-core instruction cache model, with a predecode layer.

    Each core caches 64-byte lines on first fetch.  Lines are dropped
    when

    - the core itself writes to the line (self-snoop),
    - or the kernel performs a cache-coherent code write on behalf of
      any core ({!Kern.code_write_barrier}) — x86 caches are coherent,
      so cross-core stores become fetchable immediately.

    A serialising instruction ([Cpuid]/[Mfence]) or an address-space
    switch flushes the cache ({!flush}): no line it held is served
    again before it has been re-read from memory.

    Coherence is what makes pitfall P5 bite: lazypoline's two-byte
    rewrite is two separate coherent stores, so between them every
    other core can fetch (and execute) the torn [ff 05] byte pair.
    Real hardware adds a second failure mode — already-decoded stale
    micro-ops absent explicit serialisation — which is UB and
    timing-dependent; we model the deterministic torn-write half and
    document the serialisation half (see DESIGN.md).

    {2 Predecode}

    On top of the byte cache, each line lazily memoises decode results
    per entry offset ({!fetch_decode}), so the simulator's
    fetch-decode-execute loop decodes each (line, offset) pair once
    instead of re-decoding byte-by-byte every step.  The memo is part
    of the line and a pure function of its bytes: it is dropped on
    exactly the events that drop the line's bytes, so stale-I-cache
    behaviour (P3b) and torn-write behaviour (P5) are bit-for-bit
    those of the byte model.  Entries are keyed by offset, so jumping
    into the middle of an instruction still decodes the {e different}
    overlapping instruction at that offset (the P2a/P3a root cause).
    An instruction whose decode reads past the end of its line is
    never memoised: its bytes span two lines with independent
    lifetimes, and it takes the byte-by-byte path instead (see
    DESIGN.md §"Simulator performance architecture").

    {2 Flush}

    A flush drops nothing: it bumps the cache's epoch, which marks
    every line for rechecking.  The next fetch from an old-epoch line
    checks execute permission at the fetch address, as a refill would,
    and compares the line with memory.  A line whose 64 bytes are
    unchanged is stamped with the current epoch and keeps its memo;
    any other is refilled from memory.  Both ways the line ends up
    holding memory's bytes at fetch time, exactly as after a drop and
    a refill, and the memo that survives was computed from those very
    bytes.  Forked processes sharing a core run the same code at the
    same addresses, so an address-space switch costs a 64-byte compare
    per line touched instead of a refill and a re-decode. *)

open K23_isa

let line_size = 64

type line = {
  bytes : Bytes.t;
  nop_tail : int;
      (** offset where the line's trailing run of nop ([0x90]) bytes
          starts: [line_size] when the last byte is not a nop, 0 for an
          all-nop line.  A function of [bytes], computed at fill; it is
          kept and dropped with them *)
  decoded : (Insn.t * int, Decode.error) result option array;
      (** memoised decode per entry offset; only for instructions whose
          decode stayed within this line *)
  mutable stamp : int;
      (** the cache epoch in which the line was last filled or checked
          against memory *)
}

type t = {
  lines : line Inttbl.t;  (** by line index, [addr lsr line_shift] *)
  mutable epoch : int;  (** bumped by {!flush}; only current-epoch lines are served unchecked *)
  mutable last_base : int;
      (** one-entry line lookaside: base of [last_line], or [min_int].
          Straight-line execution touches the hashtable only on line
          crossings. *)
  mutable last_line : line;
  predecode : bool;
}

(* Shared placeholder behind an empty [last_base] and a missing table
   entry.  Its stamp matches no epoch, and it is never mutated. *)
let no_line = { bytes = Bytes.empty; nop_tail = 0; decoded = [||]; stamp = -1 }

(* The table starts small: every world creation and reset builds one
   cache per core, and most cores of a short run never fetch. *)
let create ?(predecode = true) () =
  { lines = Inttbl.create 16; epoch = 0; last_base = min_int; last_line = no_line; predecode }

let line_shift = 6
let line_base addr = addr land lnot (line_size - 1)

(* Offset where the trailing run of nops in [bytes] starts. *)
let nop_tail bytes =
  let rec go i = if i > 0 && Bytes.unsafe_get bytes (i - 1) = '\x90' then go (i - 1) else i in
  go line_size

(* Line holding [addr].  A current-epoch line is served as is.  A miss
   or an old-epoch line first checks execute permission at [addr] (the
   fault names the fetch address, as a fill's always has), then
   compares with memory: an old-epoch line that still matches is
   stamped current and keeps its memo, anything else is filled fresh.
   A line never crosses a page, so [addr]'s page holds all of it. *)
let get_line t (mem : Memory.t) addr =
  let base = line_base addr in
  if t.last_base = base then t.last_line
  else
    let key = addr lsr line_shift in
    let cached = Inttbl.find t.lines key ~default:no_line in
    let line =
      if cached.stamp = t.epoch then cached
      else
        let page = Memory.exec_page mem addr in
        let off = base land (Memory.page_size - 1) in
        if cached != no_line && Memory.page_equal_sub page off cached.bytes then begin
          cached.stamp <- t.epoch;
          cached
        end
        else
          let bytes = Memory.page_sub page off line_size in
          let line =
            { bytes; nop_tail = nop_tail bytes; decoded = Array.make line_size None; stamp = t.epoch }
          in
          Inttbl.replace t.lines key line;
          line
    in
    t.last_base <- base;
    t.last_line <- line;
    line

(** Fetch one instruction byte through the cache.  Fills the line from
    memory on miss (checking execute permission on the fill). *)
let fetch_u8 t (mem : Memory.t) addr =
  let line = get_line t mem addr in
  Char.code (Bytes.get line.bytes (addr - line_base addr))

(* Offset of the first non-nop byte at or after [off] in [bytes], or
   [line_size]. *)
let rec nop_run_end bytes off =
  if off < line_size && Bytes.unsafe_get bytes off = '\x90' then nop_run_end bytes (off + 1)
  else off

(** First address at or after [addr] whose cached byte is not a nop
    ([0x90]), or else the first address whose line fill faults.  One
    {!get_line} per line: lines are filled (or rechecked) in the order
    a {!fetch_u8} walk would fill them, and the walk would stop at the
    same address.  From inside a line's trailing nop run the walk
    crosses the rest of the line at once; before it, the first non-nop
    lies at or before [nop_tail - 1], found by a scan. *)
let rec skip_nops t (mem : Memory.t) addr =
  match get_line t mem addr with
  | exception Memory.Fault _ -> addr
  | line ->
    let base = line_base addr in
    let off = addr - base in
    if off < line.nop_tail then base + nop_run_end line.bytes off
    else skip_nops t mem (base + line_size)

(** Fetch one aligned 32-bit little-endian instruction word (arm64
    fixed-width fetch).  [addr] must be 4-aligned, so the word never
    straddles a 64-byte line: it sees exactly one line's (possibly
    stale) bytes, preserving the P3b semantics of the byte model. *)
let fetch_u32 t (mem : Memory.t) addr =
  let line = get_line t mem addr in
  let off = addr - line_base addr in
  let b i = Char.code (Bytes.unsafe_get line.bytes (off + i)) in
  b 0 lor (b 1 lsl 8) lor (b 2 lsl 16) lor (b 3 lsl 24)

(** Fetch and decode the instruction at [addr] through the cache.
    With predecode on, serves/fills the line's per-offset memo;
    instructions straddling the line boundary (and all fetches with
    predecode off) re-decode byte-by-byte through {!fetch_u8}.  Either
    path sees exactly the cached bytes the byte model would serve.
    @raise Memory.Fault as {!fetch_u8} (NX / unmapped fill). *)
let fetch_decode t (mem : Memory.t) addr =
  if not t.predecode then Decode.decode (fun a -> fetch_u8 t mem a) addr
  else
    let line = get_line t mem addr in
    let off = addr - line_base addr in
    match Array.unsafe_get line.decoded off with
    | Some r -> r
    | None -> (
      match Decode.decode_in line.bytes ~base:(addr - off) addr with
      | Some r ->
        Array.unsafe_set line.decoded off (Some r);
        r
      | None ->
        (* straddles into the next line, whose lifetime is independent
           of this one's — decode through the byte path, uncached *)
        Decode.decode (fun a -> fetch_u8 t mem a) addr)

(** Invalidate all lines overlapping [addr, addr+len): models the
    self-snoop a core performs on its own stores.  Drops the lines'
    predecode memos with them. *)
let invalidate_range t ~addr ~len =
  let first = line_base addr and last = line_base (addr + len - 1) in
  let b = ref first in
  while !b <= last do
    Inttbl.remove t.lines (!b lsr line_shift);
    b := !b + line_size
  done;
  if t.last_base >= first && t.last_base <= last then begin
    t.last_base <- min_int;
    t.last_line <- no_line
  end

(** Full flush (serialising instruction, address-space switch): every
    line becomes old-epoch, to be rechecked against memory on its next
    fetch. *)
let flush t =
  t.epoch <- t.epoch + 1;
  t.last_base <- min_int;
  t.last_line <- no_line

(** True when the cache currently holds a (possibly stale) copy of the
    line containing [addr]; used by tests.  A line marked by a flush
    and not fetched since is not held. *)
let holds t addr = (Inttbl.find t.lines (addr lsr line_shift) ~default:no_line).stamp = t.epoch
