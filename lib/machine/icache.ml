(** Per-core instruction cache model, with a predecode layer.

    Each core caches 64-byte lines on first fetch.  Lines are dropped
    when

    - the core itself writes to the line (self-snoop),
    - the core executes a serialising instruction ([Cpuid]/[Mfence]),
    - or the kernel performs a cache-coherent code write on behalf of
      any core ({!Kern.code_write_barrier}) — x86 caches are coherent,
      so cross-core stores become fetchable immediately.

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
    of the line: it is dropped on exactly the events that drop the
    line's bytes, so stale-I-cache behaviour (P3b) and torn-write
    behaviour (P5) are bit-for-bit those of the byte model.  Entries
    are keyed by offset, so jumping into the middle of an instruction
    still decodes the *different* overlapping instruction at that
    offset (the P2a/P3a root cause).  An instruction whose decode
    reads past the end of its line is never memoised: its bytes span
    two lines with independent lifetimes, and it takes the
    byte-by-byte path instead (see DESIGN.md §"Simulator performance
    architecture"). *)

open K23_isa

let line_size = 64

type line = {
  bytes : Bytes.t;
  decoded : (Insn.t * int, Decode.error) result option array;
      (** memoised decode per entry offset; only for instructions whose
          decode stayed within this line *)
}

type t = {
  lines : (int, line) Hashtbl.t;
  mutable last_base : int;
      (** one-entry line lookaside: base of [last_line], or [min_int].
          Straight-line execution touches the hashtable only on line
          crossings. *)
  mutable last_line : line;
  mutable predecode : bool;
      (** per-instance: worlds owned by different domains must not
          share any mutable toggle (this used to be a module-level
          [ref], which would race across a domain pool) *)
}

(* Shared placeholder behind an empty [last_base]; never read because
   every access guards on [last_base]. *)
let no_line = { bytes = Bytes.empty; decoded = [||] }

let set_predecode t on = t.predecode <- on

let create ?(predecode = true) () =
  { lines = Hashtbl.create 256; last_base = min_int; last_line = no_line; predecode }

let line_base addr = addr land lnot (line_size - 1)

(* Line holding [addr], filling from memory on miss (checking execute
   permission on the fill, at the faulting address).  A line never
   crosses a page, so once [check_exec] has found [addr]'s page the
   whole line is mapped and the fill cannot fault. *)
let get_line t (mem : Memory.t) addr =
  let base = line_base addr in
  if t.last_base = base then t.last_line
  else
    match Hashtbl.find_opt t.lines base with
    | Some line ->
      t.last_base <- base;
      t.last_line <- line;
      line
    | None ->
      Memory.check_exec mem addr;
      let bytes = Memory.read_bytes_raw mem base line_size in
      let line = { bytes; decoded = Array.make line_size None } in
      Hashtbl.replace t.lines base line;
      t.last_base <- base;
      t.last_line <- line;
      line

(** Fetch one instruction byte through the cache.  Fills the line from
    memory on miss (checking execute permission on the fill). *)
let fetch_u8 t (mem : Memory.t) addr =
  let line = get_line t mem addr in
  Char.code (Bytes.get line.bytes (addr - line_base addr))

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
    Hashtbl.remove t.lines !b;
    b := !b + line_size
  done;
  if t.last_base >= first && t.last_base <= last then begin
    t.last_base <- min_int;
    t.last_line <- no_line
  end

(** Full flush: serialising instruction executed. *)
let flush t =
  Hashtbl.reset t.lines;
  t.last_base <- min_int;
  t.last_line <- no_line

(** True when the cache currently holds a (possibly stale) copy of the
    line containing [addr]; used by tests. *)
let holds t addr = Hashtbl.mem t.lines (line_base addr)
