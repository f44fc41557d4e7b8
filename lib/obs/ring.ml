(** Ring buffer event sink: bounded overwrite-oldest, or unbounded.

    The default ktrace sink keeps the most recent [capacity] entries
    and counts what it evicted.  Overwriting (rather than blocking or
    growing without bound) makes the memory bound explicit — the same
    design as the kernel's own trace ring and rr's event buffers.

    The array is allocated on use: it starts at [min capacity 1024]
    slots and doubles as it fills, up to [capacity], and only then
    starts overwriting.  A short run (a fuzz oracle run records a few
    hundred events) never pays for the full window; the retained
    window and the [dropped] count are those of a ring allocated at
    full size.

    The recorder (lib/replay) needs the complete stream: a recording
    with silently-dropped events can never replay.  [create_unbounded]
    is the same ring with no limit, so [dropped] stays 0 by
    construction and every push is retained. *)

type 'a t = {
  mutable buf : 'a option array;
  mutable cap : int;  (** allocated slots, <= [limit] *)
  limit : int;  (** most entries retained; [max_int] = unbounded *)
  mutable next : int;  (** slot the next push writes *)
  mutable len : int;  (** live entries, <= cap *)
  mutable dropped : int;  (** entries overwritten since creation/clear *)
}

let default_initial = 1024

let make ~initial ~limit =
  { buf = Array.make initial None; cap = initial; limit; next = 0; len = 0; dropped = 0 }

let create ~capacity =
  if capacity <= 0 then invalid_arg "Ring.create: capacity must be positive";
  make ~initial:(min capacity default_initial) ~limit:capacity

let create_unbounded ?(initial = default_initial) () =
  if initial <= 0 then invalid_arg "Ring.create_unbounded: initial must be positive";
  make ~initial ~limit:max_int

(** Most entries retained ([max_int] when unbounded). *)
let capacity r = r.limit

let length r = r.len
let dropped r = r.dropped
let bounded r = r.limit <> max_int

(* Double the array (capped at [limit]), unrolling the circular window
   so the oldest entry lands at index 0 (after a grow, [next] never
   wraps until the next grow, since len = old cap < new cap). *)
let grow r =
  let ncap = if r.cap > r.limit / 2 then r.limit else r.cap * 2 in
  let nbuf = Array.make ncap None in
  let start = (r.next - r.len + r.cap) mod r.cap in
  for i = 0 to r.len - 1 do
    nbuf.(i) <- r.buf.((start + i) mod r.cap)
  done;
  r.buf <- nbuf;
  r.cap <- ncap;
  r.next <- r.len

let push r x =
  if r.len = r.cap then
    if r.cap < r.limit then grow r else r.dropped <- r.dropped + 1;
  if r.len < r.cap then r.len <- r.len + 1;
  r.buf.(r.next) <- Some x;
  r.next <- (r.next + 1) mod r.cap

let clear r =
  Array.fill r.buf 0 r.cap None;
  r.next <- 0;
  r.len <- 0;
  r.dropped <- 0

(** Oldest-first snapshot of the live entries. *)
let to_list r =
  let start = (r.next - r.len + r.cap) mod r.cap in
  List.init r.len (fun i ->
      match r.buf.((start + i) mod r.cap) with
      | Some x -> x
      | None -> invalid_arg "Ring.to_list: corrupt ring")

(** Oldest-first fold without materialising a list: walks the circular
    array in place (once per-request latency events run through the
    ring at campaign scale, a [to_list] per fold would allocate the
    whole window on every summary pass). *)
let fold f acc r =
  let start = (r.next - r.len + r.cap) mod r.cap in
  let acc = ref acc in
  for i = 0 to r.len - 1 do
    match r.buf.((start + i) mod r.cap) with
    | Some x -> acc := f !acc x
    | None -> invalid_arg "Ring.fold: corrupt ring"
  done;
  !acc

let iter f r = fold (fun () x -> f x) () r
