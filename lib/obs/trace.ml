(** The ktrace sink: an event ring plus world-level counters.

    A world owns at most one [Trace.t]; the kernel guards every
    emission site with a single [match] on that option field, so a
    world with tracing off pays one branch and zero allocation per
    would-be event (the "zero-overhead when disabled" contract,
    measured when the hooks went in: EXPERIMENTS.md "ktrace
    tracing-off overhead").

    The sink is bounded overwrite-oldest by default (tracing);
    [~unbounded:true] switches to a growing ring that never drops — the
    recorder's mode, where a lost event means an unreplayable log.  The
    optional [on_event] observer fires synchronously after each event
    is retained; the replayer uses it to diff the live stream against a
    recording *as the world runs* and to stop at an exact event index
    while machine state is still live. *)

type t = {
  ring : Event.t Ring.t;
  counters : Counters.t;
      (** world-level named counters: lifetime totals, never reset by
          execve (unlike the per-process flat fields in [Kern.counters]) *)
  mutable on_event : (Event.t -> unit) option;
      (** synchronous observer, called after each retained event *)
}

let default_capacity = 65536

let create ?(capacity = default_capacity) ?(unbounded = false) () =
  let ring =
    if unbounded then Ring.create_unbounded () else Ring.create ~capacity
  in
  { ring; counters = Counters.create (); on_event = None }

(** Record an already-built event (lets a caller share one event value
    between the ring and another consumer, e.g. a debug renderer). *)
let push t ev =
  Ring.push t.ring ev;
  match t.on_event with None -> () | Some f -> f ev

let emit t ~cycles ~pid ~tid payload = push t (Event.make ~cycles ~pid ~tid payload)

(** Oldest-first snapshot of the retained events. *)
let events t = Ring.to_list t.ring

let dropped t = Ring.dropped t.ring
let event_count t = Ring.length t.ring + Ring.dropped t.ring

let clear t =
  Ring.clear t.ring;
  Counters.clear t.counters
