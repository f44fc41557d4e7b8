(** Bounded domain pool for independent world-runs.

    Every simulated world is fully isolated (its own memory, VFS, net,
    RNG, I-caches) and deterministically seeded, so running many of
    them is embarrassingly parallel — the same property rr's extended
    technical report exploits to farm out bit-identical replays.  The
    pool keeps that determinism visible in the API:

    - tasks are numbered by their position in the input list;
    - results come back {e in input order}, whatever interleaving the
      domains actually executed ([map ~jobs:1] and [map ~jobs:64]
      return the same list for pure tasks);
    - an exception raised by a task is re-raised by {!map} — and when
      several tasks fail, the one with the {e lowest index} wins, so
      failure reporting does not depend on scheduling either.

    [jobs <= 1] (or a single task) short-circuits to a plain
    sequential loop on the calling domain: no domains are spawned and
    the code path is byte-for-byte the pre-pool one.

    The pool is deliberately dumb: a work queue drained by
    [Atomic.fetch_and_add], one domain per job, no futures, no
    work-stealing.  World-runs are coarse (milliseconds to seconds);
    queue-pop cost is noise.  What matters — and what the tests pin
    down — is that nothing observable depends on domain scheduling.

    Tasks must not share mutable state; the simulator's audit
    (DESIGN.md §4f) keeps the tree free of domain-visible globals.

    Every sweep in the tree (Tables 5 and 6, the load campaign, both
    phases of a fuzz campaign) fans out and folds back through {!map}
    or {!grid}: no caller regroups a flat result list itself. *)

(** Natural parallelism of the host ([Domain.recommended_domain_count],
    which accounts for the machine's cores). *)
let default_jobs () = Domain.recommended_domain_count ()

(** [map ~jobs f tasks] applies [f] to every task, running up to
    [jobs] at a time, and returns the results in input order.
    Re-raises the lowest-indexed task exception, after every domain
    has been joined.

    [chunk] (default 1) batches queue claims: each
    [Atomic.fetch_and_add] hands a worker the index range
    [\[i, i+chunk)], cutting contention on the shared counter when
    tasks are small (the per-mechanism compare specs of a fuzz
    campaign).  Chunking never affects results — only which domain
    runs which task.  [jobs] is clamped to the number of {e chunks},
    not tasks, so a short list never spawns domains that would exit
    without claiming work. *)
let map ~jobs ?(chunk = 1) (f : 'a -> 'b) (tasks : 'a list) : 'b list =
  if chunk < 1 then invalid_arg "Pool.map: chunk must be >= 1";
  let arr = Array.of_list tasks in
  let n = Array.length arr in
  let nchunks = (n + chunk - 1) / chunk in
  let jobs = max 1 (min jobs nchunks) in
  if jobs <= 1 then List.map f tasks
  else begin
    let results : ('b, exn * Printexc.raw_backtrace) result option array = Array.make n None in
    let next = Atomic.make 0 in
    let worker () =
      let rec loop () =
        let base = Atomic.fetch_and_add next chunk in
        if base < n then begin
          let hi = min n (base + chunk) in
          (* one backtrace capture point per chunk: [f] runs inside the
             match so [get_raw_backtrace] reads the raising task's
             trace, not a stale one from a previous iteration *)
          for i = base to hi - 1 do
            let r =
              match f arr.(i) with
              | v -> Ok v
              | exception e -> Error (e, Printexc.get_raw_backtrace ())
            in
            results.(i) <- Some r
          done;
          loop ()
        end
      in
      loop ()
    in
    let domains = Array.init jobs (fun _ -> Domain.spawn worker) in
    Array.iter Domain.join domains;
    (* joins establish happens-before: every slot is visible and filled *)
    Array.iter
      (function
        | Some (Error (e, bt)) -> Printexc.raise_with_backtrace e bt
        | Some (Ok _) | None -> ())
      results;
    List.init n (fun i ->
        match results.(i) with Some (Ok v) -> v | Some (Error _) | None -> assert false)
  end

(** [grid ~jobs ?chunk f rows cols] is the sweep engine: one task
    [f row col] per cell of the [rows] x [cols] grid, submitted
    row-major to {!map}, and the results folded back into one list per
    row, cells in [cols] order.  {!map}'s contract carries over: the
    rows do not depend on [jobs] or [chunk], and when several cells
    raise, the first one in row-major order wins.  [~chunk:(List.length
    cols)] claims one row per queue pop. *)
let grid ~jobs ?chunk f rows cols =
  let cells =
    Array.of_list
      (map ~jobs ?chunk
         (fun (r, c) -> f r c)
         (List.concat_map (fun r -> List.map (fun c -> (r, c)) cols) rows))
  in
  let ncols = List.length cols in
  List.mapi (fun i _ -> Array.to_list (Array.sub cells (i * ncols) ncols)) rows
