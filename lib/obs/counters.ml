(** Named-counter registry, kept by the ktrace sink for the whole world.

    A string-keyed registry: any subsystem can mint a counter by
    incrementing it, and consumers enumerate whatever exists — no
    record edit per new metric.  Reads of absent counters are 0, so
    producers and consumers stay decoupled.

    Naming convention (dotted hierarchy): ["sys.app"], ["sys.nr.<n>"],
    ["sud.block"], ["ptrace.stop"], ["trap.fault"], ... *)

type t = { tbl : (string, int ref) Hashtbl.t }

let create () = { tbl = Hashtbl.create 32 }

let incr ?(by = 1) t name =
  match Hashtbl.find_opt t.tbl name with
  | Some r -> r := !r + by
  | None -> Hashtbl.replace t.tbl name (ref by)

let get t name = match Hashtbl.find_opt t.tbl name with Some r -> !r | None -> 0

let clear t = Hashtbl.reset t.tbl

(** All counters, sorted by name at the source — the only enumeration
    order offered, so every consumer (renderers, summaries, reports)
    is deterministic regardless of hash order without sorting
    themselves. *)
let to_list t =
  List.sort (fun (a, _) (b, _) -> String.compare a b) (Hashtbl.fold (fun k r acc -> (k, !r) :: acc) t.tbl [])
