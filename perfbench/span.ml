(** In-memory span tracer for the benchmark's traced run.

    A span is opened around a call into one layer's public function and
    closed when the call returns or raises.  On close its self time
    (duration minus the time its child spans cover) is added to the
    span name's row and to its folded call path, so the layer split is
    ready when the run ends without storing every span.  Spans that
    fire per simulated syscall are only aggregated; every other span
    is also kept as a (name, start, end, parent, item) record and
    written out at exit.

    When [enabled] is false a span costs one branch: the untraced run
    and the counting pass go through the same wrappers. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

let enabled = ref false

(* ---- interned names and call paths -------------------------------- *)

let names : string array ref = ref [||]
let name_ids : (string, int) Hashtbl.t = Hashtbl.create 64

let id name =
  match Hashtbl.find_opt name_ids name with
  | Some i -> i
  | None ->
    let i = Array.length !names in
    names := Array.append !names [| name |];
    Hashtbl.replace name_ids name i;
    i

let name i = !names.(i)

(* path id -> (parent path id, name id); path 0 is the empty root *)
let path_parent = ref [| -1 |]
let path_name = ref [| -1 |]
let path_ids : (int * int, int) Hashtbl.t = Hashtbl.create 256

let path_of ~parent nid =
  match Hashtbl.find_opt path_ids (parent, nid) with
  | Some p -> p
  | None ->
    let p = Array.length !path_parent in
    path_parent := Array.append !path_parent [| parent |];
    path_name := Array.append !path_name [| nid |];
    Hashtbl.replace path_ids (parent, nid) p;
    p

(* ---- accumulators -------------------------------------------------- *)

type row = { mutable calls : int; mutable self_ns : int; mutable total_ns : int }

let rows : (int, row) Hashtbl.t = Hashtbl.create 64
let folded : (int, int ref) Hashtbl.t = Hashtbl.create 256

type record = {
  r_span : int;
  r_name : int;
  r_start : int;
  r_end : int;
  r_parent : int;  (** nearest recorded ancestor; 0 = none *)
  r_item : int;
}

let records : record list ref = ref []
let next_span = ref 1

(* the item (fuzz oracle run, Table 5 run, Table 6 cell) spans belong to *)
let item = ref 0

(* names whose spans are aggregated but not recorded one by one *)
let hot : (int, unit) Hashtbl.t = Hashtbl.create 64
let mark_hot nid = Hashtbl.replace hot nid ()

type frame = {
  f_name : int;
  f_span : int;
  f_rparent : int;  (** nearest recorded ancestor span *)
  f_path : int;
  f_start : int;
  mutable f_child : int;
}

let stack : frame list ref = ref []

let row nid =
  match Hashtbl.find_opt rows nid with
  | Some r -> r
  | None ->
    let r = { calls = 0; self_ns = 0; total_ns = 0 } in
    Hashtbl.replace rows nid r;
    r

let enter nid =
  let parent_path, rparent =
    match !stack with
    | f :: _ -> (f.f_path, if Hashtbl.mem hot f.f_name then f.f_rparent else f.f_span)
    | [] -> (0, 0)
  in
  let sp = !next_span in
  incr next_span;
  stack :=
    {
      f_name = nid;
      f_span = sp;
      f_rparent = rparent;
      f_path = path_of ~parent:parent_path nid;
      f_start = now_ns ();
      f_child = 0;
    }
    :: !stack

let leave () =
  let t = now_ns () in
  match !stack with
  | [] -> invalid_arg "Span.leave: no open span"
  | f :: rest ->
    stack := rest;
    let dur = t - f.f_start in
    let self = dur - f.f_child in
    (match rest with p :: _ -> p.f_child <- p.f_child + dur | [] -> ());
    let r = row f.f_name in
    r.calls <- r.calls + 1;
    r.self_ns <- r.self_ns + self;
    (* no layer wraps a call into itself, so the sum of durations is
       the layer's inclusive time *)
    r.total_ns <- r.total_ns + dur;
    (match Hashtbl.find_opt folded f.f_path with
    | Some c -> c := !c + self
    | None -> Hashtbl.replace folded f.f_path (ref self));
    if not (Hashtbl.mem hot f.f_name) then
      records :=
        {
          r_span = f.f_span;
          r_name = f.f_name;
          r_start = f.f_start;
          r_end = t;
          r_parent = f.f_rparent;
          r_item = !item;
        }
        :: !records

(** [with_ nid f] runs [f] inside a span named [nid] (when enabled). *)
let with_ nid f =
  if not !enabled then f ()
  else begin
    enter nid;
    match f () with
    | v ->
      leave ();
      v
    | exception e ->
      leave ();
      raise e
  end

let reset () =
  Hashtbl.reset rows;
  Hashtbl.reset folded;
  records := [];
  next_span := 1;
  item := 0;
  stack := []

(* ---- read-out ------------------------------------------------------- *)

let self_s nid = match Hashtbl.find_opt rows nid with Some r -> float_of_int r.self_ns /. 1e9 | None -> 0.0
let total_s nid = match Hashtbl.find_opt rows nid with Some r -> float_of_int r.total_ns /. 1e9 | None -> 0.0
let calls nid = match Hashtbl.find_opt rows nid with Some r -> r.calls | None -> 0

(** Every row with at least one call, as (name, calls, self s, total s). *)
let table () =
  Hashtbl.fold
    (fun nid r acc ->
      (name nid, r.calls, float_of_int r.self_ns /. 1e9, float_of_int r.total_ns /. 1e9) :: acc)
    rows []
  |> List.sort compare

let rec path_string p =
  if p = 0 then ""
  else
    let parent = !path_parent.(p) in
    let here = name !path_name.(p) in
    if parent = 0 then here else path_string parent ^ ";" ^ here

(** Folded-stack text ("a;b;c <self ns>" per line), flamegraph input. *)
let folded_lines () =
  Hashtbl.fold (fun p c acc -> (path_string p, !c) :: acc) folded []
  |> List.filter (fun (_, ns) -> ns > 0)
  |> List.sort compare
  |> List.map (fun (s, ns) -> Printf.sprintf "%s %d" s ns)

(** Recorded spans in start order, one tab-separated line each:
    span id, name, start ns, end ns, parent span id, item id. *)
let record_lines () =
  List.sort (fun a b -> compare a.r_span b.r_span) !records
  |> List.map (fun r ->
         Printf.sprintf "%d\t%s\t%d\t%d\t%d\t%d" r.r_span (name r.r_name) r.r_start r.r_end
           r.r_parent r.r_item)
