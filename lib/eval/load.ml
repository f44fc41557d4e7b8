(** Open-loop heavy-traffic latency campaign (the [table6-load]
    experiment).

    Table 6 reports mean closed-loop requests/sec, but the production
    question is tail-shaped: what happens to p99/p999 request latency
    under each interposer when requests keep arriving whether or not
    the server has caught up?  This campaign drives the Table 6 server
    models with {!Apps.Wrk}'s open-loop mode — a seeded-PRNG Poisson
    arrival process scheduling sends independently of responses — and
    reads per-request latency from the kernel's simulated-time request
    stamps, so queueing delay is visible instead of being absorbed by
    the closed loop.

    Rows:
    - one per mechanism (native baseline + the Table 6 columns) for a
      webserver fleet and a redis-like fleet, and
    - one {e mixed-tenant} row: three single-worker webservers in the
      {e same world}, one native, one under K23, one under SUD — the
      per-tenant-privilege scenario of "Making 'syscall' a Privilege
      not a Right" (PAPERS.md).  Tenants share the simulated machine,
      so a heavyweight interposer on one tenant shows up in the
      others' tails.

    Each (row, seed) run goes through {!Macro.run_servers}, the one
    server-scenario path Table 6 also uses: this module keeps only the
    row specs, the open-loop clients, aggregation and rendering.  A
    run that deadlocks or outlives its step budget raises [Failure]
    naming the clients and the blocked tids; it is never folded in as
    a short count.

    Every (row, seed) pair is an independent cell of a
    {!K23_par.Pool.grid}: each row folds its seeds in order, so the
    report is byte-identical at any [--jobs]. *)

open K23_kernel
module F = K23_faults.Faults
module Stats = K23_util.Stats
module Apps = K23_apps

type workload = Web | Redis

type tenant = {
  t_tag : string;  (** distinguishes paths/ports within one world *)
  t_mech : Mech.t;
  t_workload : workload;
  t_workers : int;  (** server workers = client threads (conns=1 each) *)
}

type row_spec = { rs_workload : string; rs_mech_label : string; rs_tenants : tenant list }

(* Arrival rates (requests/sec per client thread), chosen to put the
   native server at moderate utilisation so the interposers' extra
   per-request cycles move the queue, not just the mean: the
   webserver's ~22k-cycle request service costs ~0.4 utilisation at
   60k req/s on a 3.2 GHz simulated core. *)
let web_rate = 60_000
let redis_rate = 80_000

let uniform wl mech =
  match wl with
  | Web ->
    {
      rs_workload = "nginx-open (2 workers, 0 KB)";
      rs_mech_label = Mech.to_string mech;
      rs_tenants = [ { t_tag = "t0"; t_mech = mech; t_workload = Web; t_workers = 2 } ];
    }
  | Redis ->
    {
      rs_workload = "redis-open (1 I/O thread)";
      rs_mech_label = Mech.to_string mech;
      rs_tenants = [ { t_tag = "t0"; t_mech = mech; t_workload = Redis; t_workers = 1 } ];
    }

let mixed =
  {
    rs_workload = "nginx-open mixed tenants (1 worker each)";
    rs_mech_label = "mixed(native+K23-default+SUD)";
    rs_tenants =
      [
        { t_tag = "native"; t_mech = Mech.Native; t_workload = Web; t_workers = 1 };
        { t_tag = "k23"; t_mech = Mech.K23_default; t_workload = Web; t_workers = 1 };
        { t_tag = "sud"; t_mech = Mech.Sud; t_workload = Web; t_workers = 1 };
      ];
  }

(** The full campaign: native + Table 6 columns per workload, then the
    mixed-tenant row. *)
let all_specs =
  let mechs = Mech.Native :: Mech.table6_cols in
  List.map (uniform Web) mechs @ List.map (uniform Redis) mechs @ [ mixed ]

(* ------------------------------------------------------------------ *)
(* One world-run                                                       *)

(** Per-tenant outcome of one seeded run. *)
type tenant_out = {
  to_completed : int;
  to_errors : int;
  to_lat : int list;  (** per-request latency, cycles, oldest first *)
  to_tput : float;  (** completed req/s over the load phase *)
}

(** A tenant as a {!Macro.tenant}: its server's path and port are
    suffixed per tenant so several servers coexist in one world, and
    its client is {!Macro.client_for}'s, switched to open-loop
    arrivals. *)
let scenario_tenant ~requests ~seed ~resilient idx t =
  let tag path = path ^ "#" ^ t.t_tag in
  let workload, rate =
    match t.t_workload with
    | Web ->
      let cfg = Apps.Webserver.nginx ~workers:t.t_workers ~file_size:0 ~resilient () in
      (Macro.Web { cfg with path = tag cfg.path; port = 8080 + idx }, web_rate)
    | Redis ->
      let cfg = Apps.Redis_like.default ~io_threads:t.t_workers ~resilient () in
      (Macro.Redis { cfg with path = tag cfg.path; port = 6379 + idx }, redis_rate)
  in
  let spec = { Macro.label = t.t_tag; workload; rounds = 0 } in
  let client = Option.get (Macro.client_for spec ~rounds:0) in
  let client =
    {
      client with
      path = tag client.path;
      arrival = Apps.Wrk.Open { rate; requests; seed = seed + 77 };
      retries = (if resilient then 8 else 0);
    }
  in
  { Macro.spec; mech = t.t_mech; client }

let progress fmt = Printf.eprintf fmt

(** One seeded world-run of a row through {!Macro.run_servers}: one
    open-loop client per tenant.  Returns per-tenant outcomes in tenant
    order.

    With [?faults] (the chaos row), servers are built resilient and
    clients retry; the runner arms the plan only once every server is
    listening, with its seed offset by the run seed. *)
let run_one ~requests ~seed ?faults (rs : row_spec) : (string * tenant_out) list =
  progress "[load] %s / %s / seed %d\n%!" rs.rs_workload rs.rs_mech_label seed;
  let resilient = faults <> None in
  let tenants = List.mapi (scenario_tenant ~requests ~seed ~resilient) rs.rs_tenants in
  List.map2
    (fun t ((res : Apps.Wrk.results), tput) ->
      ( t.t_tag,
        {
          to_completed = res.completed;
          to_errors = res.errors;
          to_lat = List.rev res.latencies;
          to_tput = tput;
        } ))
    rs.rs_tenants
    (Macro.run_servers ~seed ?faults tenants)

(* ------------------------------------------------------------------ *)
(* Aggregation                                                         *)

type tenant_row = {
  tr_tag : string;
  tr_mech : string;
  tr_samples : int;
  tr_completed : int;
  tr_errors : int;
  tr_p50 : int;
  tr_p99 : int;
  tr_p999 : int;
}

type row = {
  r_workload : string;
  r_mech : string;
  r_samples : int;
  r_completed : int;
  r_errors : int;
  r_tput : float;  (** req/s summed over tenants, mean over seeds *)
  r_p50 : int;
  r_p99 : int;
  r_p999 : int;
  r_mean : float;
  r_hist : (int * int * int) list;  (** log-bucketed: (lo, hi, count) *)
  r_tenants : tenant_row list;
}

type report = {
  rep_quick : bool;
  rep_runs : int;
  rep_requests : int;
  rep_faults : string option;
      (** chaos row only: the armed plan, {!F.to_string}-rendered *)
  rep_rows : row list;
}

let pct lat p =
  match lat with
  | [] -> 0
  | _ -> int_of_float (Stats.percentile p (List.map float_of_int lat))

(** Fold one row's seeded runs (tenant outcomes per seed) into a
    reported row: latency samples pool across seeds — and, for the
    row-level figures, across tenants. *)
let assemble rs (outs : (string * tenant_out) list list) =
  let runs = List.length outs in
  let tenant_rows =
    List.map
      (fun t ->
        let mine = List.map (fun ro -> List.assoc t.t_tag ro) outs in
        let lat = List.concat_map (fun o -> o.to_lat) mine in
        {
          tr_tag = t.t_tag;
          tr_mech = Mech.to_string t.t_mech;
          tr_samples = List.length lat;
          tr_completed = List.fold_left (fun a o -> a + o.to_completed) 0 mine;
          tr_errors = List.fold_left (fun a o -> a + o.to_errors) 0 mine;
          tr_p50 = pct lat 50.0;
          tr_p99 = pct lat 99.0;
          tr_p999 = pct lat 99.9;
        })
      rs.rs_tenants
  in
  let all_lat = List.concat_map (fun ro -> List.concat_map (fun (_, o) -> o.to_lat) ro) outs in
  let hist = Stats.Hist.create () in
  List.iter (Stats.Hist.add hist) all_lat;
  let tput_per_run =
    List.map (fun ro -> List.fold_left (fun a (_, o) -> a +. o.to_tput) 0.0 ro) outs
  in
  {
    r_workload = rs.rs_workload;
    r_mech = rs.rs_mech_label;
    r_samples = List.length all_lat;
    r_completed = List.fold_left (fun a t -> a + t.tr_completed) 0 tenant_rows;
    r_errors = List.fold_left (fun a t -> a + t.tr_errors) 0 tenant_rows;
    r_tput = (if runs = 0 then 0.0 else List.fold_left ( +. ) 0.0 tput_per_run /. float_of_int runs);
    r_p50 = pct all_lat 50.0;
    r_p99 = pct all_lat 99.0;
    r_p999 = pct all_lat 99.9;
    r_mean = Stats.Hist.mean hist;
    r_hist = Stats.Hist.buckets hist;
    r_tenants = tenant_rows;
  }

(* ------------------------------------------------------------------ *)
(* Campaign                                                            *)

let seeds runs = List.init runs (fun i -> 4_000 + (i * 17))

(** Run the campaign: one {!run_one} per (row, seed) cell of a
    {!K23_par.Pool.grid}, sharded over [jobs] domains.  Each row gets
    its runs back in seed order, so the report (and its JSON
    rendering) is byte-identical whatever [jobs] is. *)
let campaign ?(quick = false) ?(jobs = 1) ?runs ?requests ?(specs = all_specs) ?faults () =
  let runs = match runs with Some r -> r | None -> if quick then 1 else 3 in
  let requests = match requests with Some r -> r | None -> if quick then 64 else 400 in
  let outs =
    K23_par.Pool.grid ~jobs (fun rs seed -> run_one ~requests ~seed ?faults rs) specs (seeds runs)
  in
  let rows = List.map2 assemble specs outs in
  {
    rep_quick = quick;
    rep_runs = runs;
    rep_requests = requests;
    rep_faults = Option.map F.to_string faults;
    rep_rows = rows;
  }

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)

let us_of_cycles c = float_of_int c *. 1e6 /. float_of_int Kern.cycles_per_sec

let render rep =
  let buf = Buffer.create 2048 in
  Buffer.add_string buf
    (Printf.sprintf "%d seed(s), %d requests/thread, open-loop Poisson arrivals\n" rep.rep_runs
       rep.rep_requests);
  (match rep.rep_faults with
  | None -> ()
  | Some f -> Buffer.add_string buf (Printf.sprintf "chaos: %s (+seed per run)\n" f));
  Buffer.add_char buf '\n';
  Buffer.add_string buf
    (Printf.sprintf "%-36s %-28s %9s %9s %9s %10s %7s %9s\n" "workload" "mechanism" "p50_us"
       "p99_us" "p999_us" "completed" "errors" "kreq/s");
  List.iter
    (fun r ->
      Buffer.add_string buf
        (Printf.sprintf "%-36s %-28s %9.1f %9.1f %9.1f %10d %7d %9.1f\n" r.r_workload r.r_mech
           (us_of_cycles r.r_p50) (us_of_cycles r.r_p99) (us_of_cycles r.r_p999) r.r_completed
           r.r_errors (r.r_tput /. 1000.0));
      if List.length r.r_tenants > 1 then
        List.iter
          (fun t ->
            Buffer.add_string buf
              (Printf.sprintf "  tenant %-29s %-28s %9.1f %9.1f %9.1f %10d %7d\n" t.tr_tag
                 t.tr_mech (us_of_cycles t.tr_p50) (us_of_cycles t.tr_p99)
                 (us_of_cycles t.tr_p999) t.tr_completed t.tr_errors))
          r.r_tenants)
    rep.rep_rows;
  Buffer.contents buf

(** Hand-rendered JSON, like {!K23_obs.Render}: fixed key order, ints
    and fixed-precision floats only, so a seeded campaign renders to a
    byte-identical document at any [--jobs]. *)
let render_json rep =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    (Printf.sprintf "{\n  \"experiment\": \"%s\",\n"
       (match rep.rep_faults with None -> "table6-load" | Some _ -> "table6-chaos"));
  (match rep.rep_faults with
  | None -> ()
  | Some f -> Buffer.add_string buf (Printf.sprintf "  \"faults\": \"%s\",\n" f));
  Buffer.add_string buf
    (Printf.sprintf
       "  \"quick\": %b,\n\
       \  \"runs\": %d,\n\
       \  \"requests_per_thread\": %d,\n\
       \  \"web_rate\": %d,\n\
       \  \"redis_rate\": %d,\n\
       \  \"cycles_per_sec\": %d,\n\
       \  \"rows\": [\n"
       rep.rep_quick rep.rep_runs rep.rep_requests web_rate redis_rate Kern.cycles_per_sec);
  let nrows = List.length rep.rep_rows in
  List.iteri
    (fun i r ->
      let tenants =
        String.concat ","
          (List.map
             (fun t ->
               Printf.sprintf
                 "{\"tenant\": \"%s\", \"mech\": \"%s\", \"samples\": %d, \"completed\": %d, \
                  \"errors\": %d, \"p50\": %d, \"p99\": %d, \"p999\": %d}"
                 t.tr_tag t.tr_mech t.tr_samples t.tr_completed t.tr_errors t.tr_p50 t.tr_p99
                 t.tr_p999)
             r.r_tenants)
      in
      let hist =
        String.concat ","
          (List.map (fun (lo, hi, n) -> Printf.sprintf "[%d,%d,%d]" lo hi n) r.r_hist)
      in
      Buffer.add_string buf
        (Printf.sprintf
           "    {\"workload\": \"%s\", \"mech\": \"%s\", \"samples\": %d, \"completed\": %d, \
            \"errors\": %d, \"throughput_rps\": %.1f, \"p50\": %d, \"p99\": %d, \"p999\": %d, \
            \"mean\": %.1f,\n\
           \     \"tenants\": [%s],\n\
           \     \"histogram\": [%s]}%s\n"
           r.r_workload r.r_mech r.r_samples r.r_completed r.r_errors r.r_tput r.r_p50 r.r_p99
           r.r_p999 r.r_mean tenants hist
           (if i < nrows - 1 then "," else "")))
    rep.rep_rows;
  Buffer.add_string buf "  ]\n}\n";
  Buffer.contents buf
