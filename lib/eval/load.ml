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

    Every (row, seed) pair is an independent cell of a
    {!K23_par.Pool.grid}: each row folds its seeds in order, so the
    report is byte-identical at any [--jobs]. *)

open K23_kernel
open K23_userland
module F = K23_faults.Faults
module Stats = K23_util.Stats
module Apps = K23_apps
module K23 = K23_core.K23

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

(* client-side parameters matched to the server, as in Macro.client_for *)
let client_params t =
  match t.t_workload with
  | Web -> (Apps.Webserver.header_len, 300)
  | Redis -> (64, 12_500)

let rate_of t = match t.t_workload with Web -> web_rate | Redis -> redis_rate

(** Register a tenant's server app; returns its (path, port).  Paths
    and ports are suffixed per tenant so several servers coexist in
    one world. *)
let register_tenant w idx t ~resilient =
  match t.t_workload with
  | Web ->
    let cfg = Apps.Webserver.nginx ~workers:t.t_workers ~file_size:0 ~resilient () in
    let cfg = { cfg with Apps.Webserver.path = cfg.path ^ "#" ^ t.t_tag; port = 8080 + idx } in
    Apps.Webserver.register w cfg;
    (cfg.path, cfg.port)
  | Redis ->
    let cfg = Apps.Redis_like.default ~io_threads:t.t_workers ~resilient () in
    let cfg = { cfg with Apps.Redis_like.path = cfg.path ^ "#" ^ t.t_tag; port = 6379 + idx } in
    Apps.Redis_like.register w cfg;
    (cfg.path, cfg.port)

(** K23's offline phase for one tenant: run its server briefly under
    libLogger + the ptracer enforcer, drive a short closed-loop warmup
    client, then clear the world (same recipe as {!Macro.offline_spec}). *)
let offline_tenant w t ~path ~port =
  ignore (K23.offline_spawn w ~path ());
  Macro.wait_for_listener w port;
  let resp_len, req_cost = client_params t in
  let warm =
    {
      Apps.Wrk.path = "/usr/bin/wrk-warm#" ^ t.t_tag;
      port;
      threads = t.t_workers;
      conns = 1;
      depth = 16;
      rounds = 3;
      req_cost;
      resp_len;
      arrival = Apps.Wrk.Closed;
      retries = 0;
    }
  in
  ignore (Macro.drive_client w ~client:warm);
  Macro.kill_everything w;
  K23.seal_logs w

let progress fmt = Printf.eprintf fmt

(** One seeded world-run of a row: register every tenant's server, run
    the K23 offline phases, launch all servers under their mechanisms,
    then spawn one open-loop client per tenant and run until every
    client exits.  Returns per-tenant outcomes in tenant order.

    With [?faults] (the chaos row), servers are built resilient,
    clients retry, and the fault plane is armed only once every server
    is listening: registration, offline phases, and mechanism launches
    run clean, so chaos perturbs the measured load phase and nothing
    else.  The armed plan derives its seed from the run seed, keeping
    every (row, seed) task's schedule independent but reproducible. *)
let run_one ~requests ~seed ?faults (rs : row_spec) : (string * tenant_out) list =
  progress "[load] %s / %s / seed %d\n%!" rs.rs_workload rs.rs_mech_label seed;
  let w = Sim.create_world ~seed ~quantum:8 () in
  let infos =
    List.mapi
      (fun idx t ->
        let path, port = register_tenant w idx t ~resilient:(faults <> None) in
        (t, path, port))
      rs.rs_tenants
  in
  List.iter
    (fun (t, path, port) -> if Mech.needs_offline t.t_mech then offline_tenant w t ~path ~port)
    infos;
  Kern.sync_cores w;
  List.iter
    (fun (t, path, _) ->
      match Mech.launch t.t_mech w ~path () with
      | Error e ->
        failwith (Printf.sprintf "load: %s launch failed: %d" (Mech.to_string t.t_mech) e)
      | Ok _ -> ())
    infos;
  List.iter (fun (_, _, port) -> Macro.wait_for_listener w port) infos;
  (* phase boundary: wall time has passed on every core *)
  Kern.sync_cores w;
  (match faults with
  | None -> ()
  | Some p ->
    w.Kern.faults <- Some { p with F.fseed = p.F.fseed + seed };
    Kern.fault_reset w);
  let clients =
    List.map
      (fun (t, _, port) ->
        let resp_len, req_cost = client_params t in
        let ccfg =
          {
            Apps.Wrk.path = "/usr/bin/wrk#" ^ t.t_tag;
            port;
            threads = t.t_workers;
            conns = 1;
            depth = 0;
            rounds = 0;
            req_cost;
            resp_len;
            arrival = Apps.Wrk.Open { rate = rate_of t; requests; seed = seed + 77 };
            retries = (if faults = None then 0 else 8);
          }
        in
        (t, Apps.Wrk.register w ccfg, ccfg))
      infos
  in
  let procs =
    List.map
      (fun (_, _, ccfg) ->
        match World.spawn w ~path:ccfg.Apps.Wrk.path () with
        | Error e -> failwith (Printf.sprintf "load: client spawn failed: %d" e)
        | Ok p -> p)
      clients
  in
  (* under chaos a pathological fault draw can strand a client mid
     protocol (e.g. a reset abandoning a half-sent frame); a deadlocked
     world just means those requests are lost, which the completed
     counters already reflect — don't lose the whole row to it *)
  (try Kern.run ~max_steps:600_000_000 ~until:(fun () -> List.for_all Kern.proc_dead procs) w
   with Kern.Deadlock _ -> ());
  let t_end = Kern.now w in
  Macro.kill_everything w;
  List.map
    (fun (t, (res : Apps.Wrk.results), _) ->
      let tput =
        match res.started_at with
        | Some t0 when res.completed > 0 && t_end > t0 ->
          float_of_int res.completed *. float_of_int Kern.cycles_per_sec
          /. float_of_int (t_end - t0)
        | _ -> 0.0
      in
      ( t.t_tag,
        {
          to_completed = res.completed;
          to_errors = res.errors;
          to_lat = List.rev res.latencies;
          to_tput = tput;
        } ))
    clients

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
