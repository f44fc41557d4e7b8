(** Macrobenchmarks (Table 6): nginx / lighttpd (1 and 10 workers, 0
    and 4 KiB files), redis (1 and 6 I/O threads, 100% GET), and
    sqlite speedtest1 — each driven exactly as in Section 6.2.2:
    clients and servers on the same machine over loopback, client
    threads matched to server workers, 16 connections per client
    thread. *)

open K23_kernel
open K23_userland
module Stats = K23_util.Stats
module Apps = K23_apps
module K23 = K23_core.K23

type workload =
  | Web of Apps.Webserver.config
  | Redis of Apps.Redis_like.config
  | Sqlite of Apps.Sqlite_like.config

type spec = { label : string; workload : workload; rounds : int }

let nginx ~workers ~kb =
  {
    label = Printf.sprintf "nginx (%d worker%s, %d KB)" workers (if workers > 1 then "s" else "") kb;
    workload = Web (Apps.Webserver.nginx ~workers ~file_size:(kb * 1024) ());
    rounds = 24;
  }

let lighttpd ~workers ~kb =
  {
    label =
      Printf.sprintf "lighttpd (%d worker%s, %d KB)" workers (if workers > 1 then "s" else "") kb;
    workload = Web (Apps.Webserver.lighttpd ~workers ~file_size:(kb * 1024) ());
    rounds = 24;
  }

let redis ~io_threads =
  {
    label = Printf.sprintf "redis (%d I/O thread%s)" io_threads (if io_threads > 1 then "s" else "");
    workload = Redis (Apps.Redis_like.default ~io_threads ());
    rounds = 24;
  }

let sqlite =
  {
    label = "sqlite (speedtest1, size 800)";
    workload = Sqlite (Apps.Sqlite_like.default ~ops:4000 ());
    rounds = 0;
  }

(** The paper's Table 6 rows. *)
let all_specs =
  [
    nginx ~workers:1 ~kb:0;
    nginx ~workers:1 ~kb:4;
    nginx ~workers:10 ~kb:0;
    nginx ~workers:10 ~kb:4;
    lighttpd ~workers:1 ~kb:0;
    lighttpd ~workers:1 ~kb:4;
    lighttpd ~workers:10 ~kb:0;
    lighttpd ~workers:10 ~kb:4;
    redis ~io_threads:1;
    redis ~io_threads:6;
    sqlite;
  ]

let is_throughput spec = match spec.workload with Sqlite _ -> false | Web _ | Redis _ -> true

let register_workload w spec =
  match spec.workload with
  | Web cfg ->
    Apps.Webserver.register w cfg;
    (cfg.path, cfg.port)
  | Redis cfg ->
    Apps.Redis_like.register w cfg;
    (cfg.path, cfg.port)
  | Sqlite cfg ->
    Apps.Sqlite_like.register w cfg;
    (cfg.path, 0)

(** Client configuration matched to the server: one client thread per
    worker/IO-thread, 16 connections each (Section 6.2.2).  The
    redis-benchmark client does substantially more per-request work
    than wrk, which is what makes single-threaded redis client-bound. *)
let client_for spec ~rounds =
  match spec.workload with
  | Web cfg ->
    Some
      {
        Apps.Wrk.path = "/usr/bin/wrk";
        port = cfg.port;
        threads = cfg.workers;
        conns = 1;
        depth = 16;
        rounds;
        req_cost = 300;
        resp_len = Apps.Webserver.header_len + cfg.file_size;
        arrival = Apps.Wrk.Closed;
        retries = 0;
      }
  | Redis cfg ->
    Some
      {
        Apps.Wrk.path = "/usr/bin/redis-benchmark";
        port = cfg.port;
        threads = cfg.io_threads;
        conns = 1;
        depth = 16;
        rounds;
        req_cost = 12_500;
        resp_len = 64;
        arrival = Apps.Wrk.Closed;
        retries = 0;
      }
  | Sqlite _ -> None

(** Run the world until a server listens on [port].
    @raise Failure naming the port when the run ends first: every
    process exited or the step budget ran out. *)
let wait_for_listener w port =
  let listening () = Hashtbl.mem w.Kern.net.listeners port in
  Kern.run ~max_steps:20_000_000 ~until:listening w;
  if not (listening ()) then
    failwith (Printf.sprintf "no listener on port %d: the run ended before a server bound it" port)

let kill_everything w =
  List.iter (fun p -> if not (Kern.proc_dead p) then Kern.kill_proc p ~signal:9) w.Kern.procs

(** Run [w] until [until] holds, under the one step budget of every
    client run and of sqlite's run.
    @raise Failure naming [what] when the world deadlocks first (with
    the blocked tids) or the step budget runs out. *)
let run_or_fail w ~what ~until =
  (try Kern.run ~max_steps:400_000_000 ~until w
   with Kern.Deadlock why -> failwith (Printf.sprintf "%s deadlocked: %s" what why));
  if not (until ()) then failwith (Printf.sprintf "%s still running: the step budget ran out" what)

(** Spawn every client against the running servers and run until all
    of them exit, under one step budget.  Returns each client's
    results and requests/sec, in order.
    @raise Failure naming the clients, as {!run_or_fail}. *)
let drive_clients w clients =
  let results = List.map (Apps.Wrk.register w) clients in
  let procs =
    List.map
      (fun (c : Apps.Wrk.config) ->
        match World.spawn w ~path:c.path () with
        | Error e -> failwith (Printf.sprintf "client %s spawn failed: %d" c.path e)
        | Ok p -> p)
      clients
  in
  let names = String.concat ", " (List.map (fun (c : Apps.Wrk.config) -> c.path) clients) in
  run_or_fail w ~what:("clients " ^ names) ~until:(fun () -> List.for_all Kern.proc_dead procs);
  let t_end = Kern.now w in
  List.map
    (fun (r : Apps.Wrk.results) ->
      let tput =
        match r.started_at with
        | Some t0 when r.completed > 0 && t_end > t0 ->
          float_of_int r.completed *. float_of_int Kern.cycles_per_sec /. float_of_int (t_end - t0)
        | _ -> 0.0
      in
      (r, tput))
    results

(** K23's offline phase for a server spec: run the real workload
    briefly under libLogger (Section 6.2: "we first performed its
    offline phase by running the relevant benchmarks"). *)
let offline_spec w spec ~path ~port =
  (match spec.workload with
  | Sqlite _ -> ignore (K23.offline_run w ~path ~max_steps:80_000_000 ())
  | Web _ | Redis _ ->
    ignore (K23.offline_spawn w ~path ());
    wait_for_listener w port;
    (match client_for spec ~rounds:3 with
    | Some client -> ignore (drive_clients w [ client ])
    | None -> ());
    kill_everything w);
  K23.seal_logs w

(** One server of a scenario: its spec, the mechanism it runs under
    and the client that drives it. *)
type tenant = { spec : spec; mech : Mech.t; client : Apps.Wrk.config }

(** The one server-scenario runner, behind Table 6's server rows and
    the load and chaos campaigns ({!Load}).  In order:
    + build a world at quantum 8 and register every server;
    + K23's offline phase for each tenant that needs it, then
      [sync_cores];
    + launch every server, wait for every listener, then [sync_cores]
      (phase boundary: wall time has passed on every core);
    + arm [faults], its seed offset by the run seed, so only the
      measured phase is perturbed and each seed draws its own
      schedule;
    + run every client through {!drive_clients}, under one step
      budget;
    + {!kill_everything}.
    Returns each tenant's client results and requests/sec, in tenant
    order.
    @raise Failure when a launch fails, a listener never appears, or
    the clients deadlock or outlive the step budget. *)
let run_servers ~seed ?faults tenants =
  (* a fine scheduling quantum approximates truly concurrent cores:
     with coarse slices the simulated servers can drain their request
     queues and stall in lockstep, an artifact real hardware does not
     have *)
  let w = Sim.create_world ~seed ~quantum:8 () in
  let served = List.map (fun t -> (t, register_workload w t.spec)) tenants in
  List.iter
    (fun (t, (path, port)) -> if Mech.needs_offline t.mech then offline_spec w t.spec ~path ~port)
    served;
  Kern.sync_cores w;
  List.iter
    (fun (t, (path, _)) ->
      match Mech.launch t.mech w ~path () with
      | Error e -> failwith (Printf.sprintf "%s launch failed: %d" path e)
      | Ok _ -> ())
    served;
  List.iter (fun (_, (_, port)) -> wait_for_listener w port) served;
  Kern.sync_cores w;
  Option.iter
    (fun (p : K23_faults.Faults.plan) ->
      w.Kern.faults <- Some { p with fseed = p.fseed + seed };
      Kern.fault_reset w)
    faults;
  let out = drive_clients w (List.map (fun t -> t.client) tenants) in
  kill_everything w;
  out

let progress fmt = Printf.eprintf fmt

(** One measurement: requests/sec for servers, elapsed cycles for
    sqlite. *)
let run_spec spec mech ~seed =
  progress "[macro] %s / %s / seed %d\n%!" spec.label (Mech.to_string mech) seed;
  match client_for spec ~rounds:spec.rounds with
  | Some client -> snd (List.hd (run_servers ~seed [ { spec; mech; client } ]))
  | None -> (
    let w = Sim.create_world ~seed ~quantum:8 () in
    let path, port = register_workload w spec in
    if Mech.needs_offline mech then begin
      offline_spec w spec ~path ~port;
      Kern.sync_cores w
    end;
    let t0 = Kern.now w in
    match Mech.launch mech w ~path () with
    | Error e -> failwith (Printf.sprintf "sqlite launch failed: %d" e)
    | Ok (p, _) ->
      run_or_fail w ~what:path ~until:(fun () -> Kern.proc_dead p);
      float_of_int (Kern.now w - t0))

type cell = { rel_mean : float; rel_std : float }

type row = {
  spec : spec;
  native_mean : float;  (** req/s; meaningless for sqlite *)
  cells : (Mech.t * cell) list;
}

let run_seeds runs = List.init runs (fun i -> 2_000 + (i * 13))

(** Raw measurements for one Table 6 cell: the native column
    ([mech = None]) or one mechanism's column of a spec.  A cell is a
    pure function of (spec, mech, runs) — each run builds a fresh world
    from its seed — so cells are the unit of work the domain pool
    shards.  Relative values pair interposed and native runs
    seed-by-seed (interposed runs use seed+1, as the paper pairs a
    fresh machine state with each mechanism). *)
let measure_cell ~runs spec mech =
  match mech with
  | None -> List.map (fun seed -> run_spec spec Mech.Native ~seed) (run_seeds runs)
  | Some mech -> List.map (fun seed -> run_spec spec mech ~seed:(seed + 1)) (run_seeds runs)

(** Fold raw cell measurements into a row.  Each interposed run is
    compared against the native mean — per-run machine-state variation
    shows up in the reported standard deviation, as in the paper's
    methodology; for sqlite the ratio is inverted (completion time,
    Section 6.2.2). *)
let assemble_row spec native mech_raws =
  let native_mean = Stats.mean (Stats.drop_outliers native) in
  let cells =
    List.map2
      (fun mech raw ->
        let rels =
          List.map
            (fun v ->
              if is_throughput spec then 100.0 *. v /. native_mean
              else 100.0 *. native_mean /. v)
            raw
        in
        let kept = Stats.drop_outliers rels in
        (mech, { rel_mean = Stats.mean kept; rel_std = Stats.stddev_pct kept }))
      Mech.table6_cols mech_raws
  in
  { spec; native_mean; cells }

(** Table 6: one {!measure_cell} per (spec, column) cell of a
    {!K23_par.Pool.grid}, the native column first.  Each row comes back
    in column order whatever [jobs] is and folds through the same
    [assemble_row] a sequential sweep would use, so the rendered table
    is identical. *)
let table6 ?(runs = 5) ?(specs = all_specs) ?(jobs = 1) () =
  let cols = None :: List.map Option.some Mech.table6_cols in
  List.map2
    (fun spec -> function
      | native :: mech_raws -> assemble_row spec native mech_raws
      | [] -> assert false)
    specs
    (K23_par.Pool.grid ~jobs (measure_cell ~runs) specs cols)

let render rows =
  let buf = Buffer.create 2048 in
  Buffer.add_string buf (Printf.sprintf "%-28s %12s" "Application (workload)" "Native");
  List.iter
    (fun m -> Buffer.add_string buf (Printf.sprintf " %16s" (Mech.to_string m)))
    Mech.table6_cols;
  Buffer.add_string buf "\n";
  List.iter
    (fun { spec; native_mean; cells } ->
      let native_str =
        if is_throughput spec then Printf.sprintf "%.0f req/s" native_mean else "N/A"
      in
      Buffer.add_string buf (Printf.sprintf "%-28s %12s" spec.label native_str);
      List.iter
        (fun (_, c) ->
          Buffer.add_string buf (Printf.sprintf " %8.2f(+-%.2f)" c.rel_mean c.rel_std))
        cells;
      Buffer.add_string buf "\n")
    rows;
  (* geometric-mean row, as in the paper *)
  Buffer.add_string buf (Printf.sprintf "%-28s %12s" "geomean" "");
  List.iter
    (fun m ->
      let vals =
        List.map (fun r -> (List.assoc m r.cells).rel_mean) rows |> List.filter (fun v -> v > 0.0)
      in
      Buffer.add_string buf (Printf.sprintf " %8.2f        " (Stats.geomean vals)))
    Mech.table6_cols;
  Buffer.add_string buf "\n";
  Buffer.contents buf
