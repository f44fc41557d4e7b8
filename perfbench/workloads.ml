(** The three workloads.  Each has an untraced form that calls the
    artifact's own entry points and a recomposed form that rebuilds the
    same work from the layers' public functions through {!Layers}.
    Both return the rendered artifact output, so the two can be
    compared byte for byte.

    Seeds: the default workload seed 23 reproduces the artifacts' own
    seeds (fuzz campaign seed 23, [Micro.run_seed], [Macro.run_seeds]);
    any other seed shifts every per-run world seed by a multiple of
    100, clear of the ten Table 5 repetition seeds 7 apart. *)

open K23_kernel
open K23_userland
module Mech = K23_eval.Mech
module Micro = K23_eval.Micro
module Macro = K23_eval.Macro
module K23 = K23_core.K23
module Campaign = K23_fuzz.Campaign
module Oracle = K23_fuzz.Oracle
module Gen = K23_fuzz.Gen
module L = Layers

let default_seed = 23

type size = Full | Smoke

type outcome = {
  output : string;  (** the rendered artifact: report JSON or table text *)
  attempted : int;
  failed : int;
}

type t = {
  name : string;
  warmup : unit -> unit;  (** one untimed item: fills the lazy state *)
  untraced : unit -> outcome;
  recomposed : unit -> outcome;
}

let names = [ "fuzz"; "micro"; "macro" ]

(** Item timer of the timed phase.  While [item_log] is set, every
    [item] call appends its host seconds and the host's current
    calibration-loop time ({!Calib.current}), in call order; the
    harness takes each item's median over the repetitions. *)
let item_log : (float * float) list ref option ref = ref None

let item f =
  match !item_log with
  | None -> f ()
  | Some log -> (
    let c = Calib.current () in
    let t0 = Unix.gettimeofday () in
    let note () = log := (Unix.gettimeofday () -. t0, c) :: !log in
    match f () with
    | v ->
      note ();
      v
    | exception e ->
      note ();
      raise e)

(* ------------------------------------------------------------------ *)
(* fuzz: K23_fuzz.Campaign.run, live oracle, native + 6 mechanisms     *)

let fuzz ~seed ~size =
  let iters = match size with Full -> 200 | Smoke -> 5 in
  let config = { Campaign.default_config with Campaign.c_seed = seed; c_iters = iters } in
  let mechs = config.c_mechs in
  (* Campaign.run's report from the programs and, per iteration, each
     mechanism's divergence (no shrinking: c_minimize is off) *)
  let report (progs : Gen.prog array) (divs : Oracle.divergence option list array) =
    let counts = List.map (fun m -> (m, ref 0)) mechs in
    let findings = ref [] in
    Array.iteri
      (fun i row ->
        List.iter2
          (fun mech div ->
            match div with
            | None -> ()
            | Some d ->
              incr (List.assoc mech counts);
              findings :=
                {
                  Campaign.f_iter = i;
                  f_prog_seed = Campaign.iter_seed config i;
                  f_mech = mech;
                  f_divergence = d;
                  f_shapes = progs.(i).shapes;
                  f_minimized = None;
                  f_min_insns = None;
                }
                :: !findings)
          mechs row)
      divs;
    let progs = Array.to_list progs in
    let r =
      {
        Campaign.r_config = config;
        r_programs = iters;
        r_runs = iters * (1 + List.length mechs);
        r_insns = List.fold_left (fun a p -> a + Gen.insn_count p.Gen.items) 0 progs;
        r_divergent = List.map (fun (m, n) -> (m, !n)) counts;
        r_findings = List.rev !findings;
        r_insn_hist = Gen.insn_histogram progs;
        r_sys_hist = Gen.syscall_histogram progs;
      }
    in
    { output = Campaign.render_json r; attempted = r.r_runs; failed = Campaign.total_divergences r }
  in
  (* each campaign starts as in a fresh process: the scratch-world
     cache builds its world once, then resets it for every oracle run *)
  let fresh_scratch () = (Domain.DLS.get K23_par.World_cache.slot_key).world <- None in
  (* Campaign.run at --jobs 1, one item per phase-A iteration
     (generate + native reference) and per phase-B row (compare every
     mechanism) *)
  let untraced () =
    fresh_scratch ();
    let natives = Array.init iters (fun i -> item (fun () -> Campaign.gen_native config i)) in
    let divs =
      Array.mapi
        (fun i ((prog : Gen.prog), native) ->
          item (fun () ->
              List.map
                (fun mech ->
                  Oracle.diverges ~cfg:(Campaign.iter_world config i) ~max_steps:config.c_max_steps
                    ~native ~mech prog.items)
                mechs))
        natives
    in
    report (Array.map fst natives) divs
  in
  (* Oracle.run, step for step: Oracle.launch_in's order inside the
     scratch world, then the projection *)
  let oracle_run ~cfg ~mech items =
    incr Span.item;
    L.with_scratch_world cfg (fun w ->
        let path = Oracle.target_path in
        (match items with
        | Gen.X86 its ->
          L.register (fun () ->
              ignore (Sim.register_app w ~path its);
              ignore (Sim.register_app w ~path:Gen.exec_child_path Gen.exec_child_items))
        | Gen.A64 _ -> invalid_arg "fuzz workload: x86 campaigns only");
        if Mech.needs_offline mech then
          L.offline (fun () ->
              ignore (K23.offline_run w ~path ());
              K23.seal_logs w);
        Kern.fault_reset w;
        let t = L.ktrace_enable w in
        let out =
          match L.launch mech w ~path with
          | Error e -> Error e
          | Ok (p, _) ->
            (try L.run w (fun () -> World.run_until_exit ~max_steps:config.c_max_steps w p)
             with Kern.Deadlock _ -> ());
            let evs = L.events t in
            Ok (Span.with_ L.project_id (fun () -> Oracle.project p w evs))
        in
        L.finish w;
        out)
  in
  let recomposed () =
    fresh_scratch ();
    let natives =
      Array.init iters (fun i ->
          let rng = K23_util.Rng.create ~seed:(Campaign.iter_seed config i) in
          let prog =
            Span.with_ L.gen_id (fun () ->
                Gen.generate ~shapes:config.c_shapes ~isa:config.c_world.World.Config.isa rng)
          in
          match oracle_run ~cfg:(Campaign.iter_world config i) ~mech:Mech.Native prog.Gen.items with
          | Error e -> failwith (Printf.sprintf "fuzz iter %d: native launch failed (%d)" i e)
          | Ok native -> (prog, native))
    in
    let divs =
      Array.mapi
        (fun i ((prog : Gen.prog), native) ->
          List.map
            (fun mech ->
              match oracle_run ~cfg:(Campaign.iter_world config i) ~mech prog.items with
              | Error e ->
                Some
                  {
                    Oracle.d_mech = Mech.to_string mech;
                    d_where = "launch";
                    d_native = "ok";
                    d_mech_val = Printf.sprintf "error %d" e;
                  }
              | Ok m -> Span.with_ L.compare_id (fun () -> Oracle.compare_projected ~mech native m))
            mechs)
        natives
    in
    report (Array.map fst natives) divs
  in
  let warmup () = ignore (Campaign.run ~jobs:1 { config with Campaign.c_iters = 1 }) in
  { name = "fuzz"; warmup; untraced; recomposed }

(* ------------------------------------------------------------------ *)
(* micro: Table 5, every row x 10 repetitions                          *)

let micro ~seed ~size =
  let rows, runs =
    match size with Full -> (Mech.table5_rows, 10) | Smoke -> ([ Mech.Zpoline_default ], 1)
  in
  let run_seed i = Micro.run_seed i + (100 * (seed - default_seed)) in
  (* Micro.cycles_per_iter / Micro.sample, keeping each stress run as
     one item: a run that does not exit 0 raises in [run_one] *)
  let table run_one =
    let attempted = ref 0 and failed = ref 0 in
    let cycles ~mech ~seed ~iters =
      incr attempted;
      incr Span.item;
      match item (fun () -> run_one ~mech ~seed ~iters) with
      | c -> float_of_int c
      | exception Failure _ ->
        incr failed;
        nan
    in
    let per_iter ~mech ~seed =
      let lo = cycles ~mech ~seed ~iters:Micro.lo_iters in
      let hi = cycles ~mech ~seed ~iters:Micro.hi_iters in
      (hi -. lo) /. float_of_int (Micro.hi_iters - Micro.lo_iters)
    in
    let rows =
      List.map
        (fun mech ->
          Micro.row_of_samples mech
            (List.init runs (fun i ->
                 let seed = run_seed i in
                 per_iter ~mech ~seed /. per_iter ~mech:Mech.Native ~seed)))
        rows
    in
    { output = Micro.render rows; attempted = !attempted; failed = !failed }
  in
  (* Micro.run_one, step for step *)
  let run_one ~mech ~seed ~iters =
    let w = L.create (World.Config.make ~seed ()) in
    let path = Micro.app_path in
    L.register (fun () -> ignore (Sim.register_app w ~path (Micro.app_items iters)));
    if Mech.needs_offline mech then begin
      L.register (fun () -> ignore (Sim.register_app w ~path (Micro.app_items 200)));
      L.offline (fun () ->
          ignore (K23.offline_run w ~path ());
          K23_core.Log_store.seal w);
      L.register (fun () -> ignore (Sim.register_app w ~path (Micro.app_items iters)))
    end;
    match L.launch mech w ~path with
    | Error e -> failwith (Printf.sprintf "micro: launch %s failed (%d)" (Mech.to_string mech) e)
    | Ok (p, _) ->
      let core = (List.hd p.threads).Kern.core in
      let before = w.core_cycles.(core) in
      L.run w (fun () -> World.run_until_exit w p);
      L.finish w;
      (match p.exit_status with
      | Some 0 -> ()
      | _ -> failwith (Printf.sprintf "micro: %s did not exit cleanly" (Mech.to_string mech)));
      w.core_cycles.(core) - before
  in
  let warmup () =
    List.iter
      (fun mech -> ignore (Micro.run_one ~mech ~seed:(run_seed 0) ~iters:200))
      (Mech.Native :: rows)
  in
  {
    name = "micro";
    warmup;
    untraced = (fun () -> table Micro.run_one);
    recomposed = (fun () -> table run_one);
  }

(* ------------------------------------------------------------------ *)
(* macro: Table 6 ~runs:1 on four servers x (native + 7 columns)       *)

let macro_specs =
  [ Macro.nginx ~workers:10 ~kb:4; Macro.lighttpd ~workers:10 ~kb:0; Macro.redis ~io_threads:6; Macro.sqlite ]

let macro ~seed ~size =
  let specs =
    match size with
    | Full -> macro_specs
    | Smoke -> [ { (Macro.lighttpd ~workers:1 ~kb:0) with Macro.rounds = 2 } ]
  in
  let base = List.hd (Macro.run_seeds 1) + (100 * (seed - default_seed)) in
  (* Macro.table6 ~runs:1: native at the run seed, each column at
     seed + 1, folded by Macro.assemble_row *)
  let table run_spec =
    let attempted = ref 0 and failed = ref 0 in
    let cell spec mech ~seed =
      incr attempted;
      incr Span.item;
      match item (fun () -> run_spec spec mech ~seed) with
      | v, ok ->
        if not (ok && v > 0.0) then incr failed;
        [ v ]
      | exception Failure _ ->
        incr failed;
        [ nan ]
    in
    let rows =
      List.map
        (fun spec ->
          let native = cell spec Mech.Native ~seed:base in
          Macro.assemble_row spec native
            (List.map (fun m -> cell spec m ~seed:(base + 1)) Mech.table6_cols))
        specs
    in
    { output = Macro.render rows; attempted = !attempted; failed = !failed }
  in
  (* the untraced cell: only a zero result is visible from outside *)
  let untraced_cell spec mech ~seed = (Macro.run_spec spec mech ~seed, true) in
  (* Macro.run_spec and Macro.drive_client, step for step; the client's
     own counters decide whether the cell failed *)
  let recomposed_cell (spec : Macro.spec) mech ~seed =
    let w = L.create (World.Config.make ~seed ~quantum:8 ()) in
    let path, port = L.register (fun () -> Macro.register_workload w spec) in
    if Mech.needs_offline mech then begin
      L.offline (fun () -> Macro.offline_spec w spec ~path ~port);
      Kern.sync_cores w
    end;
    let result =
      match spec.workload with
      | Macro.Sqlite _ -> (
        let t0 = Kern.now w in
        match L.launch mech w ~path with
        | Error e -> failwith (Printf.sprintf "sqlite launch failed: %d" e)
        | Ok (p, _) ->
          L.run w (fun () -> World.run_until_exit ~max_steps:400_000_000 w p);
          (float_of_int (Kern.now w - t0), p.exit_status = Some 0))
      | Macro.Web _ | Macro.Redis _ -> (
        match L.launch mech w ~path with
        | Error e -> failwith (Printf.sprintf "server launch failed: %d" e)
        | Ok _ ->
          L.run w (fun () -> Macro.wait_for_listener w port);
          Kern.sync_cores w;
          let client = Option.get (Macro.client_for spec ~rounds:spec.rounds) in
          let results = L.register (fun () -> K23_apps.Wrk.register w client) in
          (match World.spawn w ~path:client.path () with
          | Error e -> failwith (Printf.sprintf "client spawn failed: %d" e)
          | Ok cp ->
            L.run w (fun () ->
                Kern.run ~max_steps:400_000_000 ~until:(fun () -> Kern.proc_dead cp) w));
          let t_end = Kern.now w in
          let tput =
            match results.started_at with
            | Some t0 when results.completed > 0 && t_end > t0 ->
              float_of_int results.completed *. float_of_int Kern.cycles_per_sec
              /. float_of_int (t_end - t0)
            | _ -> 0.0
          in
          Macro.kill_everything w;
          let sent = client.threads * client.conns * client.depth * client.rounds in
          (tput, results.errors = 0 && results.completed >= sent))
    in
    L.finish w;
    result
  in
  let warmup () =
    let spec = { (Macro.lighttpd ~workers:1 ~kb:0) with Macro.rounds = 1 } in
    List.iter (fun mech -> ignore (Macro.run_spec spec mech ~seed:base)) (Mech.Native :: Mech.table6_cols)
  in
  {
    name = "macro";
    warmup;
    untraced = (fun () -> table untraced_cell);
    recomposed = (fun () -> table recomposed_cell);
  }

let make name ~seed ~size =
  match name with
  | "fuzz" -> Some (fuzz ~seed ~size)
  | "micro" -> Some (micro ~seed ~size)
  | "macro" -> Some (macro ~seed ~size)
  | _ -> None
