(* Benchmark harness: regenerates every table and figure of the
   paper's evaluation (Section 6).

   Usage:
     dune exec bench/main.exe              # everything
     dune exec bench/main.exe -- table5    # one experiment
     dune exec bench/main.exe -- --quick table5 table6   # fewer runs

   Experiments: table2 table3 fig3 table5 table6 startup memory
   ablation simperf ktrace fuzz parfuzz replay table6-load table6-chaos.
   EXPERIMENTS.md records the paper-vs-measured comparison in full.

   --jobs N shards the embarrassingly-parallel sweeps (table5, table6,
   fuzz, parfuzz) across N domains via K23_par; every table is
   byte-identical whatever N is.  parfuzz measures the jobs scaling
   curve itself (--repeat N medians, --check for the CI gate). *)

open K23_eval

let section title =
  Printf.printf "\n======================================================================\n";
  Printf.printf "%s\n" title;
  Printf.printf "======================================================================\n%!"

let table2 () =
  section "Table 2 - unique syscall instructions logged by the offline phase";
  print_string (Offline_counts.render_table2 (Offline_counts.table2 ()))

let table3 () =
  section "Table 3 - pitfall matrix (Y = handled, x = not handled; paper in parens)";
  let rows = K23_pitfalls.Harness.run_table3 () in
  print_string (K23_pitfalls.Harness.render_table3 rows);
  let mismatches =
    List.concat_map
      (fun { K23_pitfalls.Harness.pitfall; verdicts } ->
        List.filter_map
          (fun (sys, v) ->
            if
              v.K23_pitfalls.Harness.handled
              <> K23_pitfalls.Harness.paper_expectation sys pitfall
            then Some (pitfall, sys)
            else None)
          verdicts)
      rows
  in
  Printf.printf "\n%d/27 cells match the paper.\n" (27 - List.length mismatches)

let fig1 () =
  section "Figure 1 - valid / partial / data-embedded syscall patterns";
  print_string (Fig1.render ())

let fig3 () =
  section "Figure 3 - offline log generated for ls (region,offset pairs)";
  print_string (Offline_counts.fig3 ())

let table5 ~runs ~jobs () =
  section "Table 5 - microbenchmark overhead vs native";
  print_string (Micro.render (Micro.table5 ~runs ~jobs ()));
  print_string
    "\npaper:  zpoline-default 1.1267x | zpoline-ultra 1.1576x | lazypoline 1.3801x\n\
     \        K23-default 1.2788x | K23-ultra 1.3919x | K23-ultra+ 1.3948x\n\
     \        SUD-no-interposition 1.2269x | SUD 15.3022x\n"

let table6 ~runs ~jobs () =
  section "Table 6 - macrobenchmarks (throughput relative to native, %)";
  print_string (Macro.render (Macro.table6 ~runs ~jobs ()));
  print_string
    "\npaper geomeans: zpoline-default 98.93 | zpoline-ultra 98.27 | lazypoline 98.26\n\
     \                K23-default 98.62 | K23-ultra 97.96 | K23-ultra+ 97.90 | SUD 56.70\n"

(* Open-loop latency campaign: p50/p99/p999 per mechanism (plus the
   mixed per-tenant row) from seeded Poisson arrivals, latency in
   simulated cycles via the kernel's request stamps.  [--json <path>]
   (or bare [--json] for BENCH_load.json) writes the machine-readable
   record; deterministic per seed and byte-identical at any --jobs. *)
let table6_load ~quick ~jobs ?json () =
  section "table6-load - open-loop latency campaign (p50/p99/p999 per mechanism)";
  let rep = Load.campaign ~quick ~jobs () in
  print_string (Load.render rep);
  match json with
  | None -> ()
  | Some path ->
    let oc = open_out path in
    output_string oc (Load.render_json rep);
    close_out oc;
    Printf.printf "wrote %s\n" path

(* The chaos row: the same open-loop campaign with the deterministic
   fault plane armed for the load phase (EINTR storms, short I/O,
   EAGAIN, EMFILE, resets) and fault-tolerant servers/clients.  Tails
   under faults are the robustness complement to table6-load's clean
   tails; deterministic per seed and byte-identical at any --jobs. *)
let table6_chaos ~quick ~jobs ?json () =
  section "table6-chaos - open-loop latency campaign under fault injection";
  let rep = Load.campaign ~quick ~jobs ~faults:(K23_faults.Faults.chaos ()) () in
  print_string (Load.render rep);
  match json with
  | None -> ()
  | Some path ->
    let oc = open_out path in
    output_string oc (Load.render_json rep);
    close_out oc;
    Printf.printf "wrote %s\n" path

let startup () =
  section "E7 - startup window (syscalls before the preload library initialises)";
  print_string (Startup_bench.render (Startup_bench.run ()));
  print_string
    "\npaper: \"even simple utilities like ls issue over 100 system calls during\n\
     startup before the interposition library is loaded\" (Section 6.1)\n"

let memory () =
  section "E8 / P4b - memory footprint of the NULL-execution check";
  print_string (Memory_bench.render (Memory_bench.run ()))

let ablation () =
  section "E6 - feature-cost ablation (microbenchmark deltas)";
  print_string (Ablation.render (Ablation.run ()))

(* Bechamel measurements of the simulator's own hot paths: not a paper
   artifact, but the perf trajectory every table depends on (billions
   of simulated steps per full run).  The workload lives in
   [K23_eval.Simperf] so the test suite can run a fast smoke pass;
   [--json <path>] additionally emits a machine-readable record so the
   numbers are tracked across PRs (BENCH_simperf.json /
   EXPERIMENTS.md).  [--quick] shrinks the per-test budget. *)
let simperf ~quick ?json () =
  section "simulator hot-path performance (Bechamel)";
  let r =
    if quick then Simperf.run ~quota:0.05 ~limit:50 () else Simperf.run ()
  in
  print_string (Simperf.render r);
  match json with
  | None -> ()
  | Some path ->
    Simperf.write_json r path;
    Printf.printf "wrote %s\n" path

let ktrace ~quick () =
  section "ktrace - per-mechanism event/counter summaries (stress app)";
  let rows = Ktrace_summary.run ~iters:(if quick then 100 else 300) () in
  print_string (Ktrace_summary.render rows)

let arm () =
  section "extension - fixed-length ISA study (Section 7's claim, quantified)";
  print_string (Contrast.render_arm_study (Contrast.arm_study ()))

let seccomp () =
  section "extension - seccomp-based interposition (the third Linux interface)";
  print_string (Contrast.render_seccomp (Contrast.seccomp_micro ()))

(* Fuzzer throughput + coverage: how many differential executions per
   second the oracle sustains (sequential and sharded across [jobs]
   domains), and what the generator's opcode and syscall distributions
   look like.  Timing stays in this harness — the campaign report
   itself is deterministic, and the harness asserts the sequential and
   parallel reports render identical JSON.  Wall-clock time
   (Unix.gettimeofday) rather than CPU time: Sys.time sums across
   domains and would hide any parallel speedup.  The scaling curve and
   its JSON artifact live in the [parfuzz] experiment. *)
let fuzz ~quick ~jobs () =
  let module F = K23_fuzz in
  section "fuzz - differential conformance fuzzer (throughput & coverage)";
  let iters = if quick then 50 else 300 in
  let jobs = match jobs with Some j -> j | None -> max 2 (K23_par.Pool.default_jobs ()) in
  let config = { F.Campaign.default_config with c_iters = iters } in
  let timed j =
    let t0 = Unix.gettimeofday () in
    let r = F.Campaign.run ~jobs:j config in
    (r, Unix.gettimeofday () -. t0)
  in
  let r, dt1 = timed 1 in
  let rp, dtn = timed jobs in
  if F.Campaign.render_json rp <> F.Campaign.render_json r then
    failwith "fuzz: parallel report differs from sequential report";
  print_string (F.Campaign.render_text r);
  let throughput dt =
    Printf.sprintf "%d oracle runs in %.2fs (%.0f execs/sec)" r.F.Campaign.r_runs dt
      (float_of_int r.F.Campaign.r_runs /. dt)
  in
  Printf.printf "throughput (jobs=1): %s\n" (throughput dt1);
  Printf.printf "throughput (jobs=%d): %s\n" jobs (throughput dtn);
  Printf.printf "speedup: %.2fx on %d core(s); reports byte-identical\n" (dt1 /. dtn)
    (Domain.recommended_domain_count ());
  Printf.printf "\nopcode coverage (%d static insns):\n" r.F.Campaign.r_insns;
  List.iter
    (fun (k, v) -> Printf.printf "  %-10s %6d\n" k v)
    r.F.Campaign.r_insn_hist;
  Printf.printf "\nsyscall coverage:\n";
  List.iter
    (fun (nr, v) -> Printf.printf "  %-14s %6d\n" (K23_kernel.Sysno.name nr) v)
    r.F.Campaign.r_sys_hist

(* The --jobs scaling curve: the same campaign at jobs = 1, 2, 4, 8,
   asserting every report renders byte-identical JSON.  [--repeat N]
   runs each point N times and keeps the median after the paper's
   drop-one-min/one-max outlier rule (§6.2 methodology, applied to our
   own harness).  [--json <path>] writes BENCH_parfuzz.json;
   [--check] exits non-zero when the determinism or scaling floor is
   violated — the CI sanity gate. *)
let parfuzz ~quick ~repeat ~check ~jobs ?json () =
  let module F = K23_fuzz in
  section "parfuzz - --jobs scaling curve (throughput & determinism)";
  let iters = if quick then 50 else 300 in
  let config = { F.Campaign.default_config with c_iters = iters } in
  let jobs_list =
    match jobs with Some j -> [ 1; j ] | None -> [ 1; 2; 4; 8 ]
  in
  let reference = ref None in
  let identical = ref true in
  let measure j =
    let samples =
      List.init (max 1 repeat) (fun _ ->
          let t0 = Unix.gettimeofday () in
          let r = F.Campaign.run ~jobs:j config in
          let dt = Unix.gettimeofday () -. t0 in
          let js = F.Campaign.render_json r in
          (match !reference with
          | None -> reference := Some (r, js)
          | Some (_, ref_js) -> if js <> ref_js then identical := false);
          dt)
    in
    K23_util.Stats.median (K23_util.Stats.drop_outliers samples)
  in
  let curve = List.map (fun j -> (j, measure j)) jobs_list in
  let r = fst (Option.get !reference) in
  let runs = float_of_int r.F.Campaign.r_runs in
  let eps dt = runs /. dt in
  let dt1 = List.assoc 1 curve in
  Printf.printf "%d iterations, %d oracle runs per point, repeat=%d, %d core(s)\n\n" iters
    r.F.Campaign.r_runs (max 1 repeat)
    (Domain.recommended_domain_count ());
  Printf.printf "  %-6s %10s %12s %9s\n" "jobs" "wall_s" "execs/sec" "speedup";
  List.iter
    (fun (j, dt) ->
      Printf.printf "  %-6d %10.2f %12.1f %8.2fx\n" j dt (eps dt) (dt1 /. dt))
    curve;
  Printf.printf "\nreports byte-identical across all points: %b\n" !identical;
  (match json with
  | None -> ()
  | Some path ->
    let oc = open_out path in
    Printf.fprintf oc
      "{\n\
      \  \"experiment\": \"parfuzz\",\n\
      \  \"iters\": %d,\n\
      \  \"oracle_runs\": %d,\n\
      \  \"cores\": %d,\n\
      \  \"repeat\": %d,\n\
      \  \"reports_identical\": %b,\n\
      \  \"curve\": [\n%s\n  ]\n\
       }\n"
      iters r.F.Campaign.r_runs
      (Domain.recommended_domain_count ())
      (max 1 repeat) !identical
      (String.concat ",\n"
         (List.map
            (fun (j, dt) ->
              Printf.sprintf
                "    {\"jobs\": %d, \"wall_s\": %.3f, \"execs_per_sec\": %.1f, \
                 \"speedup\": %.3f}"
                j dt (eps dt) (dt1 /. dt))
            curve));
    close_out oc;
    Printf.printf "wrote %s\n" path);
  if check then begin
    let failed = ref false in
    if not !identical then begin
      prerr_endline "parfuzz --check: FAIL — reports differ across jobs values";
      failed := true
    end;
    (* the scaling floor needs a second core to be meaningful: on one
       core extra domains only add minor-GC stop-the-world pauses *)
    (match List.assoc_opt 2 curve with
    | Some dt2 when Domain.recommended_domain_count () >= 2 && eps dt2 < 0.9 *. eps dt1 ->
      Printf.eprintf
        "parfuzz --check: FAIL — jobs=2 throughput %.1f < 0.9 x jobs=1 %.1f\n" (eps dt2)
        (eps dt1);
      failed := true
    | _ -> ());
    if !failed then exit 1;
    print_endline "parfuzz --check: ok"
  end

(* Record & replay (lib/replay): what recording costs on top of a
   plain run / a ktrace-ring run, how fast the replayer re-drives and
   checks a log, and whether the replay-checked fuzz oracle keeps up
   with the live one while rendering the identical report.  All
   wall-clock medians (drop-one-min/one-max), written to
   BENCH_replay.json with --json. *)
let replay_bench ~quick ?json () =
  let module R = K23_replay in
  let module F = K23_fuzz in
  section "replay - record overhead, replay-check throughput, oracle parity";
  let reps = if quick then 3 else 7 in
  (* single ls runs are ~3ms; batch them so each timed sample is tens
     of ms and scheduler noise stops dominating the overhead ratio *)
  let batch = if quick then 5 else 20 in
  let register w = K23_apps.Coreutils.register_all w in
  let median_of ?(n = 1) f =
    let samples =
      List.init reps (fun _ ->
          let t0 = Unix.gettimeofday () in
          for _ = 1 to n do
            f ()
          done;
          (Unix.gettimeofday () -. t0) /. float_of_int n)
    in
    K23_util.Stats.median (K23_util.Stats.drop_outliers samples)
  in
  let apps = [ ("ls", Mech.Zpoline_ultra); ("ls", Mech.K23_ultra) ] in
  (* A. record overhead: plain run vs bounded ktrace ring vs full
     recording (unbounded sink + log assembly), each one session *)
  let fresh () =
    let w = K23_userland.Sim.create_world () in
    register w;
    w
  in
  let run ?sink mech path =
    match Session.run ?sink (fresh ()) ~mech ~path with
    | Error e -> failwith (Printf.sprintf "replay bench: launch failed (%d)" e)
    | Ok _ -> ()
  in
  Printf.printf "record overhead (%d reps, median):\n" reps;
  Printf.printf "  %-6s %-16s %8s %10s %10s %10s %9s\n" "app" "mech" "events" "plain_s"
    "ktrace_s" "record_s" "overhead";
  let record_rows =
    List.map
      (fun (app, mech) ->
        let path = K23_apps.Coreutils.path app in
        let plain_s = median_of ~n:batch (fun () -> run mech path) in
        let ktrace_s = median_of ~n:batch (fun () -> run ~sink:Session.Bounded mech path) in
        let rc = ref None in
        let record_s =
          median_of ~n:batch (fun () ->
              match
                R.Recorder.record ~cfg:K23_kernel.World.Config.default (fresh ()) ~mech ~path
              with
              | Error e -> failwith (Printf.sprintf "replay bench: record failed (%d)" e)
              | Ok r -> rc := Some r)
        in
        let r = Option.get !rc in
        let events = List.length r.R.Recording.rc_events in
        Printf.printf "  %-6s %-16s %8d %10.4f %10.4f %10.4f %8.2fx\n" app
          (Mech.to_string mech) events plain_s ktrace_s record_s (record_s /. plain_s);
        (app, mech, events, plain_s, ktrace_s, record_s, r))
      apps
  in
  (* B. replay-check throughput: re-drive + diff every event *)
  Printf.printf "\nreplay check (%d reps, median):\n" reps;
  Printf.printf "  %-6s %-16s %10s %14s %12s\n" "app" "mech" "replay_s" "events/sec"
    "vs record";
  let replay_rows =
    List.map
      (fun (app, mech, events, _, _, record_s, r) ->
        let replay_s =
          median_of ~n:batch (fun () ->
              match R.Replayer.replay ~register r with
              | Error e -> failwith (Printf.sprintf "replay bench: replay failed (%d)" e)
              | Ok o ->
                if not (R.Replayer.ok o) then failwith "replay bench: replay diverged")
        in
        Printf.printf "  %-6s %-16s %10.4f %14.0f %11.2fx\n" app (Mech.to_string mech)
          replay_s
          (float_of_int events /. replay_s)
          (record_s /. replay_s);
        (app, mech, events, replay_s, record_s))
      record_rows
  in
  (* C. oracle parity: live vs replay-checked campaign, same report *)
  let iters = if quick then 30 else 100 in
  let live_cfg = { F.Campaign.default_config with c_iters = iters } in
  let replay_cfg = { live_cfg with F.Campaign.c_oracle = F.Campaign.Replay } in
  let out = ref None in
  let time_campaign cfg =
    median_of (fun () -> out := Some (F.Campaign.run ~jobs:1 cfg))
  in
  let live_s = time_campaign live_cfg in
  let live_json = F.Campaign.render_json (Option.get !out) in
  let replay_s = time_campaign replay_cfg in
  let replay_json = F.Campaign.render_json (Option.get !out) in
  let identical = live_json = replay_json in
  let runs = (Option.get !out).F.Campaign.r_runs in
  Printf.printf "\nfuzz oracle (%d iters, %d oracle runs, jobs=1):\n" iters runs;
  Printf.printf "  live:   %7.2fs (%.0f execs/sec)\n" live_s (float_of_int runs /. live_s);
  Printf.printf "  replay: %7.2fs (%.0f execs/sec)\n" replay_s
    (float_of_int runs /. replay_s);
  Printf.printf "  reports byte-identical: %b\n" identical;
  if not identical then failwith "replay bench: live and replay oracle reports differ";
  match json with
  | None -> ()
  | Some path ->
    let oc = open_out path in
    Printf.fprintf oc
      "{\n\
      \  \"experiment\": \"replay\",\n\
      \  \"reps\": %d,\n\
      \  \"record\": [\n%s\n  ],\n\
      \  \"replay\": [\n%s\n  ],\n\
      \  \"oracle\": {\"iters\": %d, \"oracle_runs\": %d, \"live_s\": %.3f, \
       \"replay_s\": %.3f, \"live_execs_per_sec\": %.1f, \"replay_execs_per_sec\": %.1f, \
       \"reports_identical\": %b}\n\
       }\n"
      reps
      (String.concat ",\n"
         (List.map
            (fun (app, mech, events, plain_s, ktrace_s, record_s, _) ->
              Printf.sprintf
                "    {\"app\": \"%s\", \"mech\": \"%s\", \"events\": %d, \"plain_s\": %.4f, \
                 \"ktrace_s\": %.4f, \"record_s\": %.4f, \"record_overhead\": %.3f}"
                app (Mech.to_string mech) events plain_s ktrace_s record_s
                (record_s /. plain_s))
            record_rows))
      (String.concat ",\n"
         (List.map
            (fun (app, mech, events, replay_s, record_s) ->
              Printf.sprintf
                "    {\"app\": \"%s\", \"mech\": \"%s\", \"events\": %d, \"replay_s\": %.4f, \
                 \"events_per_sec\": %.1f, \"replay_vs_record\": %.3f}"
                app (Mech.to_string mech) events replay_s
                (float_of_int events /. replay_s)
                (record_s /. replay_s))
            replay_rows))
      iters runs live_s replay_s
      (float_of_int runs /. live_s)
      (float_of_int runs /. replay_s)
      identical;
    close_out oc;
    Printf.printf "wrote %s\n" path

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let quick = List.mem "--quick" args in
  let check = List.mem "--check" args in
  let args = List.filter (fun a -> a <> "--quick" && a <> "--check") args in
  let repeat, args =
    let rec go acc = function
      | [ "--repeat" ] ->
        prerr_endline "--repeat requires a count (e.g. --repeat 5)";
        exit 2
      | "--repeat" :: n :: rest -> (
        match int_of_string_opt n with
        | Some k when k >= 1 -> (k, List.rev_append acc rest)
        | _ ->
          Printf.eprintf "--repeat: not a positive integer: %S\n" n;
          exit 2)
      | x :: rest -> go (x :: acc) rest
      | [] -> (1, List.rev acc)
    in
    go [] args
  in
  let json, args =
    let rec go acc = function
      (* bare trailing --json: each experiment picks its default
         artifact name (BENCH_load.json, BENCH_simperf.json, ...) *)
      | [ "--json" ] -> (Some "", List.rev acc)
      | "--json" :: path :: rest -> (Some path, List.rev_append acc rest)
      | x :: rest -> go (x :: acc) rest
      | [] -> (None, List.rev acc)
    in
    go [] args
  in
  let json_or default = match json with Some "" -> Some default | v -> v in
  let jobs, args =
    let rec go acc = function
      | [ "--jobs" ] ->
        prerr_endline "--jobs requires a count (e.g. --jobs 4)";
        exit 2
      | "--jobs" :: n :: rest -> (
        match int_of_string_opt n with
        | Some j when j >= 1 -> (Some j, List.rev_append acc rest)
        | _ ->
          Printf.eprintf "--jobs: not a positive integer: %S\n" n;
          exit 2)
      | x :: rest -> go (x :: acc) rest
      | [] -> (None, List.rev acc)
    in
    go [] args
  in
  let experiments =
    if args = [] then
      [
        "table2"; "table3"; "fig1"; "fig3"; "table5"; "table6"; "startup"; "memory"; "ablation";
        "seccomp"; "arm";
      ]
    else args
  in
  List.iter
    (fun name ->
      match name with
      | "table2" -> table2 ()
      | "table3" -> table3 ()
      | "fig1" -> fig1 ()
      | "fig3" -> fig3 ()
      | "table5" -> table5 ~runs:(if quick then 3 else 10) ~jobs:(Option.value jobs ~default:1) ()
      | "table6" -> table6 ~runs:(if quick then 3 else 5) ~jobs:(Option.value jobs ~default:1) ()
      | "startup" -> startup ()
      | "memory" -> memory ()
      | "ablation" -> ablation ()
      | "seccomp" -> seccomp ()
      | "arm" -> arm ()
      | "simperf" -> simperf ~quick ?json:(json_or "BENCH_simperf.json") ()
      | "ktrace" -> ktrace ~quick ()
      | "fuzz" -> fuzz ~quick ~jobs ()
      | "parfuzz" -> parfuzz ~quick ~repeat ~check ~jobs ?json:(json_or "BENCH_parfuzz.json") ()
      | "replay" -> replay_bench ~quick ?json:(json_or "BENCH_replay.json") ()
      | "table6-load" ->
        table6_load ~quick
          ~jobs:(Option.value jobs ~default:1)
          ?json:(json_or "BENCH_load.json") ()
      | "table6-chaos" ->
        table6_chaos ~quick
          ~jobs:(Option.value jobs ~default:1)
          ?json:(json_or "BENCH_chaos.json") ()
      | other -> Printf.eprintf "unknown experiment %S\n" other)
    experiments
