(* Benchmark harness: regenerates every table and figure of the
   paper's evaluation (Section 6).

   Usage:
     dune exec bench/main.exe              # everything
     dune exec bench/main.exe -- table5    # one experiment
     dune exec bench/main.exe -- --quick table5 table6   # fewer runs

   Experiments: table2 table3 fig1 fig3 table5 table6 startup memory
   ablation seccomp arm ktrace fuzz parfuzz table6-load table6-chaos;
   an unknown name exits 2 before anything runs.
   EXPERIMENTS.md records the paper-vs-measured comparison in full.

   --jobs N shards the embarrassingly-parallel sweeps (table5, table6,
   table6-load, table6-chaos, fuzz, parfuzz) across N domains via
   K23_par; every table is byte-identical whatever N is.  parfuzz
   measures the jobs scaling curve itself (--repeat N medians, --check
   for the CI gate).  Host timings of the simulator itself are
   perfbench's (perfbench/README.md). *)

open K23_eval

let section title =
  Printf.printf "\n======================================================================\n";
  Printf.printf "%s\n" title;
  Printf.printf "======================================================================\n%!"

(* BENCH_load.json and BENCH_chaos.json are written here. *)
let write_artifact path text =
  Out_channel.with_open_bin path (fun oc -> output_string oc text);
  Printf.printf "wrote %s\n" path

(* Median wall-clock seconds of [f], over [reps] samples, after the
   paper's drop-one-min/one-max rule (§6.2 methodology, applied to our
   own harness).  Wall time (Unix.gettimeofday), not Sys.time: CPU time
   sums across domains and would hide any parallel speedup. *)
let median_wall ~reps f =
  let samples =
    List.init reps (fun _ ->
        let t0 = Unix.gettimeofday () in
        f ();
        Unix.gettimeofday () -. t0)
  in
  K23_util.Stats.median (K23_util.Stats.drop_outliers samples)

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
   simulated cycles via the kernel's request stamps.  With a [faults]
   plan it is the chaos row: the same campaign with the deterministic
   fault plane armed for the load phase (EINTR storms, short I/O,
   EAGAIN, EMFILE, resets) and fault-tolerant servers/clients, the
   robustness complement to the clean tails.  [--json <path>] (or
   bare [--json] for BENCH_load.json / BENCH_chaos.json) writes the
   machine-readable record; deterministic per seed and byte-identical
   at any --jobs. *)
let table6_load ~title ~faults ~quick ~jobs ?json () =
  section title;
  let rep = Load.campaign ~quick ~jobs ?faults () in
  print_string (Load.render rep);
  Option.iter (fun path -> write_artifact path (Load.render_json rep)) json

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
   parallel reports render identical JSON.  Wall-clock time, as in
   [median_wall].  The scaling curve and its JSON artifact live in the
   [parfuzz] experiment. *)
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
   runs each point N times and keeps the [median_wall].  [--check]
   exits non-zero when the determinism or scaling floor is violated —
   the CI sanity gate. *)
let parfuzz ~quick ~repeat ~check ~jobs () =
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
    let reports = ref [] in
    let dt =
      median_wall ~reps:(max 1 repeat) (fun () ->
          reports := F.Campaign.run ~jobs:j config :: !reports)
    in
    List.iter
      (fun r ->
        let js = F.Campaign.render_json r in
        match !reference with
        | None -> reference := Some (r, js)
        | Some (_, ref_js) -> if js <> ref_js then identical := false)
      (List.rev !reports);
    dt
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

(* [flag name args] takes the first [name VALUE] pair (or
   [name=VALUE]) out of [args]: [None] when [name] is absent,
   [Some None] when it ends the line. *)
let flag name args =
  let prefix = name ^ "=" in
  let rec go acc = function
    | [ x ] when x = name -> (Some None, List.rev acc)
    | x :: v :: rest when x = name -> (Some (Some v), List.rev_append acc rest)
    | x :: rest when String.starts_with ~prefix x ->
      let n = String.length prefix in
      (Some (Some (String.sub x n (String.length x - n))), List.rev_append acc rest)
    | x :: rest -> go (x :: acc) rest
    | [] -> (None, List.rev acc)
  in
  go [] args

(* [flag] for a positive count; exits 2 on a missing or bad value *)
let count_flag name ~eg args =
  match flag name args with
  | None, args -> (None, args)
  | Some (Some n), args -> (
    match int_of_string_opt n with
    | Some k when k >= 1 -> (Some k, args)
    | _ ->
      Printf.eprintf "%s: not a positive integer: %S\n" name n;
      exit 2)
  | Some None, _ ->
    Printf.eprintf "%s requires a count (e.g. %s %d)\n" name name eg;
    exit 2

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let quick = List.mem "--quick" args in
  let check = List.mem "--check" args in
  let args = List.filter (fun a -> a <> "--quick" && a <> "--check") args in
  let repeat, args = count_flag "--repeat" ~eg:5 args in
  let repeat = Option.value repeat ~default:1 in
  (* bare trailing --json: each experiment picks its default artifact
     name (BENCH_load.json or BENCH_chaos.json) *)
  let json, args = flag "--json" args in
  let json_or default = Option.map (Option.value ~default) json in
  let jobs, args = count_flag "--jobs" ~eg:4 args in
  let jobs1 = Option.value jobs ~default:1 in
  let load ~title ~faults ~json =
    table6_load ~title ~faults ~quick ~jobs:jobs1 ?json:(json_or json)
  in
  (* what a bare run renders *)
  let default =
    [
      ("table2", table2);
      ("table3", table3);
      ("fig1", fig1);
      ("fig3", fig3);
      ("table5", table5 ~runs:(if quick then 3 else 10) ~jobs:jobs1);
      ("table6", table6 ~runs:(if quick then 3 else 5) ~jobs:jobs1);
      ("startup", startup);
      ("memory", memory);
      ("ablation", ablation);
      ("seccomp", seccomp);
      ("arm", arm);
    ]
  in
  let experiments =
    default
    @ [
        ("ktrace", ktrace ~quick);
        ("fuzz", fuzz ~quick ~jobs);
        ("parfuzz", parfuzz ~quick ~repeat ~check ~jobs);
        ( "table6-load",
          load ~title:"table6-load - open-loop latency campaign (p50/p99/p999 per mechanism)"
            ~faults:None ~json:"BENCH_load.json" );
        ( "table6-chaos",
          load ~title:"table6-chaos - open-loop latency campaign under fault injection"
            ~faults:(Some (K23_faults.Faults.chaos ())) ~json:"BENCH_chaos.json" );
      ]
  in
  (* every name is checked before any experiment runs *)
  List.iter
    (fun name ->
      if not (List.mem_assoc name experiments) then begin
        Printf.eprintf "unknown experiment %S (known: %s)\n" name
          (String.concat " " (List.map fst experiments));
        exit 2
      end)
    args;
  let names = if args = [] then List.map fst default else args in
  (* a --json that no named experiment writes would end with no file
     and exit 0 *)
  if json <> None && not (List.mem "table6-load" names || List.mem "table6-chaos" names) then begin
    prerr_endline "--json: only table6-load and table6-chaos write a JSON record";
    exit 2
  end;
  List.iter (fun name -> List.assoc name experiments ()) names
