(* The simulator benchmark: one workload per process, at --jobs 1.

     bench.exe --workload fuzz|micro|macro [--seed N] [--seconds S]
               [--trace 0|1]
     bench.exe --smoke BENCHMARK.json

   A run sets up (fresh probe processes time their own set-up, median
   reported), warms up with one untimed item, then repeats the
   workload's untraced form -- the artifact entry points -- for
   --seconds and reports, summed over items, each item's median host
   time normalised by the calibration loops (Calib).  Afterwards the
   recomposed form runs with spans off (exact counts, simulated output)
   and, with --trace 1, once more with spans on (per-layer split).
   Every pass must render the same artifact output and the two
   recomposed passes the same exact counts; anything else, or any
   failed item, makes the run incorrect and the exit status 1.  The
   last stdout line is the JSON result. *)

module W = Workloads
module L = Layers

let now () = Unix.gettimeofday ()

let median l =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan else if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* peak resident set of this process, from the kernel's high-water mark *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
      Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb -> kb)
    | _ -> scan ()
    | exception End_of_file -> failwith "no VmHWM in /proc/self/status"
  in
  let kb = Fun.protect ~finally:(fun () -> close_in ic) scan in
  float_of_int kb /. 1024.0

type metric = { m_name : string; m_value : float; m_unit : string }

let m m_name m_unit m_value = { m_name; m_value; m_unit }

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : metric list;
  notes : string list;  (** human-readable lines printed before the JSON *)
}

(* ---- set-up probes ------------------------------------------------ *)

(* The probe child: process start, module init, the first world build
   and image assembly all happen before [warmup] returns.  It prints
   the wall-clock time it finished; the parent subtracts the time it
   spawned the child and normalises by the calibration loop it timed
   just before. *)
let probe_child (w : W.t) =
  w.warmup ();
  Printf.printf "%.9f\n%!" (now ())

let probe ~workload ~seed ~size =
  let args =
    [ Sys.executable_name; "--setup-probe"; "--workload"; workload; "--seed"; string_of_int seed ]
    @ if size = W.Smoke then [ "--smoke-size" ] else []
  in
  let c = median (List.init 3 (fun _ -> Calib.measure ())) in
  let t0 = now () in
  let ic = Unix.open_process_args_in Sys.executable_name (Array.of_list args) in
  let line = try input_line ic with End_of_file -> "" in
  match (Unix.close_process_in ic, float_of_string_opt (String.trim line)) with
  | Unix.WEXITED 0, Some t1 -> Calib.normalise ~c (t1 -. t0)
  | _ -> failwith "set-up probe failed"

(* ---- one benchmark run -------------------------------------------- *)

let sys_nrs = K23_kernel.Sysno.[ ("read", read); ("write", write); ("mmap", mmap); ("brk", brk); ("fork", fork) ]

let layer_metrics ~traced_wall ~untraced_wall ~gc0 ~gc1 =
  let c = L.c in
  let sys_self =
    List.fold_left
      (fun a (name, _, self, _) -> if String.starts_with ~prefix:"kernel.sys." name then a +. self else a)
      0.0 (Span.table ())
  in
  let per_nr =
    List.concat_map
      (fun (name, nr) ->
        let i = L.sys_id nr in
        [
          m (Printf.sprintf "kernel.sys.%s_s" name) "s" (Span.self_s i);
          m (Printf.sprintf "kernel.sys.%s_n" name) "count" (float_of_int (Span.calls i));
        ])
      sys_nrs
  in
  let unattributed = Span.self_s L.root in
  let loop_s = Span.self_s L.run_id in
  [
    m "machine.steps" "count" (float_of_int c.steps);
    m "kern.run_s" "s" (Span.total_s L.run_id);
    m "kern.loop_s" "s" loop_s;
    m "kern.ns_per_step" "ns"
      (if c.loop_steps = 0 then 0.0 else loop_s *. 1e9 /. float_of_int c.loop_steps);
    m "kernel.syscalls" "count" (float_of_int c.syscalls);
    m "kernel.syscall_s" "s" sys_self;
  ]
  @ per_nr
  @ [
      m "kernel.sigsys" "count" (float_of_int c.sigsys);
      m "kernel.interposer_syscalls" "count" (float_of_int c.interposer);
      m "loader.execve_s" "s" (Span.self_s L.execve_id);
      m "loader.execs" "count" (float_of_int c.execs);
      m "world.create_s" "s" (Span.self_s L.world_create);
      m "world.creates" "count" (float_of_int c.creates);
      m "world.reset_s" "s" (Span.self_s L.world_reset);
      m "world.resets" "count" (float_of_int c.resets);
      m "world.reuse_ratio" "ratio"
        (let n = c.creates + c.resets in
         if n = 0 then 0.0 else float_of_int c.resets /. float_of_int n);
      m "userland.register_s" "s" (Span.self_s L.register_id);
      m "core.offline_s" "s" (Span.self_s L.offline_id);
      m "core.offline_runs" "count" (float_of_int c.offline_runs);
      m "interpose.launch_s" "s" (Span.self_s L.launch_id);
      m "obs.ktrace_s" "s" (Span.self_s L.ktrace_id);
      m "obs.events" "count" (float_of_int c.events);
      m "fuzz.gen_s" "s" (Span.self_s L.gen_id);
      m "fuzz.project_s" "s" (Span.self_s L.project_id);
      m "fuzz.compare_s" "s" (Span.self_s L.compare_id);
      m "gc.minor_words" "words" (gc1.Gc.minor_words -. gc0.Gc.minor_words);
      m "gc.major_words" "words" (gc1.Gc.major_words -. gc0.Gc.major_words);
      m "gc.major_collections" "count"
        (float_of_int (gc1.Gc.major_collections - gc0.Gc.major_collections));
      m "sim.cycles" "cycles" (float_of_int c.cycles);
      m "bench.unattributed_s" "s" unattributed;
      m "trace_overhead" "ratio" (traced_wall /. untraced_wall);
    ]

(* Self time per span name and per layer (the name's first component),
   with each one's share of the traced wall. *)
let layer_table ~workload ~traced_wall =
  let rows = Span.table () in
  let groups = Hashtbl.create 16 in
  List.iter
    (fun (name, calls, self, _) ->
      let layer = List.hd (String.split_on_char '.' name) in
      let n, s = Option.value (Hashtbl.find_opt groups layer) ~default:(0, 0.0) in
      Hashtbl.replace groups layer (n + calls, s +. self))
    rows;
  let pct s = 100.0 *. s /. traced_wall in
  let unattributed = Span.self_s L.root in
  [ Printf.sprintf "# %s: self time per layer, traced wall %.3f s" workload traced_wall;
    Printf.sprintf "%-14s %10s %10s %7s" "layer" "calls" "self_s" "share" ]
  @ (Hashtbl.fold (fun k v acc -> (k, v) :: acc) groups []
    |> List.sort (fun (_, (_, a)) (_, (_, b)) -> compare b a)
    |> List.map (fun (layer, (n, s)) -> Printf.sprintf "%-14s %10d %10.4f %6.2f%%" layer n s (pct s)))
  @ [ Printf.sprintf "# attributed to named layers: %.2f%% (bench.unattributed_s %.4f)"
        (100.0 -. pct unattributed) unattributed;
      Printf.sprintf "%-28s %10s %10s %7s %10s" "span" "calls" "self_s" "share" "total_s" ]
  @ List.map
      (fun (name, calls, self, total) ->
        Printf.sprintf "%-28s %10d %10.4f %6.2f%% %10.4f" name calls self (pct self) total)
      (List.sort (fun (_, _, a, _) (_, _, b, _) -> compare b a) rows)

let write_lines path lines =
  let oc = open_out path in
  List.iter (fun l -> output_string oc l; output_char oc '\n') lines;
  close_out oc

let rec mkdir_p d =
  if d <> "" && d <> "." && d <> "/" && not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    Sys.mkdir d 0o755
  end

let digest s = Digest.to_hex (Digest.string s)

(* repetitions per run at the least, whatever --seconds allows: the
   median of three already drops a repetition that a burst hit *)
let min_reps = 3

let run_once ~workload ~seed ~seconds ~trace ~size ~probes ~out =
  let w = Option.get (W.make workload ~seed ~size) in
  let setup_s = median (List.init probes (fun _ -> probe ~workload ~seed ~size)) in
  w.warmup ();
  (* timed phase: whole repetitions of the untraced form, at least
     [min_reps], while the next one is expected to end within the
     budget.  wall_s sums each item's median over the repetitions of its
     host time normalised by the calibration loop (Calib). *)
  let reps = ref [] and attempted = ref 0 and failed = ref 0 in
  let outputs = ref [] in
  let total times = Array.fold_left ( +. ) 0.0 times in
  let rep_s r = total (Array.map fst r) in
  let t_start = now () in
  let continue = ref true in
  while !continue do
    let log = ref [] in
    W.item_log := Some log;
    let o = Fun.protect ~finally:(fun () -> W.item_log := None) w.untraced in
    reps := Array.of_list (List.rev !log) :: !reps;
    attempted := !attempted + o.attempted;
    failed := !failed + o.failed;
    outputs := o.output :: !outputs;
    let per_rep = median (List.map rep_s !reps) in
    if List.length !reps >= min_reps && now () -. t_start +. per_rep > seconds then continue := false
  done;
  let n_items = Array.length (List.hd !reps) in
  if List.exists (fun r -> Array.length r <> n_items) !reps then failwith "item count differs across repetitions";
  let per_item f = Array.init n_items (fun i -> median (List.map (fun r -> f r.(i)) !reps)) in
  let wall_s = total (per_item (fun (t, c) -> Calib.normalise ~c t)) in
  let raw_s = total (per_item fst) in
  let calib_s = median (List.concat_map (fun r -> List.map snd (Array.to_list r)) !reps) in
  let rss = peak_rss_mb () in
  let untraced_out = List.hd !outputs in
  let reps_agree = List.for_all (String.equal untraced_out) !outputs in
  (* recomposed form, spans off: exact counts and simulated output *)
  let pass ~spans =
    L.reset_counts ();
    Span.reset ();
    Span.enabled := spans;
    let gc0 = Gc.quick_stat () in
    let t0 = now () in
    let o = Span.with_ L.root w.recomposed in
    let dt = now () -. t0 in
    let gc1 = Gc.quick_stat () in
    Span.enabled := false;
    attempted := !attempted + o.attempted;
    failed := !failed + o.failed;
    (o, dt, gc0, gc1, L.exact_counts ())
  in
  let counted, _, _, _, counts = pass ~spans:false in
  let steps = L.c.steps in
  let parity = ref [ ("untraced repetitions agree", reps_agree);
                     ("recomposed output = untraced output", String.equal counted.output untraced_out) ] in
  let notes = ref [] in
  let base = Option.map (fun dir -> mkdir_p dir; Filename.concat dir (Printf.sprintf "%s-seed%d" workload seed)) out in
  Option.iter
    (fun base -> Out_channel.with_open_bin (base ^ ".output.txt") (fun oc -> output_string oc untraced_out))
    base;
  let metrics =
    if not trace then
      [
        m "wall_s" "s" wall_s;
        m "sim_steps_per_s" "1/s" (float_of_int steps /. wall_s);
        m "setup_s" "s" setup_s;
        m "peak_rss_mb" "MB" rss;
      ]
    else begin
      let traced, traced_wall, gc0, gc1, counts' = pass ~spans:true in
      parity :=
        !parity
        @ [ ("traced output = untraced output", String.equal traced.output untraced_out);
            ("exact counts repeat", counts = counts') ];
      let table = layer_table ~workload ~traced_wall in
      notes := table;
      (match base with
      | None -> ()
      | Some base ->
        write_lines (base ^ ".layers.txt") table;
        write_lines (base ^ ".folded.txt") (Span.folded_lines ());
        write_lines (base ^ ".spans.tsv")
          ("span\tname\tstart_ns\tend_ns\tparent\titem" :: Span.record_lines ());
        notes := !notes @ [ Printf.sprintf "# spans written to %s.{layers.txt,folded.txt,spans.tsv}" base ]);
      layer_metrics ~traced_wall ~untraced_wall:raw_s ~gc0 ~gc1
    end
  in
  let notes =
    [ Printf.sprintf "# %s seed=%d output-digest=%s" workload seed (digest untraced_out);
      Printf.sprintf "# repetitions (s): %s"
        (String.concat " " (List.rev_map (fun r -> Printf.sprintf "%.3f" (rep_s r)) !reps));
      Printf.sprintf "# items=%d  raw sum of per-item medians %.4f s, calibration loop median %.6f s (reference %.6f s)"
        n_items raw_s calib_s Calib.reference_s ]
    @ List.map (fun (what, ok) -> Printf.sprintf "# parity: %s: %s" what (if ok then "ok" else "MISMATCH")) !parity
    @ List.map (fun (k, v) -> Printf.sprintf "# exact: %s = %d" k v) counts
    @ !notes
  in
  let correct = List.for_all snd !parity && !failed = 0 in
  {
    correct;
    attempted = !attempted;
    failed = !failed;
    metrics;
    notes =
      notes
      @ [ Printf.sprintf "%-28s %.6g %s" "failed_frac"
            (float_of_int !failed /. float_of_int (max 1 !attempted)) "ratio" ];
  }

let json_of_result r =
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}" r.correct
    r.attempted r.failed
    (String.concat ", "
       (List.map
          (fun x -> Printf.sprintf "\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}" x.m_name x.m_value x.m_unit)
          r.metrics))

let print_result r =
  List.iter print_endline r.notes;
  List.iter (fun x -> Printf.printf "%-28s %.6g %s\n" x.m_name x.m_value x.m_unit) r.metrics;
  print_endline (json_of_result r)

(* ---- smoke test ---------------------------------------------------- *)

(* Metric names listed under [section] ("end_to_end" or "per_layer")
   in BENCHMARK.json: the "name" strings between that key and the next
   top-level array key. *)
let declared_names json section =
  let find_from i sub =
    let n = String.length sub in
    let rec go i = if i + n > String.length json then None else if String.sub json i n = sub then Some i else go (i + 1) in
    go i
  in
  match find_from 0 (Printf.sprintf "\"%s\"" section) with
  | None -> []
  | Some start ->
    let stop = match find_from (start + 1) "]" with Some j -> j | None -> String.length json in
    let rec names i acc =
      match find_from i "\"name\"" with
      | Some j when j < stop ->
        let q1 = String.index_from json (String.index_from json (j + 6) ':') '"' in
        let q2 = String.index_from json (q1 + 1) '"' in
        names q2 (String.sub json (q1 + 1) (q2 - q1 - 1) :: acc)
      | _ -> List.rev acc
    in
    names start []

let smoke json_path =
  let json = In_channel.with_open_bin json_path In_channel.input_all in
  let e2e = declared_names json "end_to_end" and layers = declared_names json "per_layer" in
  let ok = ref true in
  let check what cond =
    Printf.printf "%s %s\n%!" (if cond then "ok  " else "FAIL") what;
    if not cond then ok := false
  in
  check "BENCHMARK.json declares metrics" (e2e <> [] && layers <> []);
  List.iter
    (fun workload ->
      List.iter
        (fun (trace, declared) ->
          let r =
            run_once ~workload ~seed:W.default_seed ~seconds:0.0 ~trace ~size:W.Smoke ~probes:1 ~out:None
          in
          let printed = List.map (fun x -> x.m_name) r.metrics in
          check (Printf.sprintf "%s trace=%b: correct, no failed item" workload trace) (r.correct && r.failed = 0);
          check
            (Printf.sprintf "%s trace=%b: prints exactly the declared metrics" workload trace)
            (List.sort compare printed = List.sort compare declared))
        [ (false, e2e); (true, layers) ])
    W.names;
  (* at the default seed the recomposed forms equal the artifact entry
     points as the bench harness calls them *)
  let open K23_eval in
  let fuzz = Option.get (W.make "fuzz" ~seed:W.default_seed ~size:W.Smoke) in
  check "fuzz = Campaign.run"
    ((fuzz.untraced ()).output
    = K23_fuzz.Campaign.(render_json (run { default_config with c_iters = 5 })));
  let micro = Option.get (W.make "micro" ~seed:W.default_seed ~size:W.Smoke) in
  check "micro = Micro.overhead_row"
    ((micro.recomposed ()).output = Micro.render [ Micro.overhead_row ~runs:1 Mech.Zpoline_default ]);
  let macro = Option.get (W.make "macro" ~seed:W.default_seed ~size:W.Smoke) in
  check "macro = Macro.table6 ~runs:1"
    ((macro.recomposed ()).output
    = Macro.render
        (Macro.table6 ~runs:1 ~specs:[ { (Macro.lighttpd ~workers:1 ~kb:0) with Macro.rounds = 2 } ] ()));
  if not !ok then exit 1

(* ---- command line -------------------------------------------------- *)

let usage () =
  prerr_endline
    "usage: bench.exe --workload fuzz|micro|macro [--seed N] [--seconds S] [--trace 0|1]\n\
    \       bench.exe --smoke BENCHMARK.json";
  exit 2

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let rec get key = function
    | k :: v :: _ when k = key -> Some v
    | _ :: rest -> get key rest
    | [] -> None
  in
  let int_arg key default =
    match get key args with
    | None -> default
    | Some v -> ( match int_of_string_opt v with Some n -> n | None -> usage ())
  in
  match get "--smoke" args with
  | Some json -> smoke json
  | None -> (
    let workload = match get "--workload" args with Some w when List.mem w W.names -> w | _ -> usage () in
    let seed = int_arg "--seed" W.default_seed in
    let size = if List.mem "--smoke-size" args then W.Smoke else W.Full in
    if List.mem "--setup-probe" args then probe_child (Option.get (W.make workload ~seed ~size))
    else
      let seconds = float_of_int (int_arg "--seconds" 10) in
      let trace = match int_arg "--trace" 0 with 0 -> false | 1 -> true | _ -> usage () in
      let r = run_once ~workload ~seed ~seconds ~trace ~size ~probes:21 ~out:(Some "perfbench/out") in
      print_result r;
      match r.correct && r.failed = 0 with true -> () | false -> exit 1)
