(* Reproducibility invariants: the whole simulation is a deterministic
   function of the seed — the property every benchmark number in
   EXPERIMENTS.md rests on. *)

open K23_kernel
open K23_userland
module K23 = K23_core.K23

let fingerprint ~seed =
  let w = Sim.create_world ~seed () in
  K23_apps.Coreutils.register_all w;
  ignore (K23.offline_run w ~path:"/bin/ls" ());
  K23.seal_logs w;
  match K23.launch w ~variant:K23.Ultra ~path:"/bin/ls" () with
  | Error e -> Alcotest.failf "launch: %d" e
  | Ok (p, stats) ->
    World.run_until_exit w p;
    ( Kern.now w,
      w.steps,
      p.counters.c_app,
      stats.interposed,
      stats.via_rewrite,
      stats.via_ptrace,
      World.stdout_of p )

let test_same_seed_same_world () =
  let a = fingerprint ~seed:77 in
  let b = fingerprint ~seed:77 in
  Alcotest.(check bool) "bit-for-bit identical" true (a = b)

let test_different_seed_different_layout () =
  let _, _, _, _, _, _, _ = fingerprint ~seed:77 in
  let cycles_a, _, apps_a, int_a, _, _, out_a = fingerprint ~seed:77 in
  let cycles_b, _, apps_b, int_b, _, _, out_b = fingerprint ~seed:78 in
  (* different machine-state skew => different cycle totals ... *)
  Alcotest.(check bool) "cycle totals differ" true (cycles_a <> cycles_b);
  (* ... but identical semantics *)
  Alcotest.(check int) "same app syscalls" apps_a apps_b;
  Alcotest.(check int) "same interposed count" int_a int_b;
  Alcotest.(check string) "same output" out_a out_b

(* the strong form of the invariant, via ktrace: two seeded runs emit
   byte-identical structured event streams — every syscall, signal,
   selector toggle and ptrace stop at the same cycle with the same
   payload.  Checked both structurally (Trace_diff) and on the
   rendered JSON bytes, for the three mechanism families the paper
   contrasts (rewriting, SUD, ptrace+SUD hybrid). *)
let traced_stream ~mech ~seed =
  let w = Sim.create_world ~seed () in
  K23_apps.Coreutils.register_all w;
  if K23_eval.Mech.needs_offline mech then begin
    ignore (K23.offline_run w ~path:"/bin/ls" ());
    K23.seal_logs w
  end;
  let t = Kern.ktrace_enable w in
  match K23_eval.Mech.launch mech w ~path:"/bin/ls" () with
  | Error e -> Alcotest.failf "launch: %d" e
  | Ok (p, _) ->
    World.run_until_exit w p;
    let events = K23_obs.Trace.events t in
    let json =
      K23_obs.Render.json_stream ~namer:Sysno.name
        ~counters:(K23_obs.Counters.to_list t.K23_obs.Trace.counters)
        ~dropped:(K23_obs.Trace.dropped t) events
    in
    (events, json)

let test_ktrace_streams_identical () =
  List.iter
    (fun mech ->
      let ev_a, json_a = traced_stream ~mech ~seed:7 in
      let ev_b, json_b = traced_stream ~mech ~seed:7 in
      let verdict = K23_obs.Trace_diff.diff ev_a ev_b in
      if not (K23_obs.Trace_diff.is_identical verdict) then
        Alcotest.failf "%s: %s" (K23_eval.Mech.to_string mech)
          (K23_obs.Trace_diff.render ~namer:Sysno.name verdict);
      Alcotest.(check bool)
        (K23_eval.Mech.to_string mech ^ ": non-trivial stream")
        true
        (List.length ev_a > 0);
      Alcotest.(check string) (K23_eval.Mech.to_string mech ^ ": JSON bytes") json_a json_b)
    [ K23_eval.Mech.K23_ultra; K23_eval.Mech.Zpoline_default; K23_eval.Mech.Sud ]

(* and different seeds shift timing without changing the event
   sequence's semantic spine (same syscall kinds in the same order) *)
let test_ktrace_seed_changes_cycles_only () =
  let kinds evs = List.map (fun e -> K23_obs.Event.kind e.K23_obs.Event.ev_payload) evs in
  let ev_a, _ = traced_stream ~mech:K23_eval.Mech.Zpoline_default ~seed:7 in
  let ev_b, _ = traced_stream ~mech:K23_eval.Mech.Zpoline_default ~seed:8 in
  Alcotest.(check (list string)) "same kind sequence" (kinds ev_a) (kinds ev_b)

(* the benchmark's own samples: repeated micro runs with one seed are
   exactly equal (no hidden global state leaks between worlds) *)
let test_micro_repeatable () =
  let a = K23_eval.Micro.cycles_per_iter ~mech:K23_eval.Mech.Zpoline_default ~seed:5 in
  let b = K23_eval.Micro.cycles_per_iter ~mech:K23_eval.Mech.Zpoline_default ~seed:5 in
  Alcotest.(check (float 0.0)) "identical" a b

let tests =
  ( "determinism",
    [
      Alcotest.test_case "same seed, same world" `Quick test_same_seed_same_world;
      Alcotest.test_case "seeds change timing, not semantics" `Quick
        test_different_seed_different_layout;
      Alcotest.test_case "micro samples repeatable" `Quick test_micro_repeatable;
      Alcotest.test_case "ktrace streams byte-identical (k23/zpoline/SUD)" `Quick
        test_ktrace_streams_identical;
      Alcotest.test_case "seeds shift cycles, not the event spine" `Quick
        test_ktrace_seed_changes_cycles_only;
    ] )
