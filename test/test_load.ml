(* Open-loop latency campaign (lib/eval/load.ml), the server-scenario
   runner beneath it (Macro.run_servers) and the Stats
   percentile/histogram machinery. *)

module Stats = K23_util.Stats
module Load = K23_eval.Load
module Macro = K23_eval.Macro
module Mech = K23_eval.Mech

let raises_invalid f =
  match f () with
  | exception Invalid_argument _ -> true
  | _ -> false

(* --- Stats.percentile ------------------------------------------------- *)

let test_percentile_edges () =
  Alcotest.(check bool) "empty rejected" true
    (raises_invalid (fun () -> Stats.percentile 50.0 []));
  Alcotest.(check (float 1e-9)) "single sample p0" 7.0 (Stats.percentile 0.0 [ 7.0 ]);
  Alcotest.(check (float 1e-9)) "single sample p50" 7.0 (Stats.percentile 50.0 [ 7.0 ]);
  Alcotest.(check (float 1e-9)) "single sample p100" 7.0 (Stats.percentile 100.0 [ 7.0 ]);
  let xs = [ 5.0; 1.0; 4.0; 2.0; 3.0 ] in
  Alcotest.(check (float 1e-9)) "p0 = min" 1.0 (Stats.percentile 0.0 xs);
  Alcotest.(check (float 1e-9)) "p100 = max" 5.0 (Stats.percentile 100.0 xs);
  Alcotest.(check (float 1e-9)) "p50 agrees with median" (Stats.median xs)
    (Stats.percentile 50.0 xs);
  Alcotest.(check (float 1e-9)) "nearest rank returns an actual sample" 99.0
    (Stats.percentile 99.0 (List.init 100 (fun i -> float_of_int (i + 1))));
  Alcotest.(check bool) "nan rejected" true
    (raises_invalid (fun () -> Stats.percentile 50.0 [ 1.0; Float.nan ]));
  Alcotest.(check bool) "p < 0 rejected" true
    (raises_invalid (fun () -> Stats.percentile (-1.0) xs));
  Alcotest.(check bool) "p > 100 rejected" true
    (raises_invalid (fun () -> Stats.percentile 101.0 xs))

(* --- Stats.Hist ------------------------------------------------------- *)

let test_hist_sanity () =
  let h = Stats.Hist.create () in
  Alcotest.(check bool) "empty histogram percentile rejected" true
    (raises_invalid (fun () -> Stats.Hist.percentile h 50.0));
  let samples = [ 100; 200; 400; 800; 100_000 ] in
  List.iter (Stats.Hist.add h) samples;
  Alcotest.(check int) "total" 5 (Stats.Hist.total h);
  Alcotest.(check bool) "out-of-range p rejected" true
    (raises_invalid (fun () -> Stats.Hist.percentile h 101.0));
  (* every bucket is at most 6.25% of its value wide, so percentiles
     land just above the exact sample *)
  let p50 = Stats.Hist.percentile h 50.0 in
  Alcotest.(check bool)
    (Printf.sprintf "p50 within bucket error of 400 (%d)" p50)
    true
    (p50 >= 400 && p50 <= 426);
  let p100 = Stats.Hist.percentile h 100.0 in
  Alcotest.(check bool)
    (Printf.sprintf "p100 covers the max (%d)" p100)
    true
    (p100 >= 100_000 && p100 <= 106_250);
  Alcotest.(check int) "bucket counts sum to total" 5
    (List.fold_left (fun a (_, _, n) -> a + n) 0 (Stats.Hist.buckets h));
  List.iter
    (fun (lo, hi, _) -> Alcotest.(check bool) "bucket bounds ordered" true (lo < hi))
    (Stats.Hist.buckets h);
  let true_mean =
    List.fold_left (fun a s -> a +. float_of_int s) 0.0 samples /. 5.0
  in
  Alcotest.(check bool) "mean within bucket error" true
    (Float.abs (Stats.Hist.mean h -. true_mean) /. true_mean < 0.0625)

(* --- campaign: determinism across --jobs, and latency physics --------- *)

(* a two-row slice of the real campaign, small enough for a test: the
   bench [table6-load --json] output is exactly [Load.render_json] of
   this report, so byte-equality here is the --jobs 1 vs --jobs 4
   determinism contract of the CLI *)
let test_campaign_determinism_and_tails () =
  let specs = [ Load.uniform Load.Web Mech.Native; Load.uniform Load.Web Mech.Sud ] in
  let run jobs = Load.campaign ~quick:true ~jobs ~runs:1 ~requests:64 ~specs () in
  let r1 = run 1 in
  let r4 = run 4 in
  Alcotest.(check string) "render_json byte-identical across --jobs"
    (Load.render_json r1) (Load.render_json r4);
  match r1.Load.rep_rows with
  | [ native; sud ] ->
    (* 2 workers -> 2 client threads x 64 requests, all accounted for *)
    Alcotest.(check int) "native: every request sampled" (2 * 64) native.Load.r_samples;
    Alcotest.(check int) "native: no errors" 0 native.Load.r_errors;
    Alcotest.(check int) "sud: no errors" 0 sud.Load.r_errors;
    Alcotest.(check bool) "latencies are positive" true (native.Load.r_p50 > 0);
    Alcotest.(check bool) "p50 <= p99 <= p999" true
      (native.Load.r_p50 <= native.Load.r_p99 && native.Load.r_p99 <= native.Load.r_p999);
    Alcotest.(check bool)
      (Printf.sprintf "SUD p50 >= native p50 (%d vs %d)" sud.Load.r_p50 native.Load.r_p50)
      true
      (sud.Load.r_p50 >= native.Load.r_p50)
  | rows -> Alcotest.failf "expected 2 rows, got %d" (List.length rows)

(* the chaos row: same determinism contract with the fault plane armed,
   plus the resilience contract -- retries absorb the injected noise, so
   requests still complete and the JSON says which plan was in force *)
let test_chaos_row_determinism () =
  let specs = [ Load.uniform Load.Web Mech.Native; Load.uniform Load.Web Mech.Sud ] in
  let faults = K23_faults.Faults.chaos () in
  let run jobs = Load.campaign ~quick:true ~jobs ~runs:1 ~requests:64 ~specs ~faults () in
  let r1 = run 1 in
  let r4 = run 4 in
  Alcotest.(check string) "chaos render_json byte-identical across --jobs"
    (Load.render_json r1) (Load.render_json r4);
  Alcotest.(check (option string)) "plan recorded in the report"
    (Some (K23_faults.Faults.to_string faults))
    r1.Load.rep_faults;
  match r1.Load.rep_rows with
  | [ native; sud ] ->
    Alcotest.(check int) "native: storm absorbed, all requests complete" (2 * 64)
      native.Load.r_samples;
    Alcotest.(check int) "native: no errors" 0 native.Load.r_errors;
    Alcotest.(check int) "sud: no errors" 0 sud.Load.r_errors
  | rows -> Alcotest.failf "expected 2 rows, got %d" (List.length rows)

(* a stalled scenario fails loudly: a client framing one byte more
   than the server's response waits for a byte that never comes, while
   the server waits for the next request.  The runner raises with the
   blocked tids, clean and under chaos, instead of returning the short
   count *)
let test_stall_fails_loudly () =
  let spec = Macro.nginx ~workers:1 ~kb:0 in
  let client = Option.get (Macro.client_for spec ~rounds:2) in
  let client = { client with depth = 1; resp_len = client.resp_len + 1 } in
  List.iter
    (fun (what, faults) ->
      match Macro.run_servers ~seed:7 ?faults [ { Macro.spec; mech = Mech.Native; client } ] with
      | _ -> Alcotest.failf "%s: the stalled run returned" what
      | exception Failure msg ->
        Alcotest.(check string) (what ^ ": names the client and the blocked tids")
          "clients /usr/bin/wrk deadlocked: tid 1: read(conn 1), tid 2: read(conn 1)" msg)
    [ ("clean", None); ("chaos", Some (K23_faults.Faults.chaos ())) ]

let tests =
  ( "load campaign",
    [
      Alcotest.test_case "percentile edge cases" `Quick test_percentile_edges;
      Alcotest.test_case "histogram sanity" `Quick test_hist_sanity;
      Alcotest.test_case "campaign --jobs determinism + tail physics" `Quick
        test_campaign_determinism_and_tails;
      Alcotest.test_case "chaos row --jobs determinism + resilience" `Quick
        test_chaos_row_determinism;
      Alcotest.test_case "a stalled scenario fails loudly" `Quick test_stall_fails_loudly;
    ] )
