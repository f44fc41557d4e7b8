(* ktrace observability subsystem (lib/obs) plus the satellite fixes
   that ride along with it: the Net.Byteq two-list queue and the
   Stats nan/non-positive hardening. *)

open K23_kernel
module Ring = K23_obs.Ring
module Counters = K23_obs.Counters
module Event = K23_obs.Event
module Trace = K23_obs.Trace
module Trace_diff = K23_obs.Trace_diff
module Render = K23_obs.Render
module Stats = K23_util.Stats
module H = K23_pitfalls.Harness
module Session = K23_eval.Session

(* --- ring buffer ---------------------------------------------------- *)

let test_ring_basic () =
  let r = Ring.create ~capacity:4 in
  Alcotest.(check int) "capacity" 4 (Ring.capacity r);
  Alcotest.(check (list int)) "empty" [] (Ring.to_list r);
  Ring.push r 1;
  Ring.push r 2;
  Ring.push r 3;
  Alcotest.(check (list int)) "oldest first" [ 1; 2; 3 ] (Ring.to_list r);
  Alcotest.(check int) "nothing dropped" 0 (Ring.dropped r)

let test_ring_overflow () =
  let r = Ring.create ~capacity:4 in
  for i = 1 to 10 do
    Ring.push r i
  done;
  Alcotest.(check (list int)) "keeps the newest, oldest first" [ 7; 8; 9; 10 ] (Ring.to_list r);
  Alcotest.(check int) "length capped" 4 (Ring.length r);
  Alcotest.(check int) "evictions counted" 6 (Ring.dropped r);
  Ring.clear r;
  Alcotest.(check (list int)) "clear empties" [] (Ring.to_list r);
  Alcotest.(check int) "clear resets dropped" 0 (Ring.dropped r)

let test_ring_bad_capacity () =
  Alcotest.check_raises "zero capacity rejected"
    (Invalid_argument "Ring.create: capacity must be positive") (fun () ->
      ignore (Ring.create ~capacity:0))

(* The ring is allocated on use: an empty ring with the default ktrace
   capacity holds 1024 slots (~8 KiB), not 65,536 (~512 KiB). *)
let test_ring_allocated_on_use () =
  let before = Gc.allocated_bytes () in
  let r = Ring.create ~capacity:65536 in
  let allocated = Gc.allocated_bytes () -. before in
  Alcotest.(check bool)
    (Printf.sprintf "empty ring allocates < 16 KiB (got %.0f B)" allocated)
    true (allocated < 16384.);
  Alcotest.(check int) "capacity is the limit" 65536 (Ring.capacity r)

(* Growing on use must not change what a bounded ring keeps: the
   newest [capacity] entries, oldest first, with the rest counted as
   dropped — whatever the capacity (powers of two or not, below or
   above the initial allocation) and however many pushes. *)
let prop_ring_window =
  QCheck.Test.make ~name:"ring: window and dropped count of a ring grown on use" ~count:200
    QCheck.(pair (int_range 1 5000) (int_range 0 12000))
    (fun (capacity, n) ->
      let r = Ring.create ~capacity in
      for i = 1 to n do
        Ring.push r i
      done;
      let kept = min n capacity in
      Ring.to_list r = List.init kept (fun i -> n - kept + 1 + i)
      && Ring.dropped r = n - kept)

(* ring overflow through the real recording path: a tiny ring under a
   real run retains exactly [capacity] events and counts the rest *)
let test_ring_overflow_live () =
  let w = K23_userland.Sim.create_world ~seed:3 () in
  K23_apps.Coreutils.register_all w;
  let t = Kern.ktrace_enable ~capacity:16 w in
  (match K23_baselines.Zpoline.launch w ~variant:K23_baselines.Zpoline.Default ~path:"/bin/ls" ()
   with
  | Error e -> Alcotest.failf "launch: %d" e
  | Ok (p, _) -> World.run_until_exit w p);
  Alcotest.(check int) "ring full" 16 (List.length (Trace.events t));
  Alcotest.(check bool) "overflow happened" true (Trace.dropped t > 0);
  Alcotest.(check int) "event_count = live + dropped" (Trace.event_count t)
    (16 + Trace.dropped t)

(* unbounded mode: the recorder's sink must never drop — growth
   unrolls the circular window, so order survives arbitrary volume.
   The default ring stays bounded (pinned here and by the overflow
   tests above). *)
let test_ring_unbounded () =
  let r = Ring.create_unbounded ~initial:4 () in
  Alcotest.(check bool) "unbounded ring reports itself" false (Ring.bounded r);
  Alcotest.(check bool) "default ring is bounded" true (Ring.bounded (Ring.create ~capacity:4));
  for i = 1 to 10_000 do
    Ring.push r i
  done;
  Alcotest.(check int) "nothing dropped" 0 (Ring.dropped r);
  Alcotest.(check int) "everything retained" 10_000 (Ring.length r);
  Alcotest.(check (list int)) "order preserved across growth"
    (List.init 10_000 (fun i -> i + 1))
    (Ring.to_list r);
  Ring.clear r;
  Alcotest.(check (list int)) "clear empties" [] (Ring.to_list r);
  Ring.push r 42;
  Alcotest.(check (list int)) "usable after clear" [ 42 ] (Ring.to_list r)

(* growth mid-stream: push past the initial capacity and keep going —
   the unrolled window must stay oldest-first through the doubling *)
let test_ring_unbounded_growth_order () =
  let r = Ring.create_unbounded ~initial:4 () in
  for i = 1 to 6 do
    Ring.push r i
  done;
  Alcotest.(check (list int)) "grown mid-stream, oldest first" [ 1; 2; 3; 4; 5; 6 ]
    (Ring.to_list r);
  Alcotest.(check int) "fold parity after growth" 21 (Ring.fold ( + ) 0 r)

(* fold/iter walk the circular array in place; they must agree with
   to_list in every fill state, including after wrap-around *)
let test_ring_fold_iter_parity () =
  let parity r =
    Alcotest.(check (list int)) "fold parity" (Ring.to_list r)
      (List.rev (Ring.fold (fun acc x -> x :: acc) [] r));
    let seen = ref [] in
    Ring.iter (fun x -> seen := x :: !seen) r;
    Alcotest.(check (list int)) "iter parity" (Ring.to_list r) (List.rev !seen)
  in
  let r = Ring.create ~capacity:4 in
  parity r;
  Ring.push r 1;
  Ring.push r 2;
  Ring.push r 3;
  parity r;
  for i = 4 to 11 do
    Ring.push r i
  done;
  parity r;
  Alcotest.(check int) "fold sees live entries only" (8 + 9 + 10 + 11) (Ring.fold ( + ) 0 r)

(* --- request latency events ------------------------------------------ *)

(* run a small open-loop client under ktrace: every req_recv must pair
   with an earlier req_send on the same (conn, req), and the latencies
   derived from the event stream must equal what the client recorded *)
let test_req_event_pairing () =
  let requests = 12 in
  let w = K23_userland.Sim.create_world ~seed:11 ~quantum:8 () in
  let t = Kern.ktrace_enable ~capacity:65536 w in
  let scfg = K23_apps.Webserver.nginx ~workers:1 ~file_size:0 () in
  K23_apps.Webserver.register w scfg;
  (match World.spawn w ~path:scfg.K23_apps.Webserver.path () with
  | Error e -> Alcotest.failf "server spawn: %d" e
  | Ok _ -> ());
  K23_eval.Macro.wait_for_listener w scfg.port;
  Kern.sync_cores w;
  let ccfg =
    {
      K23_apps.Wrk.path = "/usr/bin/wrk";
      port = scfg.port;
      threads = 1;
      conns = 1;
      depth = 0;
      rounds = 0;
      req_cost = 300;
      resp_len = K23_apps.Webserver.header_len;
      arrival = K23_apps.Wrk.Open { rate = 200_000; requests; seed = 42 };
      retries = 0;
    }
  in
  let results = K23_apps.Wrk.register w ccfg in
  (match World.spawn w ~path:ccfg.K23_apps.Wrk.path () with
  | Error e -> Alcotest.failf "client spawn: %d" e
  | Ok cp -> Kern.run ~max_steps:200_000_000 ~until:(fun () -> Kern.proc_dead cp) w);
  K23_eval.Macro.kill_everything w;
  Alcotest.(check int) "all requests completed" requests results.K23_apps.Wrk.completed;
  Alcotest.(check int) "nothing dropped from the ring" 0 (Trace.dropped t);
  let sends = Hashtbl.create 16 in
  let lats = ref [] in
  List.iter
    (fun (e : Event.t) ->
      match e.Event.ev_payload with
      | Event.Req_send { conn; req; sched } ->
        Alcotest.(check bool) "send stamped at or after its schedule" true
          (e.Event.ev_cycles >= sched);
        Hashtbl.replace sends (conn, req) (sched, e.Event.ev_cycles)
      | Event.Req_recv { conn; req } -> (
        match Hashtbl.find_opt sends (conn, req) with
        | None -> Alcotest.failf "req_recv without req_send: conn %d req %d" conn req
        | Some (sched, sent_at) ->
          Alcotest.(check bool) "recv after send" true (e.Event.ev_cycles >= sent_at);
          lats := (e.Event.ev_cycles - sched) :: !lats)
      | _ -> ())
    (Trace.events t);
  Alcotest.(check int) "one req_recv per completion" requests (List.length !lats);
  (* both lists are newest-first, recorded at the same instants *)
  Alcotest.(check (list int)) "event-stream latencies = client latencies"
    results.K23_apps.Wrk.latencies !lats

(* --- counter registry ----------------------------------------------- *)

let test_counters () =
  let c = Counters.create () in
  Alcotest.(check int) "absent reads 0" 0 (Counters.get c "nope");
  Counters.incr c "a";
  Counters.incr c "a";
  Counters.incr ~by:5 c "b";
  Alcotest.(check int) "incr" 2 (Counters.get c "a");
  Alcotest.(check (list (pair string int))) "sorted list" [ ("a", 2); ("b", 5) ]
    (Counters.to_list c);
  Counters.clear c;
  Alcotest.(check (list (pair string int))) "clear" [] (Counters.to_list c)

(* --- trace-diff ------------------------------------------------------ *)

let ev i payload = Event.make ~cycles:(100 * i) ~pid:1 ~tid:1 payload

let test_trace_diff () =
  let mk n = List.init n (fun i -> ev i (Event.Annot (string_of_int i))) in
  (match Trace_diff.diff (mk 8) (mk 8) with
  | Trace_diff.Identical n -> Alcotest.(check int) "length reported" 8 n
  | Trace_diff.Diverged _ -> Alcotest.fail "equal streams reported as diverged");
  (* point divergence *)
  let left = mk 8 in
  let right = List.mapi (fun i e -> if i = 5 then ev i (Event.Annot "x") else e) left in
  (match Trace_diff.diff left right with
  | Trace_diff.Identical _ -> Alcotest.fail "diverged streams reported identical"
  | Trace_diff.Diverged d ->
    Alcotest.(check int) "first divergence index" 5 d.Trace_diff.index;
    Alcotest.(check bool) "both sides present" true
      (d.Trace_diff.left <> None && d.Trace_diff.right <> None);
    Alcotest.(check int) "context bounded to context_len" Trace_diff.context_len
      (List.length d.Trace_diff.context);
    (* the after-context: up to context_len events past the divergence
       on each side, so a report shows what each stream did next *)
    Alcotest.(check int) "left after-context has the remaining events"
      (min Trace_diff.context_len 2)
      (List.length d.Trace_diff.after_left);
    Alcotest.(check int) "right after-context has the remaining events"
      (min Trace_diff.context_len 2)
      (List.length d.Trace_diff.after_right));
  (* length divergence: one stream is a strict prefix *)
  match Trace_diff.diff (mk 8) (mk 6) with
  | Trace_diff.Identical _ -> Alcotest.fail "prefix streams reported identical"
  | Trace_diff.Diverged d ->
    Alcotest.(check int) "diverges at the shorter end" 6 d.Trace_diff.index;
    Alcotest.(check bool) "right ended" true (d.Trace_diff.right = None)

let test_render_json_shape () =
  let events =
    [
      ev 0 (Event.Syscall_enter { nr = 1; site = 0x1000; owner = "app"; args = [| 7; 8; 9 |] });
      ev 1 (Event.Syscall_exit { nr = 1; ret = -2 });
      ev 2 (Event.Annot "mech:\"quoted\"");
    ]
  in
  let s = Render.json_stream ~namer:string_of_int ~counters:[ ("sys.app", 1) ] ~dropped:0 events in
  Alcotest.(check bool) "object shape" true
    (String.length s > 2 && s.[0] = '{' && String.sub s (String.length s - 2) 2 = "}\n");
  Alcotest.(check bool) "quotes escaped" true
    (not (String.length s = 0)
    && (let ok = ref false in
        String.iteri (fun i c -> if c = '\\' && i + 1 < String.length s && s.[i + 1] = '"' then ok := true) s;
        !ok))

(* --- counters parity with the legacy record (Table 3 workloads) ------ *)

(* run one PoC as a Session, optionally with a ktrace sink; the
   processes of the measured run are those with pid >= the root's
   (K23's offline process precedes the sink) *)
let run_poc_session ?sink sys path =
  let w = K23_userland.Sim.create_world () in
  K23_pitfalls.Pocs.register_all w;
  match Session.run ?sink ~max_steps:30_000_000 w ~mech:(H.mech_of sys) ~path with
  | Error e -> Alcotest.failf "PoC %s failed to launch: %d" path e
  | Ok (root, _, _) ->
    (w, List.filter (fun (q : Kern.proc) -> q.Kern.pid >= root.Kern.pid) w.Kern.procs)

let flat_totals procs =
  List.fold_left
    (fun (a, i, s, v, g) (q : Kern.proc) ->
      let c = q.Kern.counters in
      (a + c.Kern.c_app, i + c.Kern.c_interposer, s + c.Kern.c_startup, v + c.Kern.c_vdso,
       g + c.Kern.c_sigsys))
    (0, 0, 0, 0, 0) procs

(* the world registry counts what the flat per-process record counts;
   none of these PoCs execve (which resets the flat record only) *)
let test_counter_parity () =
  List.iter
    (fun sys ->
      List.iter
        (fun path ->
          let w, procs = run_poc_session ~sink:Session.Bounded sys path in
          let named n = Counters.get (Option.get w.Kern.ktrace).Trace.counters n in
          let app, interposer, startup, vdso, sigsys = flat_totals procs in
          let what = Printf.sprintf "%s %s " (H.system_to_string sys) path in
          Alcotest.(check int) (what ^ "sys.app = c_app") app (named "sys.app");
          Alcotest.(check int) (what ^ "sys.interposer = c_interposer") interposer
            (named "sys.interposer");
          Alcotest.(check int) (what ^ "sys.startup = c_startup") startup (named "sys.startup");
          Alcotest.(check int) (what ^ "sigsys = c_sigsys") sigsys (named "sigsys");
          Alcotest.(check int) (what ^ "sys.vdso = c_vdso") vdso (named "sys.vdso"))
        [ K23_pitfalls.Pocs.p2b_path; K23_pitfalls.Pocs.p3a_path; K23_pitfalls.Pocs.target_path ])
    [ H.Zpoline; H.Lazypoline; H.K23_sys ]

(* with tracing off no registry exists at all (the zero-overhead
   contract is also a zero-side-effect contract), and the flat record
   Table 3 reads counts the same as with tracing on *)
let test_counters_off_by_default () =
  let w, procs = run_poc_session H.Zpoline K23_pitfalls.Pocs.target_path in
  Alcotest.(check bool) "no sink without ktrace" true (w.Kern.ktrace = None);
  let _, traced = run_poc_session ~sink:Session.Bounded H.Zpoline K23_pitfalls.Pocs.target_path in
  let off = flat_totals procs in
  let a, _, _, _, _ = off in
  Alcotest.(check bool) "flat record counts app syscalls" true (a > 0);
  Alcotest.(check bool) "flat record unchanged by tracing" true (off = flat_totals traced)

(* --- Net.Byteq: two-list queue parity -------------------------------- *)

(* reference model: a plain byte list *)
let test_byteq_parity () =
  let q = Net.Byteq.create () in
  let model = Buffer.create 256 in
  let consumed = ref 0 in
  let rng = ref 12345 in
  let rand m =
    rng := ((!rng * 1103515245) + 12345) land 0x3fffffff;
    !rng mod m
  in
  let pending () = Buffer.length model - !consumed in
  for _step = 1 to 2000 do
    if rand 2 = 0 then begin
      (* push a chunk, possibly empty *)
      let n = rand 17 in
      let b = Bytes.init n (fun _ -> Char.chr (rand 256)) in
      Net.Byteq.push q b;
      Buffer.add_bytes model b
    end
    else begin
      let want = rand 23 in
      let got = Net.Byteq.pop q want in
      let expect = min want (pending ()) in
      Alcotest.(check int) "pop size" expect (Bytes.length got);
      Alcotest.(check string) "pop bytes in FIFO order"
        (Buffer.sub model !consumed expect)
        (Bytes.to_string got);
      consumed := !consumed + expect
    end;
    Alcotest.(check int) "length tracks model" (pending ()) (Net.Byteq.length q)
  done;
  (* drain *)
  let rest = Net.Byteq.pop q max_int in
  Alcotest.(check string) "drain" (Buffer.sub model !consumed (pending ())) (Bytes.to_string rest);
  Alcotest.(check int) "empty" 0 (Net.Byteq.length q)

(* a large push burst must be far from quadratic: 20k chunks in well
   under a second even on a slow box *)
let test_byteq_push_linear () =
  let q = Net.Byteq.create () in
  let t0 = Sys.time () in
  for _ = 1 to 20_000 do
    Net.Byteq.push q (Bytes.make 8 'x')
  done;
  let dt = Sys.time () -. t0 in
  Alcotest.(check int) "all bytes queued" 160_000 (Net.Byteq.length q);
  Alcotest.(check bool) "push burst is not quadratic" true (dt < 1.0)

(* --- Stats hardening -------------------------------------------------- *)

let test_stats_geomean_guard () =
  Alcotest.(check (float 1e-9)) "geomean ok" 2.0 (Stats.geomean [ 1.0; 4.0 ]);
  let raises xs =
    match Stats.geomean xs with
    | exception Invalid_argument _ -> true
    | (_ : float) -> false
  in
  Alcotest.(check bool) "zero rejected" true (raises [ 1.0; 0.0 ]);
  Alcotest.(check bool) "negative rejected" true (raises [ 1.0; -2.0 ]);
  Alcotest.(check bool) "nan rejected" true (raises [ 1.0; Float.nan ]);
  Alcotest.(check bool) "inf rejected" true (raises [ 1.0; Float.infinity ])

let test_stats_drop_outliers_guard () =
  Alcotest.(check (list (float 1e-9))) "normal drop" [ 2.0; 3.0 ]
    (Stats.drop_outliers [ 3.0; 1.0; 2.0; 9.0 ]);
  (* negatives sort correctly with Float.compare *)
  Alcotest.(check (list (float 1e-9))) "negative samples" [ -1.0; 2.0 ]
    (Stats.drop_outliers [ 2.0; -3.0; -1.0; 9.0 ]);
  match Stats.drop_outliers [ 1.0; Float.nan; 2.0; 3.0 ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "nan sample must be rejected"

let tests =
  ( "obs (ktrace)",
    [
      Alcotest.test_case "ring basic" `Quick test_ring_basic;
      Alcotest.test_case "ring overwrites oldest" `Quick test_ring_overflow;
      Alcotest.test_case "ring rejects bad capacity" `Quick test_ring_bad_capacity;
      Alcotest.test_case "ring allocated on use (< 16 KiB empty)" `Quick
        test_ring_allocated_on_use;
      QCheck_alcotest.to_alcotest prop_ring_window;
      Alcotest.test_case "ring overflow on a live run" `Quick test_ring_overflow_live;
      Alcotest.test_case "ring fold/iter parity (incl. wrapped)" `Quick
        test_ring_fold_iter_parity;
      Alcotest.test_case "unbounded ring never drops" `Quick test_ring_unbounded;
      Alcotest.test_case "unbounded ring growth keeps order" `Quick
        test_ring_unbounded_growth_order;
      Alcotest.test_case "req_send/req_recv pairing on a live open-loop run" `Quick
        test_req_event_pairing;
      Alcotest.test_case "counter registry" `Quick test_counters;
      Alcotest.test_case "trace-diff verdicts" `Quick test_trace_diff;
      Alcotest.test_case "json stream shape" `Quick test_render_json_shape;
      Alcotest.test_case "named counters match legacy record (Table 3 apps)" `Slow
        test_counter_parity;
      Alcotest.test_case "named counters empty when tracing off" `Quick
        test_counters_off_by_default;
      Alcotest.test_case "Byteq matches byte-stream model" `Quick test_byteq_parity;
      Alcotest.test_case "Byteq push burst linear" `Quick test_byteq_push_linear;
      Alcotest.test_case "geomean input guard" `Quick test_stats_geomean_guard;
      Alcotest.test_case "drop_outliers nan guard" `Quick test_stats_drop_outliers_guard;
    ] )
