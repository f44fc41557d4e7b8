(* lib/replay: recording round-trips (text codec + save/load), the
   replayer's zero-divergence invariant on faithful replays, divergence
   detection on tampered logs, the --at inspector, the replay-checked
   fuzz oracle (verdicts identical to live, byte-identical at any
   --jobs), and record/replay of the checked-in corpus repros —
   including the faults-plane restart repro, whose schedule must
   re-roll identically from the recorded config. *)

module R = K23_replay
module Recording = K23_replay.Recording
module Recorder = K23_replay.Recorder
module Replayer = K23_replay.Replayer
module Event = K23_obs.Event
module Oracle = K23_fuzz.Oracle
module Mech = K23_eval.Mech

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  nl = 0 || go 0

let register_coreutils w = K23_apps.Coreutils.register_all w

let record_ls mech =
  let cfg = K23_kernel.World.Config.default in
  let w = K23_userland.Sim.create_world_cfg cfg in
  register_coreutils w;
  match Recorder.record ~cfg w ~mech ~path:(K23_apps.Coreutils.path "ls") with
  | Error e -> Alcotest.failf "record ls under %s failed (%d)" (Mech.to_string mech) e
  | Ok r -> r

(* text codec: parse (to_string r) back and re-serialise byte-identically,
   with every field surviving the trip *)
let test_recording_roundtrip () =
  let r = record_ls Mech.Zpoline_ultra in
  Alcotest.(check bool) "recording has events" true (r.Recording.rc_events <> []);
  let s = Recording.to_string r in
  let r' = Recording.of_string s in
  Alcotest.(check int)
    "event count survives"
    (List.length r.Recording.rc_events)
    (List.length r'.Recording.rc_events);
  Alcotest.(check bool)
    "events survive" true
    (List.for_all2 Event.equal r.Recording.rc_events r'.Recording.rc_events);
  Alcotest.(check string) "app survives" r.Recording.rc_app r'.Recording.rc_app;
  Alcotest.(check string)
    "mech survives"
    (Mech.to_string r.Recording.rc_mech)
    (Mech.to_string r'.Recording.rc_mech);
  Alcotest.(check bool) "config survives" true (r.Recording.rc_cfg = r'.Recording.rc_cfg);
  Alcotest.(check string) "console survives" r.Recording.rc_console r'.Recording.rc_console;
  Alcotest.(check bool) "fates survive" true (r.Recording.rc_fates = r'.Recording.rc_fates);
  Alcotest.(check int) "root pid survives" r.Recording.rc_root r'.Recording.rc_root;
  Alcotest.(check string) "re-serialisation byte-identical" s (Recording.to_string r')

(* save/load through an actual file *)
let test_recording_save_load () =
  let r = record_ls Mech.K23_ultra in
  let path = Filename.temp_file "k23rec" ".k23rec" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Recording.save ~path r;
      let r' = Recording.load path in
      Alcotest.(check string)
        "file round-trip byte-identical" (Recording.to_string r) (Recording.to_string r'))

(* a truncated log body must be rejected, not silently shortened *)
let test_recording_truncation_rejected () =
  let r = record_ls Mech.Zpoline_ultra in
  let s = Recording.to_string r in
  let cut = String.sub s 0 (String.length s - 40) in
  match Recording.of_string cut with
  | exception Recording.Parse_error _ -> ()
  | _ -> Alcotest.fail "truncated recording parsed"

(* the tentpole invariant: replaying a parsed recording re-drives the
   identical stream, console and fates *)
let replay_clean mech =
  let r = record_ls mech in
  let r = Recording.of_string (Recording.to_string r) in
  match Replayer.replay ~register:register_coreutils r with
  | Error e -> Alcotest.failf "replay launch failed (%d)" e
  | Ok o ->
    Alcotest.(check bool)
      (Printf.sprintf "%s replay clean" (Mech.to_string mech))
      true (Replayer.ok o);
    Alcotest.(check int) "every event checked" o.Replayer.o_total o.Replayer.o_checked

let test_replay_identical_zpoline () = replay_clean Mech.Zpoline_ultra
let test_replay_identical_k23 () = replay_clean Mech.K23_ultra

(* a log with an event removed mid-stream must report the first
   divergence at exactly that index *)
let test_replay_detects_tampering () =
  let r = record_ls Mech.Zpoline_ultra in
  let n = List.length r.Recording.rc_events in
  let cut = n / 2 in
  let tampered =
    { r with Recording.rc_events = List.filteri (fun i _ -> i <> cut) r.Recording.rc_events }
  in
  match Replayer.replay ~register:register_coreutils tampered with
  | Error e -> Alcotest.failf "replay launch failed (%d)" e
  | Ok o -> (
    Alcotest.(check bool) "tampered replay not ok" false (Replayer.ok o);
    match o.Replayer.o_divergence with
    | None -> Alcotest.fail "no divergence reported"
    | Some d ->
      Alcotest.(check int) "first divergence at the cut" cut d.K23_obs.Trace_diff.index;
      Alcotest.(check bool)
        "context is bounded" true
        (List.length d.K23_obs.Trace_diff.context <= K23_obs.Trace_diff.context_len))

(* --at inspector on a signal-delivery-heavy run: under SUD every
   syscall is a SIGSYS round trip, so the log is dense with
   Signal_deliver events; stopping at one must dump live machine
   state (regs, maps, fd table) at that instant *)
let test_at_inspector () =
  let r = record_ls Mech.Sud in
  let sig_idx =
    let rec find i = function
      | [] -> Alcotest.fail "no Signal_deliver event in SUD recording"
      | (e : Event.t) :: tl -> (
        match e.Event.ev_payload with Event.Signal_deliver _ -> i | _ -> find (i + 1) tl)
    in
    find 0 r.Recording.rc_events
  in
  match Replayer.replay ~at:sig_idx ~register:register_coreutils r with
  | Error e -> Alcotest.failf "replay launch failed (%d)" e
  | Ok o -> (
    match o.Replayer.o_stop with
    | None -> Alcotest.failf "--at %d did not stop" sig_idx
    | Some s ->
      Alcotest.(check int) "stopped at the requested event" sig_idx s.Replayer.st_index;
      Alcotest.(check bool) "no divergence before the stop" true (o.Replayer.o_divergence = None);
      List.iter
        (fun needle ->
          Alcotest.(check bool)
            (Printf.sprintf "dump has %s" needle)
            true
            (contains ~needle s.Replayer.st_state))
        [ "regs"; "maps:"; "fds:"; "rip" ])

(* replay-checked fuzz oracle: verdicts (and the whole JSON report)
   identical to the live oracle, and byte-identical across --jobs.
   The full 200-iteration gate runs in bin/dune; this is the in-suite
   fast version. *)
let test_replay_oracle_matches_live () =
  let module C = K23_fuzz.Campaign in
  let live = { C.default_config with c_seed = 23; c_iters = 20 } in
  let replayed = { live with C.c_oracle = C.Replay } in
  let j_live = C.render_json (C.run ~jobs:1 live) in
  let j_replay = C.render_json (C.run ~jobs:1 replayed) in
  Alcotest.(check string) "live and replay oracle reports byte-identical" j_live j_replay;
  let j_replay4 = C.render_json (C.run ~jobs:4 replayed) in
  Alcotest.(check string) "replay oracle jobs 1 = jobs 4" j_replay j_replay4

(* the recording wire format pins the world's ISA: an ARM recording
   carries an [isa: arm64] header that survives the round-trip, while
   x86 recordings keep their pre-ISA bytes (no isa line at all) *)
let test_recording_isa_wire_format () =
  let module Gen = K23_fuzz.Gen in
  let arm_cfg =
    { Oracle.default_world_cfg with K23_kernel.World.Config.isa = K23_isa.Isa.Arm64 }
  in
  let prog = Gen.generate ~isa:K23_isa.Isa.Arm64 (K23_util.Rng.create ~seed:5) in
  (match Oracle.record ~cfg:arm_cfg ~mech:Mech.Native prog.Gen.items with
  | Error e -> Alcotest.failf "arm record failed (%d)" e
  | Ok r ->
    let text = Recording.to_string r in
    Alcotest.(check bool) "isa header present" true (contains ~needle:"\nisa: arm64\n" text);
    let r' = Recording.of_string text in
    Alcotest.(check bool) "isa survives round-trip" true
      (r'.Recording.rc_cfg.K23_kernel.World.Config.isa = K23_isa.Isa.Arm64));
  let x86 = record_ls Mech.Zpoline_ultra in
  Alcotest.(check bool) "no isa header on x86" false
    (contains ~needle:"\nisa:" (Recording.to_string x86))

(* every checked-in repro records and replays cleanly under its own
   mechanism and fault plan — including the PR 8 restart repro, whose
   faults: header must re-arm the schedule from the recorded config *)
let test_corpus_record_replay () =
  let module Corpus = K23_fuzz.Corpus in
  let module Gen = K23_fuzz.Gen in
  let entries = Corpus.load_dir "corpus" in
  Alcotest.(check bool) "corpus is not empty" true (entries <> []);
  Alcotest.(check bool)
    "faults restart repro present" true
    (List.exists (fun (name, _) -> contains ~needle:"restart" name) entries);
  List.iter
    (fun (name, e) ->
      let cfg =
        let base =
          {
            Oracle.default_world_cfg with
            K23_kernel.World.Config.isa = Gen.items_isa e.Corpus.e_items
          }
        in
        match e.Corpus.e_faults with
        | Some p -> { base with K23_kernel.World.Config.faults = p }
        | None -> base
      in
      match Oracle.record ~cfg ~mech:e.Corpus.e_mech e.Corpus.e_items with
      | Error err -> Alcotest.failf "%s: record failed (%d)" name err
      | Ok r -> (
        let r = Recording.of_string (Recording.to_string r) in
        let register w =
          match e.Corpus.e_items with
          | Gen.X86 its ->
            ignore (K23_userland.Sim.register_app w ~path:Oracle.target_path its);
            ignore
              (K23_userland.Sim.register_app w ~path:Gen.exec_child_path Gen.exec_child_items)
          | Gen.A64 its ->
            let module A = K23_isa_arm.Asm_arm in
            ignore
              (K23_userland.Sim.register_app_prog w ~path:Oracle.target_path (A.assemble its));
            ignore
              (K23_userland.Sim.register_app_prog w ~path:Gen.exec_child_path
                 (A.assemble Gen.exec_child_items_arm))
        in
        match Replayer.replay ~register r with
        | Error err -> Alcotest.failf "%s: replay launch failed (%d)" name err
        | Ok o ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: replay clean (%d events)" name o.Replayer.o_total)
            true (Replayer.ok o)))
    entries

let tests =
  ( "replay",
    [
      Alcotest.test_case "recording round-trip" `Quick test_recording_roundtrip;
      Alcotest.test_case "recording save/load" `Quick test_recording_save_load;
      Alcotest.test_case "truncated recording rejected" `Quick test_recording_truncation_rejected;
      Alcotest.test_case "replay identical (zpoline-ultra)" `Quick test_replay_identical_zpoline;
      Alcotest.test_case "replay identical (K23-ultra)" `Quick test_replay_identical_k23;
      Alcotest.test_case "tampered log diverges at cut" `Quick test_replay_detects_tampering;
      Alcotest.test_case "--at inspector (SUD signal storm)" `Quick test_at_inspector;
      Alcotest.test_case "replay oracle = live oracle" `Quick test_replay_oracle_matches_live;
      Alcotest.test_case "recording isa wire format" `Quick test_recording_isa_wire_format;
      Alcotest.test_case "corpus record/replay (incl. faults)" `Quick test_corpus_record_replay;
    ] )
