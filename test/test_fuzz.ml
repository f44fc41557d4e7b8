(* Differential conformance fuzzer: generator determinism, the
   zero-divergence smoke invariant, corpus round-trips, and replay of
   checked-in minimized repros. *)

module F = K23_fuzz
module Gen = K23_fuzz.Gen
module Oracle = K23_fuzz.Oracle
module Shrink = K23_fuzz.Shrink
module Corpus = K23_fuzz.Corpus
module Campaign = K23_fuzz.Campaign
module Mech = K23_eval.Mech
module Rng = K23_util.Rng

(* the smoke invariant the CI fuzz pass scales up: the conformance-safe
   shape mix must produce identical observable behaviour natively and
   under every mechanism *)
let test_smoke_no_divergence () =
  let config = { Campaign.default_config with c_seed = 23; c_iters = 12 } in
  let r = Campaign.run config in
  Alcotest.(check int) "programs" 12 r.Campaign.r_programs;
  List.iter
    (fun (m, n) ->
      Alcotest.(check int) (Printf.sprintf "%s divergences" (Mech.to_string m)) 0 n)
    r.Campaign.r_divergent

(* same seed -> byte-identical JSON report (the report carries no
   timing, and every program and world draw is seed-derived) *)
let test_report_deterministic () =
  let config = { Campaign.default_config with c_seed = 41; c_iters = 8 } in
  let j1 = Campaign.render_json (Campaign.run config) in
  let j2 = Campaign.render_json (Campaign.run config) in
  Alcotest.(check string) "byte-identical JSON" j1 j2

(* different seeds -> different programs (the seed actually matters) *)
let test_seed_varies_programs () =
  let p1 = Gen.generate (Rng.create ~seed:1) in
  let p2 = Gen.generate (Rng.create ~seed:2) in
  let p1' = Gen.generate (Rng.create ~seed:1) in
  Alcotest.(check bool) "same seed, same program" true (p1.Gen.items = p1'.Gen.items);
  Alcotest.(check bool) "different seed, different program" true (p1.Gen.items <> p2.Gen.items)

(* the generator's programs always terminate within the oracle budget
   natively (no runaway loops / missing epilogues) *)
let test_programs_terminate () =
  for seed = 100 to 109 do
    let prog = Gen.generate (Rng.create ~seed) in
    match Oracle.run ~mech:Mech.Native prog.Gen.items with
    | Oracle.Launch_failed e -> Alcotest.failf "seed %d: launch failed (%d)" seed e
    | Oracle.Ok_run pr ->
      List.iter
        (fun (cpid, fate) ->
          match fate with
          | K23_eval.Session.Running -> Alcotest.failf "seed %d: pid %d still running" seed cpid
          | _ -> ())
        pr.Oracle.fates
  done

(* a disabled mitigation must be caught: zpoline without the NULL check
   misdirects call *rax(0) down its page-0 trampoline, where natively
   the jump is a fatal fault (P4a) *)
let null_call_items =
  Gen.X86
    [
      K23_isa.Asm.Label "main";
      K23_isa.Asm.I (K23_isa.Insn.Xor_rr (RAX, RAX));
      K23_isa.Asm.I (K23_isa.Insn.Call_reg RAX);
    ]

let test_mitigation_off_detected () =
  match Oracle.diverges ~mech:Mech.Zpoline_default null_call_items with
  | None -> Alcotest.fail "zpoline-default NULL call not detected as divergent"
  | Some d ->
    Alcotest.(check string) "mech" "zpoline-default" d.Oracle.d_mech;
    (* the hardened variant detects the NULL execution and kills the
       process — a loud crash (SIGABRT vs native's SIGSEGV), never the
       default variant's silent misdirected read *)
    (match Oracle.diverges ~mech:Mech.Zpoline_ultra null_call_items with
    | None -> ()
    | Some d ->
      let killed s =
        match String.index_opt s 'k' with
        | Some i -> String.length s - i >= 6 && String.sub s i 6 = "killed"
        | None -> false
      in
      Alcotest.(check bool)
        (Printf.sprintf "ultra variant still dies, loudly (%s)" (Oracle.render_divergence d))
        true
        (killed d.Oracle.d_mech_val))

(* the shrinker reduces a divergent program to a tiny repro that still
   diverges *)
let test_shrink_minimizes () =
  let rng = Rng.create ~seed:23000071 in
  let prog = Gen.generate ~shapes:[ Gen.Null_call; Gen.Raw ] rng in
  match Shrink.minimize ~mech:Mech.Zpoline_default prog.Gen.items with
  | None -> Alcotest.fail "seeded null-call program did not diverge"
  | Some r ->
    Alcotest.(check bool)
      (Printf.sprintf "minimal repro is <= 16 insns (got %d)" (Gen.insn_count r.Shrink.items))
      true
      (Gen.insn_count r.Shrink.items <= 16);
    (match Oracle.diverges ~mech:Mech.Zpoline_default r.Shrink.items with
    | Some _ -> ()
    | None -> Alcotest.fail "minimized repro no longer diverges")

(* corpus serialisation round-trips exactly *)
let test_corpus_roundtrip () =
  let rng = Rng.create ~seed:7 in
  let prog = Gen.generate ~shapes:Gen.all_shapes rng in
  let e =
    {
      Corpus.e_mech = Mech.Zpoline_default;
      e_seed = 7;
      e_expect = "pid 0 record 1: native=a mech=b";
      e_faults = Some (K23_faults.Faults.chaos ~fseed:41 ());
      e_items = prog.Gen.items;
    }
  in
  let e' = Corpus.of_string (Corpus.to_string e) in
  Alcotest.(check bool) "items round-trip" true (e.Corpus.e_items = e'.Corpus.e_items);
  Alcotest.(check string) "expect round-trips" e.Corpus.e_expect e'.Corpus.e_expect;
  Alcotest.(check int) "seed round-trips" e.Corpus.e_seed e'.Corpus.e_seed;
  Alcotest.(check string) "mech round-trips"
    (Mech.to_string e.Corpus.e_mech)
    (Mech.to_string e'.Corpus.e_mech);
  Alcotest.(check bool) "fault plan round-trips" true (e.Corpus.e_faults = e'.Corpus.e_faults)

(* the ARM smoke invariant: the same conformance-safe mix, generated
   by the AArch64 backend, conforms under the ARM mechanism column *)
let arm_world_cfg =
  { Oracle.default_world_cfg with K23_kernel.World.Config.isa = K23_isa.Isa.Arm64 }

let test_arm_smoke_no_divergence () =
  let config =
    {
      Campaign.default_config with
      c_seed = 23;
      c_iters = 8;
      c_mechs = Oracle.default_mechs_for K23_isa.Isa.Arm64;
      c_world = arm_world_cfg;
    }
  in
  let r = Campaign.run config in
  Alcotest.(check int) "programs" 8 r.Campaign.r_programs;
  List.iter
    (fun (m, n) ->
      Alcotest.(check int) (Printf.sprintf "%s divergences" (Mech.to_string m)) 0 n)
    r.Campaign.r_divergent

(* the svc-alias shape is the designed ARM divergence: a campaign over
   it catches ASC-Hook patching the program's literal pool (P3a) *)
let test_arm_svc_alias_detected () =
  let config =
    {
      Campaign.default_config with
      c_seed = 23;
      c_iters = 6;
      c_mechs = [ Mech.Asc_hook ];
      c_shapes = [ Gen.Svc_alias; Gen.Raw ];
      c_world = arm_world_cfg;
    }
  in
  let r = Campaign.run config in
  Alcotest.(check bool) "asc-hook diverges on svc-alias" true
    (Campaign.total_divergences r > 0)

(* ARM corpus entries round-trip, and the [isa:] header key is emitted
   exactly for them — x86 entries keep their pre-ISA bytes *)
let test_arm_corpus_roundtrip () =
  let rng = Rng.create ~seed:11 in
  let prog = Gen.generate ~shapes:(Gen.all_shapes_for K23_isa.Isa.Arm64) ~isa:K23_isa.Isa.Arm64 rng in
  Alcotest.(check bool) "generator tags arm" true
    (Gen.items_isa prog.Gen.items = K23_isa.Isa.Arm64);
  let e =
    {
      Corpus.e_mech = Mech.Asc_hook;
      e_seed = 11;
      e_expect = "pid 0 record 1: native=a mech=b";
      e_faults = None;
      e_items = prog.Gen.items;
    }
  in
  let text = Corpus.to_string e in
  let contains ~needle s =
    let nl = String.length needle and sl = String.length s in
    let rec go i = i + nl <= sl && (String.sub s i nl = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "isa header present" true (contains ~needle:"isa: arm64" text);
  let e' = Corpus.of_string text in
  Alcotest.(check bool) "arm items round-trip" true (e.Corpus.e_items = e'.Corpus.e_items);
  (* x86 entries must not grow an isa header (byte compatibility) *)
  let x86 = Gen.generate (Rng.create ~seed:11) in
  let ex = { e with Corpus.e_items = x86.Gen.items } in
  Alcotest.(check bool) "no isa header on x86" false
    (contains ~needle:"isa:" (Corpus.to_string ex))

(* every checked-in repro still reproduces its divergence, and stays
   within the minimality budget *)
let test_corpus_replay () =
  let entries = Corpus.load_dir "corpus" in
  Alcotest.(check bool) "corpus is not empty" true (entries <> []);
  List.iter
    (fun (name, e) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: <= 16 insns" name)
        true
        (Gen.insn_count e.Corpus.e_items <= 16);
      let cfg =
        let base =
          {
            Oracle.default_world_cfg with
            K23_kernel.World.Config.isa = Gen.items_isa e.Corpus.e_items
          }
        in
        Some
          (match e.Corpus.e_faults with
          | Some p -> { base with K23_kernel.World.Config.faults = p }
          | None -> base)
      in
      match Oracle.diverges ?cfg ~mech:e.Corpus.e_mech e.Corpus.e_items with
      | Some _ -> ()
      | None -> Alcotest.failf "%s: divergence no longer reproduces" name)
    entries

let tests =
  ( "fuzz",
    [
      Alcotest.test_case "smoke: no divergence (safe shapes)" `Quick test_smoke_no_divergence;
      Alcotest.test_case "report JSON deterministic" `Quick test_report_deterministic;
      Alcotest.test_case "seed determines program" `Quick test_seed_varies_programs;
      Alcotest.test_case "generated programs terminate" `Quick test_programs_terminate;
      Alcotest.test_case "mitigation-off detected (P4a)" `Quick test_mitigation_off_detected;
      Alcotest.test_case "shrinker minimizes repro" `Quick test_shrink_minimizes;
      Alcotest.test_case "corpus round-trip" `Quick test_corpus_roundtrip;
      Alcotest.test_case "arm smoke: no divergence (safe shapes)" `Quick
        test_arm_smoke_no_divergence;
      Alcotest.test_case "arm svc-alias detected (P3a)" `Quick test_arm_svc_alias_detected;
      Alcotest.test_case "arm corpus round-trip (isa header)" `Quick test_arm_corpus_roundtrip;
      Alcotest.test_case "corpus replay" `Quick test_corpus_replay;
    ] )
