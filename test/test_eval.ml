(* Evaluation-harness sanity: the headline shapes of Tables 2 and 5
   must hold on every test run (full repetitions live in bench/),
   Table 6's sharded sweep must fold into the sequential table, and
   its run budgets must not end silently. *)

module Micro = K23_eval.Micro
module Macro = K23_eval.Macro
module Mech = K23_eval.Mech
module OC = K23_eval.Offline_counts

let overhead mech = (Micro.overhead_row ~runs:2 mech).Micro.overhead

let test_table5_ordering () =
  let zp = overhead Mech.Zpoline_default in
  let zpu = overhead Mech.Zpoline_ultra in
  let k23 = overhead Mech.K23_default in
  let lp = overhead Mech.Lazypoline in
  let k23u = overhead Mech.K23_ultra in
  let sud_off = overhead Mech.Sud_no_interposition in
  let sud = overhead Mech.Sud in
  let checks =
    [
      ("zpoline is fastest", zp < k23);
      ("zpoline-ultra costs more than default", zpu > zp);
      ("K23-default beats lazypoline", k23 < lp);
      ("K23-ultra adds the hash-set check", k23u > k23);
      ("armed SUD slows even uninterposed syscalls", sud_off > 1.15 && sud_off < 1.35);
      ("SUD interposition is an order of magnitude", sud > 10.0);
      ("rewriting stays under 1.5x", k23u < 1.5 && lp < 1.5 && zpu < 1.5);
    ]
  in
  List.iter (fun (msg, ok) -> Alcotest.(check bool) msg true ok) checks

let test_table2_counts_match_paper () =
  List.iter
    (fun (name, expected) ->
      Alcotest.(check int) name expected (OC.coreutil_sites name))
    OC.coreutil_expected

let test_table2_server_counts () =
  (* the servers' offline phase is the one Table 6's K23 columns load,
     vdso off: nginx and lighttpd log libc's clock_gettime fallback
     site on top of the paper's 43 and 44 *)
  let measured = [ ("sqlite", 20); ("nginx", 44); ("lighttpd", 45); ("redis", 92) ] in
  List.iter
    (fun (name, spec) ->
      Alcotest.(check int) name (List.assoc name measured) (OC.app_spec_sites spec))
    OC.server_specs

(* a two-row Table 6 renders the same bytes whatever [jobs] is, and
   the same as rows folded by hand from the per-run measurements: the
   native column at each run seed, every mechanism at seed + 1 *)
let test_table6_fanout () =
  let specs =
    List.map
      (fun s -> { s with Macro.rounds = 2 })
      [ Macro.lighttpd ~workers:1 ~kb:0; Macro.redis ~io_threads:1 ]
  in
  let runs = 2 in
  let table jobs = Macro.render (Macro.table6 ~runs ~specs ~jobs ()) in
  let by_hand =
    let seeds = Macro.run_seeds runs in
    Macro.render
      (List.map
         (fun spec ->
           Macro.assemble_row spec
             (List.map (fun seed -> Macro.run_spec spec Mech.Native ~seed) seeds)
             (List.map
                (fun m -> List.map (fun seed -> Macro.run_spec spec m ~seed:(seed + 1)) seeds)
                Mech.table6_cols))
         specs)
  in
  let j1 = table 1 in
  Alcotest.(check string) "jobs=1 == rows folded by hand" by_hand j1;
  Alcotest.(check string) "jobs=3 == jobs=1" j1 (table 3)

(* the single mechanism-name registry: every variant round-trips
   through its canonical name, the short aliases resolve, and parsing
   is case-insensitive *)
let test_mech_roundtrip () =
  List.iter
    (fun m ->
      let name = Mech.to_string m in
      match Mech.of_string name with
      | Some m' -> Alcotest.(check bool) (name ^ " round-trips") true (m = m')
      | None -> Alcotest.failf "of_string rejected canonical name %S" name)
    Mech.all;
  Alcotest.(check int) "names are unique"
    (List.length Mech.all)
    (List.sort_uniq compare (List.map Mech.to_string Mech.all) |> List.length);
  Alcotest.(check bool) "zpoline alias" true (Mech.of_string "zpoline" = Some Mech.Zpoline_default);
  Alcotest.(check bool) "k23 alias" true (Mech.of_string "k23" = Some Mech.K23_default);
  Alcotest.(check bool) "case-insensitive" true (Mech.of_string "SECCOMP" = Some Mech.Seccomp);
  Alcotest.(check bool) "asc-hook parses" true (Mech.of_string "asc-hook" = Some Mech.Asc_hook);
  Alcotest.(check bool) "unknown rejected" true (Mech.of_string "frobnicate" = None)

(* No silent budgets: waiting for a server that never comes up fails,
   naming the port, instead of returning as if it had. *)
let test_wait_for_listener_fails () =
  let w = K23_userland.Sim.create_world () in
  Alcotest.check_raises "no server"
    (Failure "no listener on port 8080: the run ended before a server bound it")
    (fun () -> Macro.wait_for_listener w 8080)

let test_fig3_format () =
  let log = OC.fig3 () in
  let lines = String.split_on_char '\n' log |> List.filter (fun l -> l <> "") in
  Alcotest.(check bool) "several entries" true (List.length lines >= 8);
  List.iter
    (fun line ->
      match K23_core.Log_store.entry_of_line line with
      | Some e ->
        Alcotest.(check bool) "absolute region path" true (e.K23_core.Log_store.region.[0] = '/');
        Alcotest.(check bool) "positive offset" true (e.offset > 0)
      | None -> Alcotest.failf "unparseable log line: %s" line)
    lines

let tests =
  ( "eval",
    [
      Alcotest.test_case "Table 5 ordering" `Slow test_table5_ordering;
      Alcotest.test_case "Table 2 coreutil counts" `Slow test_table2_counts_match_paper;
      Alcotest.test_case "Table 2 server counts" `Slow test_table2_server_counts;
      Alcotest.test_case "Table 6 fan-out: any jobs == folded by hand" `Slow test_table6_fanout;
      Alcotest.test_case "Figure 3 log format" `Quick test_fig3_format;
      Alcotest.test_case "Mech name registry round-trip" `Quick test_mech_roundtrip;
      Alcotest.test_case "wait_for_listener fails without a server" `Quick test_wait_for_listener_fails;
    ] )
