(* P2a, dlopen flavour: syscalls from a library loaded at runtime via
   dlopen (the paper names dlopen/dlmopen explicitly in Section 2.2.2)
   are invisible to load-time rewriting but caught by SUD-based
   mechanisms. *)

open K23_isa
open K23_kernel
open K23_userland
module K23 = K23_core.K23
module Mech = K23_eval.Mech

let plugin_path = "/usr/lib/plugin.so"

(* the plugin: one exported function issuing syscall 500 *)
let plugin_image : Kern.image =
  {
    im_name = plugin_path;
    im_prog =
      Asm.assemble
        [
          Asm.Label "plugin_fn";
          Asm.I (Insn.Mov_ri (RAX, Sysno.bench_nonexistent));
          Asm.I Insn.Syscall;
          Asm.I Insn.Ret;
        ];
    im_host_fns = [];
    im_init = None;
    im_entry = None;
    im_needed = [];
    im_owner = Lib "plugin.so";
  }

let app_items =
  [
    Asm.Label "main";
    (* handle = dlopen("/usr/lib/plugin.so") *)
    Asm.Mov_sym (Reg.RDI, "plug");
    Asm.Call_sym "dlopen";
    (* fn = dlsym(handle, "plugin_fn") *)
    Asm.I (Insn.Mov_rr (RDI, RAX));
    Asm.Mov_sym (Reg.RSI, "sym");
    Asm.Call_sym "dlsym";
    Asm.I (Insn.Mov_rr (R14, RAX));
    (* call it 10 times *)
    Asm.I (Insn.Mov_ri (R13, 10));
    Asm.Label "loop";
    Asm.I (Insn.Call_reg R14);
    Asm.I (Insn.Sub_ri (R13, 1));
    Asm.Jc (Insn.NZ, "loop");
    Asm.I (Insn.Xor_rr (RDI, RDI));
    Asm.Call_sym "exit";
    Asm.Section `Data;
    Asm.Label "plug";
    Asm.Strz plugin_path;
    Asm.Label "sym";
    Asm.Strz "plugin_fn";
  ]

let make_world () =
  let w = Sim.create_world () in
  Kern.register_library w plugin_image;
  ignore (Sim.register_app w ~path:"/bin/plugged" app_items);
  w

let count_500 (stats : K23_interpose.Interpose.stats) =
  K23_machine.Inttbl.find stats.by_nr Sysno.bench_nonexistent ~default:0

let test_zpoline_misses_dlopened () =
  let w = make_world () in
  match Mech.launch Mech.Zpoline_default w ~path:"/bin/plugged" () with
  | Error e -> Alcotest.failf "launch: %d" e
  | Ok (p, stats) ->
    let stats = Option.get stats in
    World.run_until_exit w p;
    Alcotest.(check (option int)) "exit 0" (Some 0) p.exit_status;
    Alcotest.(check int) "dlopen'ed syscalls escape zpoline (P2a)" 0 (count_500 stats)

let test_lazypoline_catches_dlopened () =
  let w = make_world () in
  match Mech.launch Mech.Lazypoline w ~path:"/bin/plugged" () with
  | Error e -> Alcotest.failf "launch: %d" e
  | Ok (p, stats) ->
    let stats = Option.get stats in
    World.run_until_exit w p;
    Alcotest.(check (option int)) "exit 0" (Some 0) p.exit_status;
    Alcotest.(check int) "lazypoline interposes them" 10 (count_500 stats)

let test_k23_catches_dlopened () =
  let w = make_world () in
  ignore (K23.offline_run w ~path:"/bin/plugged" ());
  K23.seal_logs w;
  match K23.launch w ~variant:K23.Ultra ~path:"/bin/plugged" () with
  | Error e -> Alcotest.failf "launch: %d" e
  | Ok (p, stats) ->
    World.run_until_exit w p;
    Alcotest.(check (option int)) "exit 0" (Some 0) p.exit_status;
    Alcotest.(check int) "K23 interposes them (SUD fallback)" 10 (count_500 stats);
    Alcotest.(check int) "still exhaustive" p.counters.c_app stats.interposed

(* the offline logger deliberately refuses to log dlopen'ed regions?
   No — a dlopen'ed library IS an expected executable non-writable
   region, so it may be logged and later rewritten if it is mapped
   again; what is never logged is truly dynamic (anonymous rwx)
   code.  Verify the anonymous-region filter: *)
let test_logger_skips_anon_code () =
  let w = Sim.create_world () in
  K23_pitfalls.Pocs.register_all w;
  let entries = K23.offline_run w ~path:K23_pitfalls.Pocs.p2a_path () in
  Alcotest.(check bool) "no [anon] regions in logs" true
    (List.for_all
       (fun e -> e.K23_core.Log_store.region.[0] = '/')
       entries)

let tests =
  ( "dlopen (P2a variant)",
    [
      Alcotest.test_case "zpoline misses dlopen'ed code" `Quick test_zpoline_misses_dlopened;
      Alcotest.test_case "lazypoline catches it" `Quick test_lazypoline_catches_dlopened;
      Alcotest.test_case "K23 catches it, exhaustively" `Quick test_k23_catches_dlopened;
      Alcotest.test_case "offline logger skips anonymous code" `Quick test_logger_skips_anon_code;
    ] )
