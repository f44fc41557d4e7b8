(* Integration tests: each baseline interposer drives the counting
   handler over a small application; interposed counts are compared
   against kernel ground truth. *)

open K23_isa
open K23_kernel
open K23_userland
module I = K23_interpose.Interpose
module Zp = K23_baselines.Zpoline
module Lp = K23_baselines.Lazypoline
module Sud = K23_baselines.Sud_interposer
module Pt = K23_baselines.Ptrace_interposer

(* A program that issues [n] inlined syscall-500s plus write+exit via
   libc. *)
let bench_app n =
  [
    Asm.Label "main";
    Asm.I (Insn.Mov_ri (R13, n));
    Asm.Label "loop";
    Asm.I (Insn.Mov_ri (RAX, Sysno.bench_nonexistent));
    Asm.I Insn.Syscall;
    Asm.I (Insn.Sub_ri (R13, 1));
    Asm.Jc (Insn.NZ, "loop");
    Asm.I (Insn.Mov_ri (RDI, 1));
    Asm.Mov_sym (Reg.RSI, "m");
    Asm.I (Insn.Mov_ri (RDX, 3));
    Asm.Call_sym "write";
    Asm.I (Insn.Xor_rr (RDI, RDI));
    Asm.Call_sym "exit";
    Asm.Section `Data;
    Asm.Label "m";
    Asm.Strz "ok\n";
  ]

let world_with_app ?seed n =
  let w = Sim.create_world ?seed () in
  ignore (Sim.register_app w ~path:"/bin/bench" (bench_app n));
  w

let post_startup_syscalls (p : Kern.proc) = p.counters.c_app - p.counters.c_startup

let test_zpoline_interposes () =
  let w = world_with_app 50 in
  match Zp.launch w ~variant:Zp.Default ~path:"/bin/bench" () with
  | Error e -> Alcotest.failf "launch: %d" e
  | Ok (p, stats) ->
    World.run_until_exit w p;
    Alcotest.(check (option int)) "exit 0" (Some 0) p.exit_status;
    Alcotest.(check string) "stdout" "ok\n" (World.stdout_of p);
    (* zpoline interposes the app's post-startup syscalls... *)
    Alcotest.(check bool)
      (Printf.sprintf "interposed %d >= 52" stats.interposed)
      true (stats.interposed >= 52);
    (* ...entirely through the rewritten fast path *)
    Alcotest.(check int) "no SIGSYS path" 0 stats.via_sigsys;
    (* ...but misses every startup syscall (P2b) *)
    Alcotest.(check bool)
      (Printf.sprintf "startup blind spot: %d missed" p.counters.c_startup)
      true
      (p.counters.c_startup > 20)

let test_zpoline_ultra_null_check () =
  let w = world_with_app 5 in
  match Zp.launch w ~variant:Zp.Ultra ~path:"/bin/bench" () with
  | Error e -> Alcotest.failf "launch: %d" e
  | Ok (p, stats) ->
    World.run_until_exit w p;
    Alcotest.(check (option int)) "exit 0" (Some 0) p.exit_status;
    Alcotest.(check int) "no aborts on legitimate sites" 0 stats.aborts;
    let reserved, committed = Zp.check_memory_bytes p in
    Alcotest.(check bool) "bitmap reserves 2^45 bytes (P4b)" true (reserved = 1 lsl 45);
    Alcotest.(check bool) "committed pages are small" true (committed < 1 lsl 20)

let test_lazypoline_interposes () =
  let w = world_with_app 50 in
  match Lp.launch w ~path:"/bin/bench" () with
  | Error e -> Alcotest.failf "launch: %d" e
  | Ok (p, stats) ->
    World.run_until_exit w p;
    Alcotest.(check (option int)) "exit 0" (Some 0) p.exit_status;
    Alcotest.(check bool)
      (Printf.sprintf "interposed %d >= 52" stats.interposed)
      true (stats.interposed >= 52);
    (* first execution of each site goes through SIGSYS, the rest are
       rewritten *)
    Alcotest.(check bool) "some SIGSYS discoveries" true (stats.via_sigsys >= 1);
    Alcotest.(check bool)
      (Printf.sprintf "fast path dominates (%d rewrites vs %d traps)" stats.via_rewrite
         stats.via_sigsys)
      true
      (stats.via_rewrite > stats.via_sigsys)

let test_sud_interposes () =
  let w = world_with_app 50 in
  match Sud.launch w ~path:"/bin/bench" () with
  | Error e -> Alcotest.failf "launch: %d" e
  | Ok (p, stats) ->
    World.run_until_exit w p;
    Alcotest.(check (option int)) "exit 0" (Some 0) p.exit_status;
    Alcotest.(check bool) "interposed" true (stats.interposed >= 52);
    Alcotest.(check int) "all via SIGSYS" stats.interposed stats.via_sigsys

let test_ptrace_interposes_everything () =
  let w = world_with_app 50 in
  match Pt.launch w ~path:"/bin/bench" () with
  | Error e -> Alcotest.failf "launch: %d" e
  | Ok (p, stats) ->
    World.run_until_exit w p;
    Alcotest.(check (option int)) "exit 0" (Some 0) p.exit_status;
    (* ptrace sees every app syscall including the startup window:
       exhaustiveness means interposed = ground truth *)
    Alcotest.(check int) "exhaustive" p.counters.c_app stats.interposed;
    Alcotest.(check bool) "startup window covered" true (p.counters.c_startup > 20)

(* Deep argument inspection: the handler reads the buffer passed to
   write(2) out of the target's memory — the expressiveness that
   seccomp-style filters lack. *)
let test_argument_inspection () =
  let w = world_with_app 1 in
  let seen = ref "" in
  let inner : I.handler =
   fun ctx ~nr ~args ~site:_ ->
    if nr = Sysno.write then
      seen := K23_machine.Memory.read_cstr ctx.thread.t_proc.mem args.(1);
    I.Forward
  in
  (match Zp.launch w ~variant:Zp.Default ~inner ~path:"/bin/bench" () with
  | Error e -> Alcotest.failf "launch: %d" e
  | Ok (p, _) -> World.run_until_exit w p);
  Alcotest.(check string) "handler saw the write buffer" "ok\n" !seen

(* Emulation: the handler rewrites the result of syscall 500 without
   entering the kernel. *)
let emulate_app =
  [
    Asm.Label "main";
    Asm.I (Insn.Mov_ri (RAX, Sysno.bench_nonexistent));
    Asm.I Insn.Syscall;
    (* exit with the (emulated) syscall result as status *)
    Asm.I (Insn.Mov_rr (RDI, RAX));
    Asm.Call_sym "exit";
  ]

let test_emulation () =
  let w = Sim.create_world () in
  ignore (Sim.register_app w ~path:"/bin/emu" emulate_app);
  let inner : I.handler =
   fun _ ~nr ~args:_ ~site:_ -> if nr = Sysno.bench_nonexistent then I.Emulate 42 else I.Forward
  in
  (match Zp.launch w ~variant:Zp.Default ~inner ~path:"/bin/emu" () with
  | Error e -> Alcotest.failf "launch: %d" e
  | Ok (p, _) ->
    World.run_until_exit w p;
    Alcotest.(check (option int)) "emulated result becomes exit code" (Some 42) p.exit_status)

let test_emulation_sud () =
  let w = Sim.create_world () in
  ignore (Sim.register_app w ~path:"/bin/emu" emulate_app);
  let inner : I.handler =
   fun _ ~nr ~args:_ ~site:_ -> if nr = Sysno.bench_nonexistent then I.Emulate 42 else I.Forward
  in
  match Sud.launch w ~inner ~path:"/bin/emu" () with
  | Error e -> Alcotest.failf "launch: %d" e
  | Ok (p, _) ->
    World.run_until_exit w p;
    Alcotest.(check (option int)) "emulated via SIGSYS path" (Some 42) p.exit_status

let tests =
  ( "interposers",
    [
      Alcotest.test_case "zpoline interposes (fast path only)" `Quick test_zpoline_interposes;
      Alcotest.test_case "zpoline-ultra bitmap (P4b numbers)" `Quick test_zpoline_ultra_null_check;
      Alcotest.test_case "lazypoline trap-then-rewrite" `Quick test_lazypoline_interposes;
      Alcotest.test_case "SUD interposes everything post-init" `Quick test_sud_interposes;
      Alcotest.test_case "ptrace is exhaustive (incl. startup)" `Quick test_ptrace_interposes_everything;
      Alcotest.test_case "deep argument inspection" `Quick test_argument_inspection;
      Alcotest.test_case "emulation via rewrite path" `Quick test_emulation;
      Alcotest.test_case "emulation via SIGSYS path" `Quick test_emulation_sud;
    ] )
