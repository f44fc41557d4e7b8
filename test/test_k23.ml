(* K23 end-to-end: offline phase, handoff, exhaustive online
   interposition, execve restart, log sealing. *)

open K23_isa
open K23_kernel
open K23_userland
module I = K23_interpose.Interpose
module K23 = K23_core.K23
module Log_store = K23_core.Log_store

let app_path = "/bin/k23app"

(* 40 inlined syscall-500s + write + exit: one unique inlined site plus
   the libc write/exit_group sites *)
let app_items =
  [
    Asm.Label "main";
    Asm.I (Insn.Mov_ri (R13, 40));
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

let make_world ?seed () =
  let w = Sim.create_world ?seed () in
  ignore (Sim.register_app w ~path:app_path app_items);
  w

let test_offline_produces_logs () =
  let w = make_world () in
  let entries = K23.offline_run w ~path:app_path () in
  Alcotest.(check bool)
    (Printf.sprintf "logged %d unique sites" (List.length entries))
    true
    (List.length entries >= 3);
  (* entries name real regions: app binary and libc *)
  Alcotest.(check bool) "app site logged" true
    (List.exists (fun e -> e.Log_store.region = app_path) entries);
  Alcotest.(check bool) "libc site logged" true
    (List.exists (fun e -> e.Log_store.region = Libc.path) entries)

let test_offline_logs_stable_across_aslr () =
  let w = make_world ~seed:5 () in
  let e1 = K23.offline_run w ~path:app_path () in
  let e2 = K23.offline_run w ~path:app_path () in
  (* second run under different ASLR slides adds no new entries *)
  Alcotest.(check int) "same unique sites" (List.length e1) (List.length e2)

let launch_and_run ?(variant = K23.Ultra) w =
  match K23.launch w ~variant ~path:app_path () with
  | Error e -> Alcotest.failf "launch: %d" e
  | Ok (p, stats) ->
    World.run_until_exit w p;
    (p, stats)

let test_online_exhaustive () =
  let w = make_world () in
  ignore (K23.offline_run w ~path:app_path ());
  K23.seal_logs w;
  let p, stats = launch_and_run w in
  Alcotest.(check (option int)) "exit 0" (Some 0) p.exit_status;
  (* THE headline property: every application system call was
     interposed — startup window (ptrace), logged sites (rewrite),
     missed sites (SUD fallback) *)
  Alcotest.(check int) "exhaustive interposition" p.counters.c_app stats.interposed;
  Alcotest.(check bool) "startup window via ptrace" true (stats.via_ptrace > 20);
  Alcotest.(check bool)
    (Printf.sprintf "fast path dominates after offline (%d rewrites, %d traps)"
       stats.via_rewrite stats.via_sigsys)
    true
    (stats.via_rewrite > stats.via_sigsys);
  Alcotest.(check bool) "sites were rewritten" true (K23.rewritten_sites p >= 2)

let test_online_without_offline_falls_back () =
  (* no offline phase: no rewrites, everything post-detach goes through
     the SUD fallback — still exhaustive *)
  let w = make_world () in
  let p, stats = launch_and_run w in
  Alcotest.(check (option int)) "exit 0" (Some 0) p.exit_status;
  Alcotest.(check int) "still exhaustive" p.counters.c_app stats.interposed;
  Alcotest.(check int) "no rewrites" 0 K23.(rewritten_sites p);
  Alcotest.(check bool) "fallback used" true (stats.via_sigsys > 0)

let test_handoff_state () =
  let w = make_world () in
  ignore (K23.offline_run w ~path:app_path ());
  let p, _stats = launch_and_run w in
  (* the ptracer handed its startup syscall count to libK23 via the
     fake-syscall protocol *)
  Alcotest.(check bool)
    (Printf.sprintf "handoff carries startup count (%d)" (K23.startup_handed_over p))
    true
    (K23.startup_handed_over p > 20)

let test_vdso_disabled () =
  let w = make_world () in
  let p, _ = launch_and_run w in
  Alcotest.(check bool) "no vdso region under K23" true
    (not (List.exists (fun r -> r.Kern.r_owner = Kern.Vdso) p.regions));
  Alcotest.(check int) "no vdso fast-path calls" 0 p.counters.c_vdso

let test_seal_blocks_tampering () =
  let w = make_world () in
  ignore (K23.offline_run w ~path:app_path ());
  K23.seal_logs w;
  (match Vfs.write_file w.vfs (Log_store.path_for ~app:app_path) "evil" with
  | Ok _ -> Alcotest.fail "tampering with sealed logs must fail"
  | Error `Perm -> ()
  | Error _ -> Alcotest.fail "expected EPERM");
  Alcotest.(check bool) "sealed" true (Log_store.sealed w)

let test_hash_set_memory_small () =
  let w = make_world () in
  ignore (K23.offline_run w ~path:app_path ());
  let p, _ = launch_and_run ~variant:K23.Ultra w in
  let bytes = K23.check_memory_bytes p in
  (* P4b: the validation state is a few hundred bytes, vs zpoline's
     2^45-byte reservation *)
  Alcotest.(check bool) (Printf.sprintf "tiny check state (%d bytes)" bytes) true (bytes < 4096)

(* execve restart: parent execve's into the same app; the online phase
   must restart (ptracer re-attached, rewrite redone) and interposition
   must stay exhaustive in the new image. *)
let exec_app_path = "/bin/k23exec"

let exec_app_items =
  [
    Asm.Label "main";
    (* execve("/bin/k23app", argv, envp=current) *)
    Asm.Call_sym "build_envp";
    Asm.I (Insn.Mov_rr (RDX, RAX));
    Asm.Mov_sym (Reg.RDI, "target");
    Asm.Mov_sym (Reg.RSI, "argvv");
    Asm.Call_sym "execve";
    (* only reached on failure *)
    Asm.I (Insn.Mov_ri (RDI, 9));
    Asm.Call_sym "exit";
    Asm.Section `Data;
    Asm.Label "target";
    Asm.Strz "/bin/k23app";
    Asm.Label "argvv";
    Asm.Quad 0;
  ]

let test_execve_restart () =
  let w = make_world () in
  ignore (Sim.register_app w ~path:exec_app_path exec_app_items);
  ignore (K23.offline_run w ~path:app_path ());
  (match K23.launch w ~variant:K23.Default ~path:exec_app_path () with
  | Error e -> Alcotest.failf "launch: %d" e
  | Ok (p, stats) ->
    World.run_until_exit w p;
    (* the process is now the exec'd k23app and must have completed *)
    Alcotest.(check (option int)) "exit 0 after exec" (Some 0) p.exit_status;
    Alcotest.(check string) "ran the target" "ok\n" (World.stdout_of p);
    Alcotest.(check string) "cmd updated" "/bin/k23app" p.cmd;
    (* interposition survived the exec: the 40 bench syscalls of the
       new image were interposed *)
    Alcotest.(check bool)
      (Printf.sprintf "interposed across exec (%d)" stats.interposed)
      true
      (stats.interposed > 100))

let tests =
  ( "k23",
    [
      Alcotest.test_case "offline phase logs sites" `Quick test_offline_produces_logs;
      Alcotest.test_case "offline logs ASLR-stable" `Quick test_offline_logs_stable_across_aslr;
      Alcotest.test_case "online exhaustive" `Quick test_online_exhaustive;
      Alcotest.test_case "no offline -> SUD fallback" `Quick test_online_without_offline_falls_back;
      Alcotest.test_case "fake-syscall handoff" `Quick test_handoff_state;
      Alcotest.test_case "vdso disabled" `Quick test_vdso_disabled;
      Alcotest.test_case "sealed logs are immutable" `Quick test_seal_blocks_tampering;
      Alcotest.test_case "hash-set memory (P4b)" `Quick test_hash_set_memory_small;
      Alcotest.test_case "execve restarts online phase" `Quick test_execve_restart;
    ] )
