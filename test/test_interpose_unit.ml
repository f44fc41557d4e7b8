(* Interposition-framework unit tests + regressions. *)

open K23_kernel
open K23_userland
open K23_isa
module I = K23_interpose.Interpose
module Lp = K23_baselines.Lazypoline
module Zp = K23_baselines.Zpoline

let test_add_preload () =
  Alcotest.(check (list string)) "adds to empty" [ "LD_PRELOAD=/l.so" ] (I.add_preload [] "/l.so");
  Alcotest.(check (list string)) "prepends to existing"
    [ "FOO=1"; "LD_PRELOAD=/l.so:/other.so" ]
    (I.add_preload [ "FOO=1"; "LD_PRELOAD=/other.so" ] "/l.so");
  Alcotest.(check (list string)) "keeps other vars"
    [ "A=b"; "LD_PRELOAD=/l.so" ]
    (I.add_preload [ "A=b" ] "/l.so")

let test_trampoline_layout () =
  (* the trampoline contract: a nop sled covering every syscall number
     (rax < 512), then [vcall pre][syscall][vcall post][ret] *)
  Alcotest.(check int) "sled covers syscall numbers" 512 I.nop_sled_len;
  Alcotest.(check int) "entry" 512 I.trampoline_entry;
  Alcotest.(check int) "syscall at entry+6" 518 I.trampoline_syscall_addr;
  Alcotest.(check int) "post at entry+8" 520 I.trampoline_post_addr

let test_counting_handler () =
  let stats = I.fresh_stats () in
  let h = I.counting_handler stats in
  let w = Sim.create_world () in
  ignore (Sim.register_app w ~path:"/bin/x" [ Asm.Label "main"; Asm.Call_sym "exit" ]);
  let p = Sim.run_to_exit w ~path:"/bin/x" () in
  let ctx = { Kern.world = w; thread = List.hd p.threads } in
  (match h ctx ~nr:39 ~args:[| 0; 0; 0; 0; 0; 0 |] ~site:0 with
  | I.Forward -> ()
  | I.Emulate _ -> Alcotest.fail "default is Forward");
  Alcotest.(check int) "counted" 1 stats.interposed;
  Alcotest.(check (option int)) "by_nr" (Some 1) (K23_machine.Inttbl.find_opt stats.by_nr 39)

(* rewriting saves and restores page permissions (the zpoline/K23
   behaviour, contrast with lazypoline's P5 flaw) *)
let test_rewrite_preserves_perms () =
  let w = Sim.create_world () in
  ignore (Sim.register_app w ~path:"/bin/x" [ Asm.Label "main"; Asm.Call_sym "exit" ]);
  let p = Sim.run_to_exit w ~path:"/bin/x" () in
  let th = List.hd p.threads in
  (* plant a syscall in an executable page with unusual permissions *)
  K23_machine.Memory.map p.mem ~addr:0x4_0000 ~len:4096 ~perm:K23_machine.Memory.perm_x;
  K23_machine.Memory.write_bytes_raw p.mem 0x4_0000 (Bytes.of_string "\x0f\x05");
  I.rewrite_site_atomic { Kern.world = w; thread = th } ~site:0x4_0000;
  Alcotest.(check string) "rewritten" "ff d0"
    (K23_util.Hexdump.of_bytes (K23_machine.Memory.read_bytes_raw p.mem 0x4_0000 2));
  match K23_machine.Memory.get_perm p.mem 0x4_0000 with
  | Some perm ->
    Alcotest.(check string) "XOM preserved" "--x" (K23_machine.Memory.perm_to_string perm)
  | None -> Alcotest.fail "page vanished"

(* regression: under lazypoline, a server that forks workers from
   inside the SIGSYS handler (the fork syscall is re-issued there)
   must not lose any worker *)
let test_lazypoline_fork_workers () =
  let w = Sim.create_world ~quantum:8 () in
  let spec = K23_eval.Macro.nginx ~workers:4 ~kb:0 in
  let path, port = K23_eval.Macro.register_workload w spec in
  (match K23_eval.Mech.launch K23_eval.Mech.Lazypoline w ~path () with
  | Error e -> Alcotest.failf "launch: %d" e
  | Ok _ -> ());
  K23_eval.Macro.wait_for_listener w port;
  Kern.sync_cores w;
  let client = Option.get (K23_eval.Macro.client_for spec ~rounds:4) in
  let results = K23_apps.Wrk.register w client in
  (match World.spawn w ~path:client.K23_apps.Wrk.path () with
  | Error e -> Alcotest.failf "client: %d" e
  | Ok cp -> Kern.run ~max_steps:50_000_000 ~until:(fun () -> Kern.proc_dead cp) w);
  let dead_workers =
    List.filter (fun p -> p.Kern.cmd = path && p.Kern.term_signal <> None) w.procs
  in
  Alcotest.(check int) "no worker died" 0 (List.length dead_workers);
  Alcotest.(check int) "all requests served"
    (client.threads * client.depth * client.rounds)
    results.completed;
  K23_eval.Macro.kill_everything w

(* regression: a process exit must not tear down descriptors still
   held by fork siblings (listener refcounting) *)
let test_fd_refcount_across_fork () =
  let w = Sim.create_world ~quantum:8 () in
  let spec = K23_eval.Macro.nginx ~workers:2 ~kb:0 in
  let path, port = K23_eval.Macro.register_workload w spec in
  (match World.spawn w ~path () with
  | Error e -> Alcotest.failf "spawn: %d" e
  | Ok _ -> ());
  K23_eval.Macro.wait_for_listener w port;
  (* let the master finish forking its sibling *)
  Kern.run ~max_steps:1_000_000
    ~until:(fun () -> List.length (List.filter (fun p -> p.Kern.cmd = path) w.procs) >= 2)
    w;
  (* kill one worker; the listener must survive via its sibling *)
  let workers = List.filter (fun p -> p.Kern.cmd = path) w.procs in
  Alcotest.(check int) "both workers exist" 2 (List.length workers);
  Kern.kill_proc (List.nth workers (List.length workers - 1)) ~signal:9;
  Alcotest.(check bool) "listener survives" true (Hashtbl.mem w.net.listeners port);
  K23_eval.Macro.kill_everything w;
  Alcotest.(check bool) "listener released with last holder" false
    (Hashtbl.mem w.net.listeners port)

let tests =
  ( "interpose-framework",
    [
      Alcotest.test_case "add_preload" `Quick test_add_preload;
      Alcotest.test_case "trampoline layout" `Quick test_trampoline_layout;
      Alcotest.test_case "counting handler" `Quick test_counting_handler;
      Alcotest.test_case "rewrite preserves perms" `Quick test_rewrite_preserves_perms;
      Alcotest.test_case "lazypoline fork workers (regression)" `Quick test_lazypoline_fork_workers;
      Alcotest.test_case "fd refcount across fork (regression)" `Quick test_fd_refcount_across_fork;
    ] )
