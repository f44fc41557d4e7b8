(* Workload applications: coreutils behave like their namesakes, the
   servers serve, the clients measure. *)

open K23_kernel
open K23_userland
module Apps = K23_apps

let boot_coreutil ?argv name =
  let w = Sim.create_world () in
  Apps.Coreutils.register_all w;
  let p = Sim.run_to_exit w ~path:(Apps.Coreutils.path name) ?argv () in
  (w, p)

let test_pwd () =
  let _, p = boot_coreutil "pwd" in
  Alcotest.(check (option int)) "exit 0" (Some 0) p.exit_status

let test_touch_creates () =
  let w, p = boot_coreutil "touch" in
  Alcotest.(check (option int)) "exit 0" (Some 0) p.exit_status;
  Alcotest.(check bool) "file created" true (Vfs.exists w.vfs "/tmp/touched")

let test_ls_lists_root () =
  let _, p = boot_coreutil "ls" in
  Alcotest.(check (option int)) "exit 0" (Some 0) p.exit_status;
  let out = World.stdout_of p in
  Alcotest.(check bool) "mentions /etc" true
    (String.split_on_char '\000' out |> List.exists (( = ) "etc"))

let test_cat_prints_file () =
  let _, p = boot_coreutil "cat" in
  Alcotest.(check (option int)) "exit 0" (Some 0) p.exit_status;
  Alcotest.(check string) "prints /etc/hostname" "sim\n" (World.stdout_of p)

let test_clear_outputs_escape () =
  let _, p = boot_coreutil "clear" in
  Alcotest.(check (option int)) "exit 0" (Some 0) p.exit_status;
  Alcotest.(check string) "ANSI clear" "\x1b[H\x1b[2J" (World.stdout_of p)

(* a server spec end-to-end, natively: all requests complete *)
let drive spec =
  let w = Sim.create_world ~quantum:8 () in
  let path, port = K23_eval.Macro.register_workload w spec in
  (match World.spawn w ~path () with
  | Error e -> Alcotest.failf "server spawn: %d" e
  | Ok _ -> ());
  K23_eval.Macro.wait_for_listener w port;
  Kern.sync_cores w;
  let client = Option.get (K23_eval.Macro.client_for spec ~rounds:4) in
  let results = Apps.Wrk.register w client in
  (match World.spawn w ~path:client.Apps.Wrk.path () with
  | Error e -> Alcotest.failf "client spawn: %d" e
  | Ok cp -> Kern.run ~max_steps:50_000_000 ~until:(fun () -> Kern.proc_dead cp) w);
  K23_eval.Macro.kill_everything w;
  (client, results)

let expect_all_requests spec () =
  let client, results = drive spec in
  let expected = client.Apps.Wrk.threads * client.conns * client.depth * client.rounds in
  Alcotest.(check int) "all requests answered" expected results.Apps.Wrk.completed;
  Alcotest.(check int) "no errors" 0 results.errors

(* --- wrk fd discipline and framing ---------------------------------- *)

(* Start the client with no server listening: every connect is refused.
   The client must close the refused socket before retrying — before
   the fix it leaked one fd per attempt, so a slow-starting server made
   the client's fd table grow without bound. *)
let test_connect_retry_no_fd_leak () =
  let w = Sim.create_world ~quantum:8 () in
  let spec = K23_eval.Macro.nginx ~workers:1 ~kb:0 in
  let path, port = K23_eval.Macro.register_workload w spec in
  let client = Option.get (K23_eval.Macro.client_for spec ~rounds:2) in
  let results = Apps.Wrk.register w client in
  let cp =
    match World.spawn w ~path:client.Apps.Wrk.path () with
    | Error e -> Alcotest.failf "client spawn: %d" e
    | Ok p -> p
  in
  Kern.run ~max_steps:5_000_000 ~until:(fun () -> results.Apps.Wrk.errors >= 25) w;
  Alcotest.(check bool) "connect retries happened" true (results.errors >= 25);
  let fds = K23_machine.Inttbl.length cp.Kern.fds in
  Alcotest.(check bool)
    (Printf.sprintf "fd table bounded during retries (%d fds after %d refusals)" fds
       results.errors)
    true (fds <= 4);
  (* bring the server up: the same client must then complete every request *)
  (match World.spawn w ~path () with
  | Error e -> Alcotest.failf "server spawn: %d" e
  | Ok _ -> ());
  K23_eval.Macro.wait_for_listener w port;
  Kern.run ~max_steps:50_000_000 ~until:(fun () -> Kern.proc_dead cp) w;
  K23_eval.Macro.kill_everything w;
  let expected = client.Apps.Wrk.threads * client.conns * client.depth * client.rounds in
  Alcotest.(check int) "all requests answered after recovery" expected results.completed

(* A deliberately dribbling server: its 64-byte response arrives in four
   16-byte chunks with a nanosleep between each, so the client's reads
   come up short.  The framed receive loop must count one completed
   request per full response — the pre-fix code counted one per read,
   so it would report 4x the real completions here and desynchronize. *)
let dribble_port = 9099
let dribble_path = "/usr/sbin/dribbled"

let register_dribble_server w =
  let open K23_isa in
  let chunk = 16 in
  ignore
    (Sim.register_app w ~path:dribble_path
       [
         Asm.Label "main";
         Asm.I (Insn.Mov_ri (RDI, 2));
         Asm.I (Insn.Mov_ri (RSI, 1));
         Asm.I (Insn.Mov_ri (RDX, 0));
         Asm.Call_sym "socket";
         Asm.I (Insn.Mov_rr (RBX, RAX));
         Asm.I (Insn.Mov_rr (RDI, RBX));
         Asm.I (Insn.Mov_ri (RSI, dribble_port));
         Asm.Call_sym "bind";
         Asm.I (Insn.Mov_rr (RDI, RBX));
         Asm.I (Insn.Mov_ri (RSI, 16));
         Asm.Call_sym "listen";
         Asm.Label "accept_loop";
         Asm.I (Insn.Mov_rr (RDI, RBX));
         Asm.Call_sym "accept";
         Asm.I (Insn.Mov_rr (R14, RAX));
         Asm.Label "conn_loop";
         Asm.I (Insn.Mov_rr (RDI, R14));
         Asm.Mov_sym (Reg.RSI, "dbuf");
         Asm.I (Insn.Mov_ri (RDX, 64));
         Asm.Call_sym "read";
         Asm.I (Insn.Cmp_ri (RAX, 0));
         Asm.Jc (Insn.LE, "close_conn");
         Asm.I (Insn.Mov_ri (R15, 4));
         Asm.Label "chunk_loop";
         Asm.I (Insn.Mov_rr (RDI, R14));
         Asm.Mov_sym (Reg.RSI, "dresp");
         Asm.I (Insn.Mov_ri (RDX, chunk));
         Asm.Call_sym "write";
         (* stall before the next chunk so the client sees a short read;
            rem pointer explicitly NULL, as the kernel requires *)
         Asm.I (Insn.Mov_ri (RDI, 5_000));
         Asm.I (Insn.Mov_ri (RSI, 0));
         Asm.Call_sym "nanosleep";
         Asm.I (Insn.Sub_ri (R15, 1));
         Asm.I (Insn.Cmp_ri (R15, 0));
         Asm.Jc (Insn.NZ, "chunk_loop");
         Asm.J "conn_loop";
         Asm.Label "close_conn";
         Asm.I (Insn.Mov_rr (RDI, R14));
         Asm.Call_sym "close";
         Asm.J "accept_loop";
         Asm.Section `Data;
         Asm.Label "dbuf";
         Asm.Zeros 128;
         Asm.Label "dresp";
         Asm.Blob (Bytes.make chunk 'D');
       ])

let test_dribbling_server_framing () =
  let w = Sim.create_world ~quantum:8 () in
  register_dribble_server w;
  (match World.spawn w ~path:dribble_path () with
  | Error e -> Alcotest.failf "server spawn: %d" e
  | Ok _ -> ());
  K23_eval.Macro.wait_for_listener w dribble_port;
  Kern.sync_cores w;
  let client =
    {
      Apps.Wrk.path = "/usr/bin/wrk";
      port = dribble_port;
      threads = 1;
      conns = 1;
      depth = 1;
      rounds = 4;
      req_cost = 300;
      resp_len = 64;
      arrival = Apps.Wrk.Closed;
      retries = 0;
    }
  in
  let results = Apps.Wrk.register w client in
  (match World.spawn w ~path:client.Apps.Wrk.path () with
  | Error e -> Alcotest.failf "client spawn: %d" e
  | Ok cp -> Kern.run ~max_steps:50_000_000 ~until:(fun () -> Kern.proc_dead cp) w);
  K23_eval.Macro.kill_everything w;
  Alcotest.(check int) "one completion per full response" 4 results.Apps.Wrk.completed;
  Alcotest.(check int) "no errors" 0 results.errors

(* rounds = 0 means "no requests": the client must close its connection
   and exit cleanly instead of pushing a request through the pipeline *)
let test_rounds_zero_clean_exit () =
  let w = Sim.create_world ~quantum:8 () in
  let spec = K23_eval.Macro.nginx ~workers:1 ~kb:0 in
  let path, port = K23_eval.Macro.register_workload w spec in
  (match World.spawn w ~path () with
  | Error e -> Alcotest.failf "server spawn: %d" e
  | Ok _ -> ());
  K23_eval.Macro.wait_for_listener w port;
  Kern.sync_cores w;
  let client = Option.get (K23_eval.Macro.client_for spec ~rounds:0) in
  let results = Apps.Wrk.register w client in
  let cp =
    match World.spawn w ~path:client.Apps.Wrk.path () with
    | Error e -> Alcotest.failf "client spawn: %d" e
    | Ok p -> p
  in
  Kern.run ~max_steps:50_000_000 ~until:(fun () -> Kern.proc_dead cp) w;
  K23_eval.Macro.kill_everything w;
  Alcotest.(check (option int)) "clean exit" (Some 0) cp.Kern.exit_status;
  Alcotest.(check int) "no requests sent" 0 results.Apps.Wrk.completed;
  Alcotest.(check int) "no errors" 0 results.errors

let test_sqlite_runs () =
  let w = Sim.create_world () in
  Apps.Sqlite_like.register w (Apps.Sqlite_like.default ~ops:50 ());
  let p = Sim.run_to_exit w ~path:"/usr/bin/sqlite3" () in
  Alcotest.(check (option int)) "exit 0" (Some 0) p.exit_status;
  (* 50 WAL frames of 128 bytes appended *)
  match Vfs.read_file w.vfs Apps.Sqlite_like.wal_path with
  | Ok s -> Alcotest.(check int) "wal size" (50 * 128) (String.length s)
  | Error _ -> Alcotest.fail "wal missing"

(* the redis serial section caps aggregate throughput *)
let test_redis_serial_scaling () =
  let tput io_threads =
    K23_eval.Macro.run_spec (K23_eval.Macro.redis ~io_threads) K23_eval.Mech.Native ~seed:7
  in
  let one = tput 1 and six = tput 6 in
  Alcotest.(check bool)
    (Printf.sprintf "6 threads faster than 1 (%f vs %f)" six one)
    true (six > one *. 1.2);
  Alcotest.(check bool)
    (Printf.sprintf "but sublinear (%f < 4x %f)" six one)
    true
    (six < one *. 4.0)

let tests =
  ( "apps",
    [
      Alcotest.test_case "pwd" `Quick test_pwd;
      Alcotest.test_case "touch creates file" `Quick test_touch_creates;
      Alcotest.test_case "ls lists cwd" `Quick test_ls_lists_root;
      Alcotest.test_case "cat prints file" `Quick test_cat_prints_file;
      Alcotest.test_case "clear emits escape" `Quick test_clear_outputs_escape;
      Alcotest.test_case "nginx serves all requests" `Quick
        (expect_all_requests (K23_eval.Macro.nginx ~workers:1 ~kb:0));
      Alcotest.test_case "nginx 4KB + multiworker" `Quick
        (expect_all_requests (K23_eval.Macro.nginx ~workers:4 ~kb:4));
      Alcotest.test_case "lighttpd serves all requests" `Quick
        (expect_all_requests (K23_eval.Macro.lighttpd ~workers:1 ~kb:0));
      Alcotest.test_case "redis serves all requests" `Quick
        (expect_all_requests (K23_eval.Macro.redis ~io_threads:2));
      Alcotest.test_case "connect retries do not leak fds" `Quick test_connect_retry_no_fd_leak;
      Alcotest.test_case "framed reads against a dribbling server" `Quick
        test_dribbling_server_framing;
      Alcotest.test_case "rounds = 0 exits cleanly" `Quick test_rounds_zero_clean_exit;
      Alcotest.test_case "sqlite writes its WAL" `Quick test_sqlite_runs;
      Alcotest.test_case "redis serial-section scaling" `Quick test_redis_serial_scaling;
    ] )
