(* the deterministic fault-injection plane (lib/faults + kernel hooks)
   and its satellite contracts: errno spelling round-trips, the
   signal-wakes-blocked-wait fix, restart re-entering the interposer,
   and short-I/O framing in the resilient apps *)

open K23_isa
module Kern = K23_kernel.Kern
module Sysno = K23_kernel.Sysno
module Errno = K23_kernel.Errno
module World = K23_kernel.World
module Sim = K23_userland.Sim
module F = K23_faults.Faults
module Oracle = K23_fuzz.Oracle
module Mech = K23_eval.Mech
module Apps = K23_apps
module Event = K23_obs.Event

(* ------------------------------------------------------------------ *)
(* satellite (a): errno spellings *)

let test_errno_roundtrip () =
  let named =
    Errno.
      [
        eperm; enoent; esrch; eintr; eio; ebadf; echild; eagain; enomem; eacces;
        efault; eexist; enotdir; eisdir; einval; enfile; emfile; enosys;
        enotempty; eaddrinuse; econnreset; econnrefused; erestartsys;
      ]
  in
  List.iter
    (fun e ->
      Alcotest.(check (option int))
        (Printf.sprintf "%s round-trips" (Errno.to_string e))
        (Some e)
        (Errno.of_string (Errno.to_string e)))
    named;
  (* negative returns spell the same name *)
  Alcotest.(check string) "negative spelling" "EINTR" (Errno.to_string (-Errno.eintr));
  (* the E%d fallback round-trips too *)
  Alcotest.(check (option int)) "fallback round-trips" (Some 77) (Errno.of_string (Errno.to_string 77));
  Alcotest.(check (option int)) "garbage rejected" None (Errno.of_string "bogus");
  Alcotest.(check (option int)) "empty rejected" None (Errno.of_string "")

let test_plan_roundtrip () =
  let chk p = Alcotest.(check (option string))
      ("plan round-trips: " ^ F.to_string p)
      (Some (F.to_string p))
      (Option.map F.to_string (F.of_string (F.to_string p)))
  in
  chk (F.chaos ());
  chk (F.chaos ~fseed:89 ());
  chk { F.none with F.fseed = 5; short_pm = 400 };
  Alcotest.(check bool) "off parses to disabled" true
    (match F.of_string "faults:off" with Some p -> not (F.enabled p) | None -> false);
  Alcotest.(check bool) "garbage rejected" true (F.of_string "faults:zzz" = None)

(* ------------------------------------------------------------------ *)
(* satellite (b): a signal wakes a thread parked in a timed wait *)

(* parent registers a handler and parks in a 5M-cycle nanosleep; the
   forked child sleeps briefly, then kill(parent, 10).  The delivery
   must tear the wait down NOW: nanosleep completes with -EINTR long
   before its deadline, the handler runs, sigreturn restores, and the
   parent exits 0.  (Before the fix a parked thread slept through the
   signal until its deadline fired.) *)
let parent_sleep = 5_000_000

let signal_wake_items =
  [
    Asm.Label "main";
    Asm.I (Insn.Mov_ri (RDI, 10));
    Asm.Mov_sym (Reg.RSI, "handler");
    Asm.I (Insn.Mov_ri (RAX, Sysno.rt_sigaction));
    Asm.I Insn.Syscall;
    Asm.I (Insn.Mov_ri (RAX, Sysno.getpid));
    Asm.I Insn.Syscall;
    Asm.I (Insn.Mov_rr (R12, RAX));
    Asm.I (Insn.Mov_ri (RAX, Sysno.fork));
    Asm.I Insn.Syscall;
    Asm.I (Insn.Cmp_ri (RAX, 0));
    Asm.Jc (Insn.Z, "child");
    (* parent: park *)
    Asm.I (Insn.Mov_ri (RAX, Sysno.nanosleep));
    Asm.I (Insn.Mov_ri (RDI, parent_sleep));
    Asm.I (Insn.Mov_ri (RSI, 0));
    Asm.I Insn.Syscall;
    Asm.I (Insn.Mov_ri (RDI, 0));
    Asm.I (Insn.Mov_ri (RAX, Sysno.exit_group));
    Asm.I Insn.Syscall;
    (* child: let the parent park, then signal it *)
    Asm.Label "child";
    Asm.I (Insn.Mov_ri (RAX, Sysno.nanosleep));
    Asm.I (Insn.Mov_ri (RDI, 2_000));
    Asm.I (Insn.Mov_ri (RSI, 0));
    Asm.I Insn.Syscall;
    Asm.I (Insn.Mov_rr (RDI, R12));
    Asm.I (Insn.Mov_ri (RSI, 10));
    Asm.I (Insn.Mov_ri (RAX, Sysno.kill));
    Asm.I Insn.Syscall;
    Asm.I (Insn.Mov_ri (RDI, 0));
    Asm.I (Insn.Mov_ri (RAX, Sysno.exit_group));
    Asm.I Insn.Syscall;
    Asm.Label "handler";
    Asm.I (Insn.Mov_ri (RAX, Sysno.rt_sigreturn));
    Asm.I Insn.Syscall;
  ]

let test_signal_wakes_blocked_wait () =
  match Oracle.run_raw ~mech:Mech.Native (K23_fuzz.Gen.X86 signal_wake_items) with
  | Error e -> Alcotest.failf "launch error %d" e
  | Ok (p, _, { K23_eval.Session.events; _ }) ->
    Alcotest.(check (option int)) "parent exits 0" (Some 0) p.Kern.exit_status;
    (* the parent's stream, in order: park in nanosleep, deliver,
       wake with -EINTR, handler's sigreturn *)
    let parent = List.filter (fun ev -> ev.Event.ev_pid = p.Kern.pid) events in
    let idx f =
      match
        List.find_index (fun ev -> f ev.Event.ev_payload) parent
      with
      | Some i -> i
      | None -> Alcotest.fail "expected parent ktrace event missing"
    in
    let enter_cycles =
      match
        List.find_opt
          (fun ev ->
            match ev.Event.ev_payload with
            | Event.Syscall_enter { nr; _ } -> nr = Sysno.nanosleep
            | _ -> false)
          parent
      with
      | Some ev -> ev.Event.ev_cycles
      | None -> Alcotest.fail "parent never entered nanosleep"
    in
    let i_deliver =
      idx (function Event.Signal_deliver { signo = 10; _ } -> true | _ -> false)
    in
    let i_eintr, eintr_cycles =
      match
        List.find_index
          (fun ev ->
            match ev.Event.ev_payload with
            | Event.Syscall_exit { nr; ret } -> nr = Sysno.nanosleep && ret = -Errno.eintr
            | _ -> false)
          parent
      with
      | Some i -> (i, (List.nth parent i).Event.ev_cycles)
      | None -> Alcotest.fail "nanosleep did not complete with -EINTR"
    in
    let i_sigreturn = idx (function Event.Sigreturn _ -> true | _ -> false) in
    Alcotest.(check bool) "deliver before -EINTR completion" true (i_deliver < i_eintr);
    Alcotest.(check bool) "-EINTR completion before sigreturn" true (i_eintr < i_sigreturn);
    Alcotest.(check bool)
      (Printf.sprintf "woke before the deadline (%d < enter+%d)" eintr_cycles parent_sleep)
      true
      (eintr_cycles < enter_cycles + parent_sleep)

(* ------------------------------------------------------------------ *)
(* tentpole: a restarted syscall re-enters the interposer *)

(* the corpus repro's head: chaos fseed 89 interrupts the first
   nanosleep and elects restart (not hard EINTR) *)
let restart_items =
  [
    Asm.Label "main";
    Asm.I (Insn.Mov_ri (RAX, Sysno.nanosleep));
    Asm.I (Insn.Mov_ri (RDI, 50_000));
    Asm.I (Insn.Mov_ri (RSI, 0));
    Asm.I Insn.Syscall;
    Asm.I (Insn.Mov_ri (RDI, 0));
    Asm.I (Insn.Mov_ri (RAX, Sysno.exit_group));
    Asm.I Insn.Syscall;
  ]

let restart_cfg =
  { Oracle.default_world_cfg with World.Config.faults = F.chaos ~fseed:89 () }

(* after [Syscall_restarted], the re-execution's kernel entry must come
   from interposition-owned code (trampoline or interposer), not from a
   raw kernel-side re-dispatch -- the paper's P4 shadow *)
let check_restart_reenters mech ~owner_ok =
  match Oracle.run_raw ~cfg:restart_cfg ~mech (K23_fuzz.Gen.X86 restart_items) with
  | Error e -> Alcotest.failf "%s: launch error %d" (Mech.to_string mech) e
  | Ok (p, _, { K23_eval.Session.events; _ }) ->
    Alcotest.(check (option int))
      (Mech.to_string mech ^ ": exits 0")
      (Some 0) p.Kern.exit_status;
    let rec scan seen_restart = function
      | [] -> Alcotest.failf "%s: no re-entry after restart" (Mech.to_string mech)
      | ev :: rest -> (
        match ev.Event.ev_payload with
        | Event.Syscall_restarted { nr; _ } when nr = Sysno.nanosleep -> scan true rest
        | Event.Syscall_enter { nr; owner; _ } when seen_restart && nr = Sysno.nanosleep ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: re-entry owner %S interposed" (Mech.to_string mech) owner)
            true (owner_ok owner)
        | _ -> scan seen_restart rest)
    in
    scan false events

let test_restart_reenters_interposer () =
  check_restart_reenters Mech.Zpoline_ultra ~owner_ok:(fun o -> o = "trampoline");
  check_restart_reenters Mech.K23_ultra ~owner_ok:(fun o -> o = "trampoline");
  check_restart_reenters Mech.Sud ~owner_ok:(fun o -> o = "interposer");
  (* native restarts too -- same schedule, app-owned re-entry *)
  check_restart_reenters Mech.Native ~owner_ok:(fun o -> o = "app")

(* ------------------------------------------------------------------ *)
(* satellite (c): short-read/short-write framing in the resilient apps *)

(* a short-I/O-only storm: no EINTR, no resource exhaustion -- every
   lost byte must be re-driven by the apps' framing loops *)
let short_storm fseed = { F.none with F.fseed; short_pm = 400 }

let drive_resilient_pair ~register_server ~port ~rounds ~resp_len ~req_cost ~fseed =
  let w = Sim.create_world ~quantum:8 () in
  register_server w;
  (match World.spawn w ~path:"/usr/bin/srv" () with
  | Error e -> Alcotest.failf "server spawn: %d" e
  | Ok _ -> ());
  K23_eval.Macro.wait_for_listener w port;
  Kern.sync_cores w;
  (* arm the storm only for the measured exchange, as the chaos row does *)
  w.Kern.faults <- Some (short_storm fseed);
  Kern.fault_reset w;
  let client =
    {
      Apps.Wrk.path = "/usr/bin/wrk";
      port;
      threads = 1;
      conns = 1;
      depth = 1;
      rounds;
      req_cost;
      resp_len;
      arrival = Apps.Wrk.Closed;
      retries = 8;
    }
  in
  let results = Apps.Wrk.register w client in
  (match World.spawn w ~path:client.Apps.Wrk.path () with
  | Error e -> Alcotest.failf "client spawn: %d" e
  | Ok cp ->
    (try Kern.run ~max_steps:50_000_000 ~until:(fun () -> Kern.proc_dead cp) w
     with Kern.Deadlock _ -> ()));
  K23_eval.Macro.kill_everything w;
  Alcotest.(check int) "all requests complete through the storm" rounds
    results.Apps.Wrk.completed;
  Alcotest.(check int) "no errors" 0 results.errors

let test_short_io_framing_webserver () =
  let cfg = Apps.Webserver.nginx ~workers:1 ~file_size:0 ~resilient:true () in
  let cfg = { cfg with Apps.Webserver.path = "/usr/bin/srv"; port = 8099 } in
  drive_resilient_pair
    ~register_server:(fun w -> Apps.Webserver.register w cfg)
    ~port:8099 ~rounds:20 ~resp_len:Apps.Webserver.header_len ~req_cost:300 ~fseed:7

let test_short_io_framing_redis () =
  let cfg = Apps.Redis_like.default ~resilient:true () in
  let cfg = { cfg with Apps.Redis_like.path = "/usr/bin/srv"; port = 6399 } in
  drive_resilient_pair
    ~register_server:(fun w -> Apps.Redis_like.register w cfg)
    ~port:6399 ~rounds:20 ~resp_len:64 ~req_cost:12_500 ~fseed:8

let tests =
  ( "faults",
    [
      Alcotest.test_case "errno spelling round-trips" `Quick test_errno_roundtrip;
      Alcotest.test_case "fault plan round-trips" `Quick test_plan_roundtrip;
      Alcotest.test_case "signal wakes a blocked wait" `Quick test_signal_wakes_blocked_wait;
      Alcotest.test_case "restart re-enters the interposer" `Quick test_restart_reenters_interposer;
      Alcotest.test_case "short-I/O framing (webserver)" `Quick test_short_io_framing_webserver;
      Alcotest.test_case "short-I/O framing (redis)" `Quick test_short_io_framing_redis;
    ] )
