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

(* ------------------------------------------------------------------ *)
(* fault classes, observed: which numbers draw which errno             *)

(* What a step's result may do under a single-channel plan, beyond the
   number's own fault class: [Stable] calls never change, [File_read]
   and [Conn_io] tell a read/write on a file from one on a connection. *)
type role = Stable | File_read | Conn_io | Other

let fc_port = 7301

(* One app syscall per step.  The listener sits in RBX, the connecting
   socket in R12, the accepted end in R13 and the file in R14.  accept
   takes fd -1 when connect failed, so no plan leaves it parked. *)
let fault_class_steps =
  let mov r v = Asm.I (Insn.Mov_ri (r, v)) and rr d s = Asm.I (Insn.Mov_rr (d, s)) in
  let sys nr = [ mov RAX nr; Asm.I Insn.Syscall ] in
  let io nr fd buf len = [ rr RDI fd; Asm.Mov_sym (Reg.RSI, buf); mov RDX len ] @ sys nr in
  [
    (Other, [ mov RDI 0; mov RSI 4096; mov RDX 3; mov R10 0x22; mov R8 (-1); mov R9 0 ] @ sys Sysno.mmap);
    (Other, sys Sysno.socket @ [ rr RBX RAX ]);
    (Other, [ rr RDI RBX; mov RSI fc_port ] @ sys Sysno.bind);
    (Other, [ rr RDI RBX ] @ sys Sysno.listen);
    (Other, sys Sysno.socket @ [ rr R12 RAX ]);
    (Other, [ rr RDI R12; mov RSI fc_port ] @ sys Sysno.connect);
    ( Other,
      [ rr RDI RBX; Asm.I (Insn.Cmp_ri (RAX, 0)); Asm.Jc (Insn.Z, "acc"); mov RDI (-1); Asm.Label "acc" ]
      @ sys Sysno.accept @ [ rr R13 RAX ] );
    (Conn_io, io Sysno.write R12 "msg" 4);
    (Conn_io, io Sysno.write R13 "msg" 4);
    (Conn_io, io Sysno.read R12 "buf" 4);
    (Conn_io, io Sysno.read R13 "buf" 4);
    (Other, [ Asm.Mov_sym (Reg.RDI, "cache"); mov RSI 0 ] @ sys Sysno.open_ @ [ rr R14 RAX ]);
    (File_read, io Sysno.read R14 "buf" 8);
    (Other, [ mov RDI (-100); Asm.Mov_sym (Reg.RSI, "host"); mov RDX 0 ] @ sys Sysno.openat);
    (Other, [ Asm.Mov_sym (Reg.RDI, "fds") ] @ sys Sysno.pipe);
    (Other, [ Asm.Mov_sym (Reg.R9, "fds"); Asm.I (Insn.Load (R15, R9, 0)); rr RDI R15 ] @ sys Sysno.dup);
    (Stable, [ rr RDI R15 ] @ sys Sysno.close);
    (Stable, sys Sysno.getpid);
    (Stable, [ mov RDI 0 ] @ sys Sysno.brk);
    (Stable, [ Asm.Mov_sym (Reg.RDI, "buf"); mov RSI 64 ] @ sys Sysno.getcwd);
    (Stable, [ mov RDI 0 ] @ sys Sysno.exit_group);
  ]

let fault_class_items =
  (Asm.Label "main" :: List.concat_map snd fault_class_steps)
  @ [
      Asm.Section `Data;
      Asm.Label "msg";
      Asm.Strz "ping";
      Asm.Label "cache";
      Asm.Strz "/etc/ld.so.cache";
      Asm.Label "host";
      Asm.Strz "/etc/hostname";
      Asm.Label "fds";
      Asm.Zeros 16;
      Asm.Label "buf";
      Asm.Zeros 64;
    ]

let fault_class_run plan =
  let cfg = { Oracle.default_world_cfg with World.Config.faults = plan } in
  match Oracle.run_raw ~cfg ~mech:Mech.Native (K23_fuzz.Gen.X86 fault_class_items) with
  | Error e -> Alcotest.failf "%s: launch error %d" (F.to_string plan) e
  | Ok (p, _, { K23_eval.Session.events; _ }) ->
    Alcotest.(check (option int)) (F.to_string plan ^ ": exits 0") (Some 0) p.Kern.exit_status;
    let calls = Test_kernel.app_calls events in
    Alcotest.(check int)
      (F.to_string plan ^ ": one call per step")
      (List.length fault_class_steps) (List.length calls);
    calls

(* Under each single-channel plan, the numbers of the channel's class
   draw its errno and no other number does; the rest of a step's result
   is checked against the fault-free run where it cannot depend on an
   earlier injected failure. *)
let test_fault_classes () =
  let base = fault_class_run F.none in
  let on nrs nr = List.mem nr nrs in
  let fd_alloc = Sysno.[ socket; open_; openat; dup; accept ] in
  let rw = Sysno.[ read; write ] in
  let errno es ret = List.exists (fun e -> ret = -e) es in
  let channel name plan expect =
    let plan = { plan with F.fseed = 1 } in
    List.iteri
      (fun i ((role, _), ((nr, args, ret), (_, _, b))) ->
        let ok =
          match role with Stable -> ret = b | File_read | Conn_io | Other -> expect role nr args b ret
        in
        if not ok then
          Alcotest.failf "%s: step %d %s(%d, ..., %d) returned %d (fault-free %d)" name i (Sysno.name nr)
            args.(0) args.(2) ret b)
      (List.combine fault_class_steps (List.combine (fault_class_run plan) base))
  in
  channel "enomem" { F.none with enomem_pm = 1000 } (fun _ nr _ b ret ->
      if nr = Sysno.mmap then ret = -Errno.enomem else ret = b);
  channel "emfile" { F.none with emfile_pm = 1000 } (fun _ nr _ _ ret ->
      on fd_alloc nr = errno Errno.[ emfile; enfile ] ret);
  channel "eagain" { F.none with eagain_pm = 1000 } (fun role nr args b ret ->
      match role with
      | File_read -> ret = b
      | _ when nr = Sysno.connect -> ret = b
      | Conn_io -> ret = -(if args.(0) >= 0 then Errno.eagain else Errno.ebadf)
      | Stable | Other -> (nr = Sysno.accept) = errno [ Errno.eagain ] ret);
  channel "reset" { F.none with reset_pm = 1000 } (fun role nr _ b ret ->
      match role with
      | File_read -> ret = b
      | _ -> (nr = Sysno.connect) = errno [ Errno.econnreset ] ret);
  channel "short" { F.none with short_pm = 1000 } (fun _ nr args b ret ->
      if on rw nr && args.(2) > 1 then ret >= 1 && ret < args.(2) else ret = b)

let tests =
  ( "faults",
    [
      Alcotest.test_case "errno spelling round-trips" `Quick test_errno_roundtrip;
      Alcotest.test_case "fault plan round-trips" `Quick test_plan_roundtrip;
      Alcotest.test_case "signal wakes a blocked wait" `Quick test_signal_wakes_blocked_wait;
      Alcotest.test_case "restart re-enters the interposer" `Quick test_restart_reenters_interposer;
      Alcotest.test_case "short-I/O framing (webserver)" `Quick test_short_io_framing_webserver;
      Alcotest.test_case "short-I/O framing (redis)" `Quick test_short_io_framing_redis;
      Alcotest.test_case "fault classes, observed" `Quick test_fault_classes;
    ] )
