(** The replayer: re-drive a fresh world from a {!Recording.t} and
    check it against the log, event by event, as it runs.

    Replay rebuilds a world from the recording's config (same seed,
    cost model, fault plan — so ASLR draws, cost skew and fault dice
    re-roll identically), re-launches the app under the recorded
    mechanism through the same {!Session} the recorder ran, and
    installs two live hooks between [Session.prepare] and
    [Session.launch]:

    - the {e substitution} hook ([Kern.world.replay_exit]): every
      completing syscall's result is replaced by the recorded result
      for that thread's next matching [Syscall_exit], so the replayed
      world re-observes the recorded inputs even where the live
      implementation would diverge (rr's "replay reads from the log"
      — scheduling and signal delivery points need no forcing here
      because they are config-deterministic, and the diff below
      verifies exactly that);
    - the {e diff} observer ([Trace.on_event]): each live event is
      compared against the recorded stream at the cursor; the first
      mismatch halts the world and is reported with ±context in
      {!Trace_diff.divergence} shape.

    The same observer implements time travel: [~at:n] halts the world
    the instant event [n] is emitted — while machine state is live —
    and dumps the faulting thread's registers, the process's memory
    map, and its fd table. *)

module Event = K23_obs.Event
module Trace = K23_obs.Trace
module Trace_diff = K23_obs.Trace_diff
module Render = K23_obs.Render
module Mech = K23_eval.Mech
module Session = K23_eval.Session
open K23_kernel
open K23_userland

type stop = {
  st_index : int;  (** event index the world halted at *)
  st_event : Event.t;
  st_state : string;  (** rendered regs / maps / fd-table dump *)
}

type outcome = {
  o_total : int;  (** recorded events *)
  o_checked : int;  (** live events verified equal before halt/end *)
  o_divergence : Trace_diff.divergence option;  (** [None] = streams agree *)
  o_console_ok : bool;  (** root console matches (true when halted early) *)
  o_fates_ok : bool;  (** per-pid fates match (true when halted early) *)
  o_stop : stop option;  (** the [~at] inspector dump, if requested and reached *)
}

(** A replay is clean when the stream never diverged and the
    end-of-run state checks (skipped on an [~at] halt) passed. *)
let ok o = o.o_divergence = None && o.o_console_ok && o.o_fates_ok

(* ------------------------------------------------------------------ *)
(* State dump (the --at inspector)                                     *)

let fd_to_string = function
  | Kern.Fd_file { path; pos; _ } -> Printf.sprintf "file %s pos=%d" path pos
  | Kern.Fd_console _ -> "console"
  | Kern.Fd_listener _ -> "listener"
  | Kern.Fd_conn (_, ep) -> Printf.sprintf "conn.%s" (match ep with Net.A -> "a" | Net.B -> "b")
  | Kern.Fd_pipe_r _ -> "pipe.r"
  | Kern.Fd_pipe_w _ -> "pipe.w"
  | Kern.Fd_devnull -> "/dev/null"

let dump_state (w : Kern.world) ~index (ev : Event.t) =
  let b = Buffer.create 1024 in
  let pr fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  pr "stopped at event #%d: %s\n" index (Render.human_event ~namer:Sysno.name ev);
  (match List.find_opt (fun (q : Kern.proc) -> q.Kern.pid = ev.Event.ev_pid) w.Kern.procs with
  | None -> pr "(no process context: pid %d)\n" ev.Event.ev_pid
  | Some p ->
    pr "pid %d cmd %s\n" p.Kern.pid p.Kern.cmd;
    (match List.find_opt (fun (th : Kern.thread) -> th.Kern.tid = ev.Event.ev_tid) p.Kern.threads with
    | None -> pr "(tid %d not live)\n" ev.Event.ev_tid
    | Some th ->
      pr "regs (tid %d):\n%s\n" th.Kern.tid
        (Format.asprintf "%a" K23_machine.Regs.pp th.Kern.regs));
    let maps = Kern.maps_string p in
    pr "maps:\n%s" maps;
    if maps = "" || maps.[String.length maps - 1] <> '\n' then pr "\n";
    pr "fds:\n";
    K23_machine.Inttbl.fold (fun fd d acc -> (fd, d) :: acc) p.Kern.fds []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
    |> List.iter (fun (fd, d) -> pr "  %d -> %s\n" fd (fd_to_string d)));
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Replay                                                              *)

(* Divergence at live index [i] against the recorded stream, in
   {!Trace_diff.divergence} shape: left = recorded, right = live.
   The shared context is the verified prefix expected[0..i-1]; the
   recorded side also contributes up to [context_len] following
   events.  The live side halts at the mismatch, so [after_right] is
   empty by construction. *)
let mismatch (expected : Event.t array) i (live : Event.t option) =
  let total = Array.length expected in
  let shared = min i total in
  let lo = max 0 (shared - Trace_diff.context_len) in
  let after_left =
    if i < total then
      let n = min Trace_diff.context_len (total - i - 1) in
      if n <= 0 then [] else Array.to_list (Array.sub expected (i + 1) n)
    else []
  in
  {
    Trace_diff.index = i;
    left = (if i < total then Some expected.(i) else None);
    right = live;
    context = Array.to_list (Array.sub expected lo (shared - lo));
    after_left;
    after_right = [];
  }

(** Re-drive [r] and diff.  [~at:n] halts the world when live event
    [n] is emitted (after verifying it) and captures the inspector
    dump.  [register] must install the same app set the recorder's
    did.  Returns [Error e] if the mechanism fails to launch. *)
let replay ?at ?(max_steps = Recorder.default_max_steps)
    ?(register = fun (_ : Kern.world) -> ()) (r : Recording.t) =
  let w = Sim.create_world_cfg r.Recording.rc_cfg in
  register w;
  let s =
    Session.prepare ~sink:Session.Unbounded w ~mech:r.Recording.rc_mech ~path:r.Recording.rc_app
  in
  let t = Option.get s.Session.trace in
  let expected = Array.of_list r.Recording.rc_events in
  let total = Array.length expected in
  let idx = ref 0 in
  let div = ref None in
  let stop = ref None in
  let halted () = !div <> None || !stop <> None in
  (* recorded syscall results, FIFO per (pid, tid): the substitution
     queues.  Results are popped only when the completing nr matches
     the head — an interposer re-issue completes as the same nr, so
     the queues stay aligned through SIGSYS round trips. *)
  let results : (int * int, (int * int) Queue.t) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun (e : Event.t) ->
      match e.Event.ev_payload with
      | Event.Syscall_exit { nr; ret } ->
        let key = (e.Event.ev_pid, e.Event.ev_tid) in
        let q =
          match Hashtbl.find_opt results key with
          | Some q -> q
          | None ->
            let q = Queue.create () in
            Hashtbl.replace results key q;
            q
        in
        Queue.add (nr, ret) q
      | _ -> ())
    r.Recording.rc_events;
  w.Kern.replay_exit <-
    Some
      (fun th ~nr ~ret ->
        match Hashtbl.find_opt results (th.Kern.t_proc.Kern.pid, th.Kern.tid) with
        | None -> ret
        | Some q -> (
          match Queue.peek_opt q with
          | Some (rnr, rret) when rnr = nr ->
            ignore (Queue.pop q);
            rret
          | _ -> ret));
  t.Trace.on_event <-
    Some
      (fun ev ->
        if not (halted ()) then begin
          let i = !idx in
          if i < total && Event.equal expected.(i) ev then begin
            idx := i + 1;
            match at with
            | Some n when i = n -> stop := Some { st_index = i; st_event = ev; st_state = dump_state w ~index:i ev }
            | _ -> ()
          end
          else div := Some (mismatch expected i (Some ev))
        end);
  let unhook () =
    w.Kern.replay_exit <- None;
    t.Trace.on_event <- None
  in
  let finish (run : Session.t) =
    unhook ();
    (* a live stream that ended early (fewer events than recorded) is
       a divergence too: the left side goes on, the right ended *)
    (match !div with
    | Some _ -> ()
    | None ->
      if !stop = None && !idx < total then div := Some (mismatch expected !idx None));
    let clean_end = !div = None && !stop = None in
    {
      o_total = total;
      o_checked = !idx;
      o_divergence = !div;
      o_console_ok = (not clean_end) || run.Session.console = r.Recording.rc_console;
      o_fates_ok = (not clean_end) || run.Session.fates = r.Recording.rc_fates;
      o_stop = !stop;
    }
  in
  match Session.launch ~argv:r.Recording.rc_argv ~max_steps ~until:halted s with
  | Error e ->
    unhook ();
    Error e
  | Ok (_, _, run) -> Ok (finish run)

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)

let render (r : Recording.t) (o : outcome) =
  let b = Buffer.create 512 in
  let pr fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  pr "replay %s under %s: " r.Recording.rc_app (Mech.to_string r.Recording.rc_mech);
  (match o.o_divergence with
  | Some d ->
    pr "DIVERGED after %d/%d events\n" o.o_checked o.o_total;
    pr "%s" (Trace_diff.render ~namer:Sysno.name (Trace_diff.Diverged d))
  | None -> (
    match o.o_stop with
    | Some s ->
      pr "halted at event %d/%d (--at)\n" s.st_index o.o_total;
      pr "%s" s.st_state
    | None ->
      pr "identical (%d events), console %s, fates %s\n" o.o_total
        (if o.o_console_ok then "ok" else "DIFFER")
        (if o.o_fates_ok then "ok" else "DIFFER")));
  Buffer.contents b

let render_json (r : Recording.t) (o : outcome) =
  let b = Buffer.create 512 in
  let pr fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  pr "{\"app\":\"%s\",\"mech\":\"%s\",\"events\":%d,\"checked\":%d,"
    (Render.json_escape r.Recording.rc_app)
    (Render.json_escape (Mech.to_string r.Recording.rc_mech))
    o.o_total o.o_checked;
  (match o.o_divergence with
  | None -> pr "\"divergence\":null,"
  | Some d ->
    let side = function
      | None -> "null"
      | Some e -> Render.json_event ~namer:Sysno.name e
    in
    pr "\"divergence\":{\"index\":%d,\"recorded\":%s,\"live\":%s}," d.Trace_diff.index
      (side d.Trace_diff.left) (side d.Trace_diff.right));
  (match o.o_stop with
  | None -> pr "\"stop\":null,"
  | Some s ->
    pr "\"stop\":{\"index\":%d,\"state\":\"%s\"}," s.st_index (Render.json_escape s.st_state));
  pr "\"console_ok\":%b,\"fates_ok\":%b,\"ok\":%b}" o.o_console_ok o.o_fates_ok (ok o);
  Buffer.contents b
