(** One single-app run: the only place that knows the order of its
    steps.  The fuzz oracle, the recorder and the replayer, [k23 run]
    and [k23 trace --mech], the bench harness's replay setup,
    {!Memory_bench} and the Table 3 harness all run through it, so a
    recording and its replay drive one execution path by
    construction.

    The caller builds the world and installs the app(s); then:
    + K23's offline phase and [seal_logs], when {!Mech.needs_offline}:
      the online launch reads the sealed logs;
    + [Kern.fault_reset]: the offline phase consumed fault ticks that a
      native run never rolls, so native and every mechanism start the
      schedule at tick 0 in the measured run;
    + the ktrace sink, if any, after the offline phase so that phase's
      events are not recorded;
    + {!Mech.launch};
    + the run, until the root exits, the caller's [until] holds or the
      step budget runs out.  [Kern.Deadlock] ends the run here, like a
      spent budget: the fates show what was left [Running].

    Sites whose sequence really differs keep their own:
    - [Micro.run_one] reads the root's core cycles between the launch
      and the run;
    - [Ktrace_summary] traces the offline phase too;
    - server runs have one path of their own, {!Macro.run_servers}:
      Table 6's server rows and the load and chaos rows ({!Load}) run
      servers, then clients against them, and fail loudly on a
      deadlock or a spent step budget;
    - [Startup_bench] launches ptrace with an inner handler and a
      marker preload, and [k23 trace]'s legacy listing launches K23
      with an inner handler. *)

open K23_kernel

type fate = Exit of int | Killed of int | Running

let fate_to_string = function
  | Exit n -> Printf.sprintf "exit %d" n
  | Killed s -> Printf.sprintf "killed %d" s
  | Running -> "running"

let fate_of_proc (q : Kern.proc) =
  match (q.Kern.exit_status, q.Kern.term_signal) with
  | Some s, _ -> Exit s
  | None, Some s -> Killed s
  | None, None -> Running

(** Every process's fate, by ascending raw pid. *)
let fates_of_world (w : Kern.world) =
  List.map (fun (q : Kern.proc) -> (q.Kern.pid, fate_of_proc q)) w.Kern.procs
  |> List.sort (fun (a, _) (b, _) -> compare a b)

(** The ktrace sink: the default overwrite-oldest ring, or the
    never-dropping one a recording needs. *)
type sink = Bounded | Unbounded

(** A finished run, as plain data. *)
type t = {
  root : int;  (** raw pid of the launched process *)
  console : string;  (** its console bytes *)
  fates : (int * fate) list;  (** every process, by ascending raw pid *)
  events : K23_obs.Event.t list;  (** the sink's events; [] without a sink *)
}

(** A world ready to launch in: offline phase done, fault schedule
    rewound, sink installed. *)
type prepared = {
  world : Kern.world;
  mech : Mech.t;
  path : string;
  trace : K23_obs.Trace.t option;
}

(** Everything before the launch: the offline phase, the fault-schedule
    rewind and the sink. *)
let prepare ?sink w ~mech ~path =
  if Mech.needs_offline mech then begin
    ignore (K23_core.K23.offline_run w ~path ());
    K23_core.K23.seal_logs w
  end;
  Kern.fault_reset w;
  let trace = Option.map (fun s -> Kern.ktrace_enable ~unbounded:(s = Unbounded) w) sink in
  { world = w; mech; path; trace }

(** Launch and run.  Returns the root process, the interposer's stats
    ([None] for native) and the run record, or the launch errno. *)
let launch ?argv ?max_steps ?until s =
  match Mech.launch s.mech s.world ~path:s.path ?argv () with
  | Error e -> Error e
  | Ok (p, stats) ->
    let until =
      match until with
      | None -> fun () -> Kern.proc_dead p
      | Some u -> fun () -> u () || Kern.proc_dead p
    in
    (try Kern.run ?max_steps ~until s.world with Kern.Deadlock _ -> ());
    let events = match s.trace with None -> [] | Some t -> K23_obs.Trace.events t in
    Ok
      ( p,
        stats,
        { root = p.Kern.pid; console = World.stdout_of p; fates = fates_of_world s.world; events } )

(** {!prepare}, then {!launch}. *)
let run ?sink ?argv ?max_steps w ~mech ~path =
  launch ?argv ?max_steps (prepare ?sink w ~mech ~path)
