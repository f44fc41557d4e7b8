(** The recorder: run an app under a mechanism with an unbounded
    ktrace sink and package the run as a {!Recording.t}.

    There is no separate "record mode" in the kernel — the simulator
    is deterministic given its config, so recording is just a normal
    run with the complete event stream retained (rr's insight inverted:
    where rr must capture nondeterministic inputs because the host OS
    is uncontrolled, here the config {e is} the nondeterminism, and
    the stream is captured as the oracle for replay).  The run is a
    {!Session}, the same steps the replayer drives: the fault
    schedule's per-nr tick clocks start from zero at the measured run
    in both, so a recording of a faulty run replays the same dice. *)

module Session = K23_eval.Session

let default_max_steps = 200_000_000

(** Record one run of [path] under [mech] in [w], a world built (or
    reset) from [cfg] with the app(s) installed: the
    coreutils for the CLI, the generated program for fuzz.  [argv]
    defaults to the mechanism's own convention.  Returns [Error e]
    when the mechanism fails to launch. *)
let record ?(max_steps = default_max_steps) ?(argv = []) ~cfg w ~mech ~path =
  match Session.run ~sink:Session.Unbounded ~argv ~max_steps w ~mech ~path with
  | Error e -> Error e
  | Ok (_, _, s) ->
    Ok
      {
        Recording.rc_app = path;
        rc_argv = argv;
        rc_mech = mech;
        rc_cfg = cfg;
        rc_root = s.Session.root;
        rc_console = s.Session.console;
        rc_fates = s.Session.fates;
        rc_events = s.Session.events;
      }
