(* k23 — command-line front end.

   Subcommands:
     k23 run <app> [--under MECH]     run a bundled app under an interposer
     k23 trace <app>                  strace-style listing via K23
     k23 record <app> --mech M -o F   record a run's full ktrace log to F
     k23 replay F [--at N]            re-drive a recording, diff every event
     k23 offline <app>                run the offline phase, print the log
     k23 pitfalls                     run the PoCs, print Table 3
     k23 fuzz [--jobs N]              differential conformance fuzzing
     k23 apps                         list bundled applications

   The evaluation sweeps live in bench/main.exe.

   Bundled apps are the simulated coreutils (pwd, touch, ls, cat,
   clear). *)

open Cmdliner
open K23_kernel
open K23_userland
module Apps = K23_apps
module K23 = K23_core.K23
module I = K23_interpose.Interpose
module Session = K23_eval.Session

let setup_world () =
  let w = Sim.create_world () in
  Apps.Coreutils.register_all w;
  w

let resolve_app name =
  if List.exists (fun (n, _, _) -> n = name) Apps.Coreutils.all then Apps.Coreutils.path name
  else name

(* names come from the single Mech registry — no table to keep in sync *)
let mech_conv =
  let parse s =
    match K23_eval.Mech.of_string s with
    | Some m -> Ok m
    | None ->
      Error
        (`Msg
          (Printf.sprintf "unknown mechanism %S (known: %s)" s
             (String.concat ", " (List.map K23_eval.Mech.to_string K23_eval.Mech.all))))
  in
  Arg.conv (parse, fun fmt m -> Format.pp_print_string fmt (K23_eval.Mech.to_string m))

(* the one availability check: a mechanism with no realisation on the
   world's ISA is a usage error, like an unknown name *)
let require_available ~isa m =
  Option.iter
    (fun msg ->
      prerr_endline msg;
      Stdlib.exit 2)
    (K23_eval.Mech.unavailable ~isa m)

(* an integer option below [min] is a usage error naming the option *)
let int_at_least min =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= min -> Ok n
    | _ -> Error (`Msg (Printf.sprintf "expected an integer >= %d, got %S" min s))
  in
  Arg.conv (parse, Format.pp_print_int)

let app_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"APP" ~doc:"Bundled app name or path.")

let run_cmd =
  let under =
    Arg.(
      value
      & opt mech_conv K23_eval.Mech.K23_ultra
      & info [ "under"; "u" ] ~docv:"MECH"
          ~doc:
            "Interposer: native, zpoline, zpoline-ultra, lazypoline, k23, k23-ultra, k23-ultra+, \
             sud.")
  in
  let run app mech =
    let w = setup_world () in
    require_available ~isa:w.Kern.isa mech;
    match Session.run w ~mech ~path:(resolve_app app) with
    | Error e -> Printf.eprintf "launch failed: %s\n" (Errno.to_string e)
    | Ok (p, stats, { Session.console; _ }) ->
      print_string console;
      Printf.printf "[%s] %s; %d app syscalls" (K23_eval.Mech.to_string mech)
        (match (p.exit_status, p.term_signal) with
        | Some s, _ -> Printf.sprintf "exit %d" s
        | None, Some sg -> Printf.sprintf "killed by signal %d" sg
        | None, None -> "did not terminate")
        p.counters.c_app;
      (match stats with
      | Some s ->
        Printf.printf ", %d interposed (%d ptrace / %d rewrite / %d SUD)\n" s.I.interposed
          s.via_ptrace s.via_rewrite s.via_sigsys
      | None -> print_newline ())
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Run an app under an interposition mechanism.")
    Term.(const run $ app_arg $ under)

let trace_cmd =
  let mech_opt =
    Arg.(
      value
      & opt (some mech_conv) None
      & info [ "mech"; "m" ] ~docv:"MECH"
          ~doc:
            "Record a structured ktrace event stream under this mechanism instead of the \
             default strace-style K23 listing.")
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:"Emit the ktrace event stream (plus counters) as JSON on stdout.")
  in
  let seed =
    Arg.(
      value
      & opt (some int) None
      & info [ "seed" ] ~docv:"SEED"
          ~doc:"World RNG seed; two runs with the same seed produce byte-identical streams.")
  in
  let limit =
    Arg.(
      value
      & opt (some int) None
      & info [ "limit" ] ~docv:"N"
          ~doc:
            "Print only the first N events of the stream (human and JSON); the footer still \
             reports the full event count.")
  in
  (* Structured path: run [app] under [mech] with the ktrace ring
     enabled (after K23's offline phase, so the stream covers the
     online run) and render the events human- or JSON-style. *)
  let run_ktrace ~mech ~json ~seed ~limit path =
    let w = Sim.create_world ?seed () in
    require_available ~isa:w.Kern.isa mech;
    Apps.Coreutils.register_all w;
    match Session.run ~sink:Session.Bounded w ~mech ~path with
    | Error e -> Printf.eprintf "launch failed: %s\n" (Errno.to_string e)
    | Ok (_, _, { Session.events; _ }) ->
      let t = Option.get w.Kern.ktrace in
      let total = List.length events in
      let shown =
        match limit with
        | Some n when n >= 0 && n < total -> List.filteri (fun i _ -> i < n) events
        | _ -> events
      in
      if json then
        print_string
          (K23_obs.Render.json_stream ~namer:Sysno.name
             ~counters:(K23_obs.Counters.to_list t.K23_obs.Trace.counters)
             ~dropped:(K23_obs.Trace.dropped t) shown)
      else begin
        print_string (K23_obs.Render.human_stream ~namer:Sysno.name shown);
        if List.length shown < total then
          Printf.printf "--- showing first %d of %d events (%d dropped)\n" (List.length shown)
            total (K23_obs.Trace.dropped t)
        else
          Printf.printf "--- %d events (%d dropped)\n" total (K23_obs.Trace.dropped t)
      end
  in
  (* Legacy path: the exhaustive strace-style listing via a K23 inner
     handler, byte-compatible with earlier releases. *)
  let run_legacy path =
    let w = setup_world () in
    ignore (K23.offline_run w ~path ());
    K23.seal_logs w;
    let inner : I.handler =
     fun ctx ~nr ~args ~site ->
      Printf.printf "%s%-18s(%#x, %#x, %#x) @%#x\n"
        (if ctx.thread.t_proc.startup_done then "" else "[startup] ")
        (Sysno.name nr) args.(0) args.(1) args.(2) site;
      Forward
    in
    match K23.launch w ~variant:K23.Default ~inner ~path () with
    | Error e -> Printf.eprintf "launch failed: %s\n" (Errno.to_string e)
    | Ok (p, stats) ->
      World.run_until_exit w p;
      Printf.printf "--- %d syscalls (exhaustive: %b)\n" stats.interposed
        (stats.interposed = p.counters.c_app)
  in
  let run app mech json seed limit =
    let path = resolve_app app in
    match (mech, json, limit) with
    | None, false, None -> run_legacy path
    | Some m, _, _ -> run_ktrace ~mech:m ~json ~seed ~limit path
    | None, _, _ -> run_ktrace ~mech:K23_eval.Mech.K23_default ~json ~seed ~limit path
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Syscall tracing: strace-style listing via K23 by default; with $(b,--mech), \
          $(b,--json) or $(b,--limit), a structured ktrace event stream under any mechanism.")
    Term.(const run $ app_arg $ mech_opt $ json $ seed $ limit)

let record_cmd =
  let module R = K23_replay in
  let mech =
    Arg.(
      value
      & opt mech_conv K23_eval.Mech.K23_ultra
      & info [ "mech"; "m" ] ~docv:"MECH" ~doc:"Mechanism to record the run under.")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE"
          ~doc:"Recording file to write (default: $(docv) is <app>.k23rec).")
  in
  let seed =
    Arg.(
      value
      & opt (some int) None
      & info [ "seed" ] ~docv:"SEED" ~doc:"World RNG seed baked into the recording.")
  in
  let run app mech out seed =
    let path = resolve_app app in
    let cfg =
      match seed with
      | None -> World.Config.default
      | Some s -> { World.Config.default with World.Config.seed = s }
    in
    let w = Sim.create_world_cfg cfg in
    require_available ~isa:w.Kern.isa mech;
    Apps.Coreutils.register_all w;
    match R.Recorder.record ~cfg w ~mech ~path with
    | Error e ->
      Printf.eprintf "launch failed: %s\n" (Errno.to_string e);
      Stdlib.exit 1
    | Ok r ->
      let out =
        match out with Some o -> o | None -> Filename.basename path ^ ".k23rec"
      in
      R.Recording.save ~path:out r;
      Printf.printf "recorded %s under %s: %d events, %s -> %s\n" path
        (K23_eval.Mech.to_string mech)
        (List.length r.R.Recording.rc_events)
        (match List.assoc_opt r.R.Recording.rc_root r.R.Recording.rc_fates with
        | Some f -> Session.fate_to_string f
        | None -> "?")
        out
  in
  Cmd.v
    (Cmd.info "record"
       ~doc:
         "Record a run: capture the complete ktrace event stream (unbounded sink — nothing is \
          dropped) plus the world recipe into a replayable .k23rec file.")
    Term.(const run $ app_arg $ mech $ out $ seed)

let replay_cmd =
  let module R = K23_replay in
  let file =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"FILE" ~doc:"Recording written by $(b,k23 record).")
  in
  let at =
    Arg.(
      value
      & opt (some int) None
      & info [ "at" ] ~docv:"N"
          ~doc:
            "Time travel: halt the replayed world the instant event N is emitted and dump the \
             machine state (registers, memory map, fd table).")
  in
  let json = Arg.(value & flag & info [ "json" ] ~doc:"Emit the replay verdict as JSON.") in
  let run file at json =
    let r =
      try R.Recording.load file with
      | K23_util.Wire.Parse_error m ->
        Printf.eprintf "%s: %s\n" file m;
        Stdlib.exit 2
      | Sys_error m ->
        Printf.eprintf "%s\n" m;
        Stdlib.exit 2
    in
    match R.Replayer.replay ?at ~register:(fun w -> Apps.Coreutils.register_all w) r with
    | Error e ->
      Printf.eprintf "launch failed: %s\n" (Errno.to_string e);
      Stdlib.exit 1
    | Ok o ->
      if json then print_endline (R.Replayer.render_json r o)
      else print_string (R.Replayer.render r o);
      if not (R.Replayer.ok o) then Stdlib.exit 1
  in
  Cmd.v
    (Cmd.info "replay"
       ~doc:
         "Re-drive a recorded run in a fresh world, substituting recorded syscall results and \
          diffing the live event stream against the log; reports the first divergence with \
          context.  Exit status 1 on divergence.")
    Term.(const run $ file $ at $ json)

let offline_cmd =
  let run app =
    let w = setup_world () in
    let path = resolve_app app in
    let entries = K23.offline_run w ~path () in
    Printf.printf "%d unique syscall sites:\n" (List.length entries);
    List.iter
      (fun e -> Printf.printf "%s,%d\n" e.K23_core.Log_store.region e.K23_core.Log_store.offset)
      entries
  in
  Cmd.v
    (Cmd.info "offline" ~doc:"Run K23's offline phase and print the site log (Figure 3 format).")
    Term.(const run $ app_arg)

let pitfalls_cmd =
  let run () =
    print_string (K23_pitfalls.Harness.render_table3 (K23_pitfalls.Harness.run_table3 ()))
  in
  Cmd.v
    (Cmd.info "pitfalls" ~doc:"Run the P1-P5 PoCs; print the Table 3 matrix.")
    Term.(const run $ const ())

let fuzz_cmd =
  let module F = K23_fuzz in
  let seed =
    Arg.(
      value & opt int 23
      & info [ "seed" ] ~docv:"SEED" ~doc:"Campaign seed; determines every generated program.")
  in
  let iters =
    Arg.(
      value & opt (int_at_least 0) 100
      & info [ "iters"; "n" ] ~docv:"N" ~doc:"Number of programs to generate and check.")
  in
  let mech =
    Arg.(
      value
      & opt (some mech_conv) None
      & info [ "mech"; "m" ] ~docv:"MECH"
          ~doc:
            "Check only this mechanism (default on x86-64: zpoline-ultra, lazypoline, sud, \
             ptrace, seccomp, k23-ultra; on arm64: asc-hook, sud, ptrace, seccomp).  Must be \
             available on the selected $(b,--isa).")
  in
  let isa =
    let isa_conv =
      let parse s =
        match K23_isa.Isa.of_string s with
        | Some i -> Ok i
        | None -> Error (`Msg (Printf.sprintf "unknown isa %S (x86-64 or arm64)" s))
      in
      Arg.conv (parse, fun fmt i -> Format.pp_print_string fmt (K23_isa.Isa.to_string i))
    in
    Arg.(
      value
      & opt isa_conv K23_isa.Isa.X86_64
      & info [ "isa" ] ~docv:"ISA"
          ~doc:
            "Instruction set of the fuzzed worlds: $(b,x86-64) (default) or $(b,arm64).  \
             Selects the generator backend, the default mechanism column and which \
             mechanisms $(b,--mech) accepts.")
  in
  let shapes =
    Arg.(
      value
      & opt (some string) None
      & info [ "shapes" ] ~docv:"S1,S2"
          ~doc:
            "Comma-separated hazard shapes: raw, embedded, straddle, smc, fork, signal, plus the \
             opt-in divergent shapes null-call and execve-scrub.  Default: the conformance-safe \
             mix.")
  in
  let minimize =
    Arg.(
      value & flag
      & info [ "minimize" ] ~doc:"Shrink each divergence to a minimal repro (delta debugging).")
  in
  let save =
    Arg.(
      value
      & opt (some string) None
      & info [ "save" ] ~docv:"DIR"
          ~doc:"With $(b,--minimize): write each minimized repro to DIR as a corpus file.")
  in
  let json = Arg.(value & flag & info [ "json" ] ~doc:"Emit the campaign report as JSON.") in
  let faults =
    Arg.(
      value & flag
      & info [ "faults" ]
          ~doc:
            "Run native and every mechanism under the same seeded fault schedule (EINTR with \
             restart semantics, short reads/writes, errno storms): a divergence then means the \
             mechanism mishandles an interrupted or restarted syscall.  The schedule seed is \
             the campaign seed, so reports stay byte-identical at any $(b,--jobs).")
  in
  let jobs =
    Arg.(
      value & opt (int_at_least 1) 1
      & info [ "jobs"; "j" ] ~docv:"N"
          ~doc:
            "Shard iterations across N domains.  The report (text or JSON) is byte-identical \
             for every N.")
  in
  let oracle =
    let oracle_conv =
      let parse s =
        match F.Campaign.oracle_mode_of_string s with
        | Some m -> Ok m
        | None -> Error (`Msg (Printf.sprintf "unknown oracle mode %S (live or replay)" s))
      in
      Arg.conv
        (parse, fun fmt m -> Format.pp_print_string fmt (F.Campaign.oracle_mode_to_string m))
    in
    Arg.(
      value
      & opt oracle_conv F.Campaign.Live
      & info [ "oracle" ] ~docv:"MODE"
          ~doc:
            "Native-reference mode: $(b,live) projects the native run straight off its world; \
             $(b,replay) records it once (lib/replay), round-trips the recording through the \
             wire format and projects off the log.  Verdicts are identical either way — gated \
             in runtest.")
  in
  let run seed iters mech shapes minimize save json faults jobs oracle isa =
    let shapes =
      match shapes with
      | None -> F.Gen.default_shapes
      | Some s ->
        String.split_on_char ',' s
        |> List.map (fun name ->
               match F.Gen.shape_of_string (String.trim name) with
               | Some sh when List.mem sh (F.Gen.all_shapes_for isa) -> sh
               | Some sh ->
                 Printf.eprintf "shape %S has no %s realisation\n"
                   (F.Gen.shape_to_string sh) (K23_isa.Isa.to_string isa);
                 Stdlib.exit 2
               | None ->
                 Printf.eprintf "unknown shape %S\n" name;
                 Stdlib.exit 2)
    in
    let mechs =
      match mech with
      | None -> F.Oracle.default_mechs_for isa
      | Some m ->
        require_available ~isa m;
        [ m ]
    in
    let world =
      let base =
        { F.Campaign.default_config.c_world with K23_kernel.World.Config.isa }
      in
      if faults then
        { base with K23_kernel.World.Config.faults = K23_faults.Faults.chaos ~fseed:seed () }
      else base
    in
    let config =
      {
        F.Campaign.default_config with
        c_seed = seed;
        c_iters = iters;
        c_mechs = mechs;
        c_shapes = shapes;
        c_minimize = minimize;
        c_world = world;
        c_oracle = oracle;
      }
    in
    let report = F.Campaign.run ~jobs config in
    if json then print_string (F.Campaign.render_json report)
    else print_string (F.Campaign.render_text report);
    (match save with
    | None -> ()
    | Some dir ->
      if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
      List.iteri
        (fun i (f : F.Campaign.finding) ->
          match f.f_minimized with
          | None -> ()
          | Some e ->
            let name =
              Printf.sprintf "%s-seed%d-%d.repro"
                (K23_eval.Mech.to_string f.f_mech)
                f.f_prog_seed i
            in
            let path = Filename.concat dir name in
            F.Corpus.save ~path e;
            Printf.eprintf "saved %s\n" path)
        report.r_findings);
    if F.Campaign.total_divergences report > 0 then Stdlib.exit 1
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Differential conformance fuzzing: run seeded adversarial programs natively and under \
          interposition mechanisms; any observable difference is a mechanism bug.  Exit status 1 \
          if divergences were found.")
    Term.(
      const run $ seed $ iters $ mech $ shapes $ minimize $ save $ json $ faults $ jobs $ oracle
      $ isa)

let apps_cmd =
  let run () = List.iter (fun (n, _, _) -> Printf.printf "%s\n" n) Apps.Coreutils.all in
  Cmd.v (Cmd.info "apps" ~doc:"List bundled applications.") Term.(const run $ const ())

let () =
  let info =
    Cmd.info "k23" ~version:"1.0.0"
      ~doc:"K23 system call interposition on a simulated x86-64/Linux substrate"
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            run_cmd;
            trace_cmd;
            record_cmd;
            replay_cmd;
            offline_cmd;
            pitfalls_cmd;
            fuzz_cmd;
            apps_cmd;
          ]))
