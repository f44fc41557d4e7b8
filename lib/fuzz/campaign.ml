(** Fuzzing campaigns: generate [iters] programs from a seed, run each
    through the differential oracle against a set of mechanisms, and
    collect divergences plus coverage statistics into a report.

    Everything in the report is a pure function of the configuration —
    per-iteration program seeds are derived from the campaign seed, the
    oracle worlds are described by one [World.Config.t] record, and the
    report carries no timing — so the same seed renders byte-identical
    JSON on every machine.  Throughput (execs/sec) is measured by the
    bench harness around this module, never inside the report.

    Iterations are fully independent (each one builds fresh worlds
    from [c_world]), so {!run} shards them across a domain pool when
    [~jobs] is above 1: results come back in iteration order, and
    shrinking stays sequential in the merge phase.
    The report is byte-identical whatever [jobs] is — dune runtest
    pins [--jobs 1] against [--jobs 4] on the CLI's JSON output. *)

module Mech = K23_eval.Mech
module Rng = K23_util.Rng
module World = K23_kernel.World

(** How the native reference column is produced.  [Live] runs it and
    projects straight off the world; [Replay] records it once
    (unbounded sink), round-trips the recording through the wire
    format, and projects off the log — so every verdict the replay
    oracle renders passed through serialise → parse.  Verdicts must
    be identical either way (gated in runtest on a 200-iter
    campaign); the mode is deliberately {e not} part of the report,
    so live and replay reports diff byte-for-byte. *)
type oracle_mode = Live | Replay

let oracle_mode_to_string = function Live -> "live" | Replay -> "replay"

let oracle_mode_of_string = function
  | "live" -> Some Live
  | "replay" -> Some Replay
  | _ -> None

type config = {
  c_seed : int;
  c_iters : int;
  c_mechs : Mech.t list;
  c_shapes : Gen.shape list;
  c_minimize : bool;  (** shrink each divergence to a minimal repro *)
  c_world : World.Config.t;  (** recipe for every oracle world *)
  c_max_steps : int;
  c_oracle : oracle_mode;
}

let default_config =
  {
    c_seed = 23;
    c_iters = 100;
    c_mechs = Oracle.default_mechs;
    c_shapes = Gen.default_shapes;
    c_minimize = false;
    c_world = Oracle.default_world_cfg;
    c_max_steps = Oracle.default_max_steps;
    c_oracle = Live;
  }

(** Per-iteration program seed: decoupled from iteration order only by
    the campaign seed, so any iteration can be replayed alone. *)
let iter_seed config i = (config.c_seed * 1_000_003) + i

(** Per-iteration world: with the fault plane enabled, each iteration
    rolls its own schedule ([fseed] offset by the iteration index) —
    fuzz programs make only a handful of syscalls, so replaying one
    fixed schedule from tick 0 every iteration would exercise almost
    no faults.  Native and every mechanism column of iteration [i]
    still share the exact same config, which is the alignment the
    differential oracle needs. *)
let iter_world config i =
  let f = config.c_world.World.Config.faults in
  if K23_faults.Faults.enabled f then
    {
      config.c_world with
      World.Config.faults = { f with K23_faults.Faults.fseed = f.K23_faults.Faults.fseed + (i * 7919) }
    }
  else config.c_world

type finding = {
  f_iter : int;
  f_prog_seed : int;
  f_mech : Mech.t;
  f_divergence : Oracle.divergence;
  f_shapes : Gen.shape list;
  f_minimized : Corpus.entry option;  (** present when [c_minimize] *)
  f_min_insns : int option;
}

type report = {
  r_config : config;
  r_programs : int;
  r_runs : int;  (** oracle executions, native reference included *)
  r_insns : int;  (** static instructions generated *)
  r_divergent : (Mech.t * int) list;  (** per mechanism, campaign total *)
  r_findings : finding list;
  r_insn_hist : (string * int) list;
  r_sys_hist : (int * int) list;
}

let total_divergences r = List.fold_left (fun a (_, n) -> a + n) 0 r.r_divergent

(** One iteration's merged share: the generated program and the raw
    divergences, in [c_mechs] order.  Shrinking and report assembly
    happen in the sequential merge so that [on_finding] ordering,
    shrink scheduling and the report bytes never depend on [jobs]. *)
type iter_out = { io_prog : Gen.prog; io_divs : (Mech.t * Oracle.divergence) list }

(* Phase A task: generate iteration [i]'s program and run the native
   reference once.  Both outputs are immutable data (the program is
   the generator's item list; the projection is ints and strings), so
   sharing them with phase B tasks on other domains is safe. *)
let gen_native config i : Gen.prog * Oracle.projected =
  let pseed = iter_seed config i in
  let rng = Rng.create ~seed:pseed in
  let prog =
    Gen.generate ~shapes:config.c_shapes ~isa:config.c_world.World.Config.isa rng
  in
  let native =
    match config.c_oracle with
    | Live -> (
      match
        Oracle.run ~cfg:(iter_world config i) ~max_steps:config.c_max_steps ~mech:Mech.Native
          prog.Gen.items
      with
      | Oracle.Launch_failed e ->
        failwith (Printf.sprintf "fuzz iter %d: native launch failed (%d)" i e)
      | Oracle.Ok_run native -> native)
    | Replay -> (
      match
        Oracle.record ~cfg:(iter_world config i) ~max_steps:config.c_max_steps ~mech:Mech.Native
          prog.Gen.items
      with
      | Error e -> failwith (Printf.sprintf "fuzz iter %d: native launch failed (%d)" i e)
      | Ok rec0 ->
        (* always through the wire format: the replay oracle's native
           column is serialised and re-parsed every iteration, so the
           codec round-trip is exercised — and the jobs / live-vs-
           replay gates bite on it — at campaign scale *)
        let rec1 = K23_replay.Recording.of_string (K23_replay.Recording.to_string rec0) in
        Oracle.project_recording rec1)
  in
  (prog, native)

(** Run a campaign.  [on_finding] fires as divergences are merged (for
    live CLI output); the report is assembled at the end.  [jobs]
    shards the work across a domain pool ({!K23_par.Pool}) in two
    phases: phase A generates each program and computes its native
    projection {e once}; phase B is one compare task per
    (program × mechanism), claimed in chunks of one iteration's
    mechanism row.  The old shape — one task per iteration re-running
    the native column for all seven worlds — wasted 1/7th of the work
    and made each task as slow as its slowest mechanism.  The report
    is byte-identical for every value of [jobs] — dune runtest pins
    [--jobs 1] against [--jobs 4] on the CLI's JSON output. *)
let run ?(on_finding = fun (_ : finding) -> ()) ?(jobs = 1) config =
  (* phase A: generate + native column, one task per iteration *)
  let natives = K23_par.Pool.map ~jobs (gen_native config) (List.init config.c_iters Fun.id) in
  (* phase B: one (iteration x mechanism) grid cell per compare;
     [diverges ~native] reuses phase A's projection instead of
     re-running it.  chunk = one iteration's mechanism row: a single
     queue claim per iteration, and consecutive compares share the
     domain's scratch world while it is cache-hot *)
  let divs =
    K23_par.Pool.grid ~jobs
      ~chunk:(max 1 (List.length config.c_mechs))
      (fun (i, (prog, native)) mech ->
        Oracle.diverges ~cfg:(iter_world config i) ~max_steps:config.c_max_steps ~native ~mech
          prog.Gen.items
        |> Option.map (fun d -> (mech, d)))
      (List.mapi (fun i n -> (i, n)) natives)
      config.c_mechs
  in
  let outs =
    List.map2
      (fun (prog, _) row -> { io_prog = prog; io_divs = List.filter_map Fun.id row })
      natives divs
  in
  (* sequential merge, in (iteration, mechanism) order: counts,
     findings, shrinking *)
  let findings = ref [] in
  let counts = List.map (fun m -> (m, ref 0)) config.c_mechs in
  List.iteri
    (fun i out ->
      let pseed = iter_seed config i in
      List.iter
        (fun (mech, d) ->
          incr (List.assoc mech counts);
          let minimized, min_insns =
            if not config.c_minimize then (None, None)
            else
              match
                Shrink.minimize ~cfg:(iter_world config i) ~max_steps:config.c_max_steps ~mech
                  out.io_prog.Gen.items
              with
              | None -> (None, None)
              | Some r ->
                ( Some
                    {
                      Corpus.e_mech = mech;
                      e_seed = pseed;
                      e_expect = Oracle.render_divergence r.Shrink.divergence;
                      e_faults =
                        (let f = (iter_world config i).World.Config.faults in
                         if K23_faults.Faults.enabled f then Some f else None);
                      e_items = r.Shrink.items;
                    },
                  Some (Gen.insn_count r.Shrink.items) )
          in
          let f =
            {
              f_iter = i;
              f_prog_seed = pseed;
              f_mech = mech;
              f_divergence = d;
              f_shapes = out.io_prog.Gen.shapes;
              f_minimized = minimized;
              f_min_insns = min_insns;
            }
          in
          findings := f :: !findings;
          on_finding f)
        out.io_divs)
    outs;
  let progs = List.map (fun o -> o.io_prog) outs in
  {
    r_config = config;
    r_programs = List.length progs;
    r_runs = config.c_iters * (1 + List.length config.c_mechs);
    r_insns = List.fold_left (fun a p -> a + Gen.insn_count p.Gen.items) 0 progs;
    r_divergent = List.map (fun (m, c) -> (m, !c)) counts;
    r_findings = List.rev !findings;
    r_insn_hist = Gen.insn_histogram progs;
    r_sys_hist = Gen.syscall_histogram progs;
  }

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)

(** Deterministic JSON: fixed key order, no timing, no floats. *)
let render_json (r : report) =
  let buf = Buffer.create 4096 in
  let add = Buffer.add_string buf in
  add "{\n";
  add (Printf.sprintf "  \"seed\": %d,\n" r.r_config.c_seed);
  add (Printf.sprintf "  \"iters\": %d,\n" r.r_config.c_iters);
  (* emitted only off x86 so pre-existing x86 reports stay byte-identical *)
  (match r.r_config.c_world.World.Config.isa with
  | K23_isa.Isa.X86_64 -> ()
  | isa -> add (Printf.sprintf "  \"isa\": \"%s\",\n" (K23_isa.Isa.to_string isa)));
  add
    (Printf.sprintf "  \"faults\": \"%s\",\n"
       (K23_faults.Faults.to_string r.r_config.c_world.World.Config.faults));
  add
    (Printf.sprintf "  \"shapes\": [%s],\n"
       (String.concat ", "
          (List.map (fun s -> "\"" ^ Gen.shape_to_string s ^ "\"") r.r_config.c_shapes)));
  add
    (Printf.sprintf "  \"mechs\": [%s],\n"
       (String.concat ", "
          (List.map (fun m -> "\"" ^ Mech.to_string m ^ "\"") r.r_config.c_mechs)));
  add (Printf.sprintf "  \"programs\": %d,\n" r.r_programs);
  add (Printf.sprintf "  \"runs\": %d,\n" r.r_runs);
  add (Printf.sprintf "  \"insns\": %d,\n" r.r_insns);
  add (Printf.sprintf "  \"divergences\": %d,\n" (total_divergences r));
  add "  \"divergent_by_mech\": {";
  add
    (String.concat ", "
       (List.map
          (fun (m, n) -> Printf.sprintf "\"%s\": %d" (Mech.to_string m) n)
          r.r_divergent));
  add "},\n";
  add "  \"findings\": [\n";
  List.iteri
    (fun i f ->
      add
        (Printf.sprintf
           "    {\"iter\": %d, \"prog_seed\": %d, \"mech\": \"%s\", \"shapes\": [%s], \
            \"divergence\": \"%s\"%s}%s\n"
           f.f_iter f.f_prog_seed (Mech.to_string f.f_mech)
           (String.concat ", "
              (List.map (fun s -> "\"" ^ Gen.shape_to_string s ^ "\"") f.f_shapes))
           (K23_obs.Render.json_escape (Oracle.render_divergence f.f_divergence))
           (match f.f_min_insns with
           | None -> ""
           | Some n -> Printf.sprintf ", \"min_insns\": %d" n)
           (if i = List.length r.r_findings - 1 then "" else ",")))
    r.r_findings;
  add "  ],\n";
  add "  \"insn_histogram\": {";
  add
    (String.concat ", "
       (List.map (fun (k, v) -> Printf.sprintf "\"%s\": %d" k v) r.r_insn_hist));
  add "},\n";
  add "  \"syscall_histogram\": {";
  add
    (String.concat ", "
       (List.map
          (fun (nr, v) -> Printf.sprintf "\"%s\": %d" (K23_kernel.Sysno.name nr) v)
          r.r_sys_hist));
  add "}\n";
  add "}\n";
  Buffer.contents buf

let render_text (r : report) =
  let buf = Buffer.create 1024 in
  let add = Buffer.add_string buf in
  add
    (Printf.sprintf "fuzz: seed=%d iters=%d programs=%d runs=%d insns=%d\n" r.r_config.c_seed
       r.r_config.c_iters r.r_programs r.r_runs r.r_insns);
  add
    (Printf.sprintf "shapes: %s\n"
       (String.concat " " (List.map Gen.shape_to_string r.r_config.c_shapes)));
  List.iter
    (fun (m, n) ->
      add
        (Printf.sprintf "  %-16s %s\n" (Mech.to_string m)
           (if n = 0 then "conforms" else Printf.sprintf "%d DIVERGENT" n)))
    r.r_divergent;
  List.iter
    (fun f ->
      add
        (Printf.sprintf "  iter %d (seed %d, shapes %s): %s\n" f.f_iter f.f_prog_seed
           (String.concat "+" (List.map Gen.shape_to_string f.f_shapes))
           (Oracle.render_divergence f.f_divergence));
      match f.f_minimized with
      | None -> ()
      | Some e ->
        add
          (Printf.sprintf "    minimized to %d insns:\n"
             (Option.value ~default:0 f.f_min_insns));
        List.iter (fun l -> add ("      " ^ l ^ "\n")) (Corpus.item_lines e.Corpus.e_items))
    r.r_findings;
  add
    (Printf.sprintf "total: %d divergence%s\n" (total_divergences r)
       (if total_divergences r = 1 then "" else "s"));
  Buffer.contents buf
