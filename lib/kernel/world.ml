(** World assembly: wires the syscall table and the loader into a
    {!Kern.world} and provides the high-level API used by examples,
    tests and benchmarks. *)

open Kern

(** The complete recipe for one world, as a plain record: two equal
    configs (plus equal programs) produce byte-identical worlds, which
    is what lets the domain pool ({!K23_par}) shard seeded runs, and
    recordings and corpus repros carry it as wire fields. *)
module Config = struct
  type t = {
    isa : K23_isa.Isa.t;  (** instruction set of every image this world loads *)
    ncores : int;
    quantum : int;  (** scheduler timeslice, in instructions *)
    seed : int;  (** world RNG seed: ASLR draws + cost skew *)
    aslr : bool;
    cost : K23_machine.Cost.model;
    predecode : bool;  (** per-line decode memo in every I-cache *)
    faults : K23_faults.Faults.plan;  (** fault-injection schedule; {!K23_faults.Faults.none} = off *)
  }

  let default =
    {
      isa = K23_isa.Isa.X86_64;
      ncores = 12;
      quantum = 64;
      seed = 23;
      aslr = true;
      cost = K23_machine.Cost.default;
      predecode = true;
      faults = K23_faults.Faults.none;
    }

  (** [default] with the given fields overridden — the bridge from the
      optional-argument world constructors. *)
  let make ?(isa = default.isa) ?(ncores = default.ncores) ?(quantum = default.quantum)
      ?(seed = default.seed) ?(aslr = default.aslr) ?(cost = default.cost)
      ?(predecode = default.predecode) ?(faults = default.faults) () =
    { isa; ncores; quantum; seed; aslr; cost; predecode; faults }

  (** The config as wire fields ({!K23_util.Wire}), the header lines a
      recording carries.  [isa] is emitted only off x86, so every x86
      artifact keeps its pre-ISA bytes. *)
  let to_fields c =
    (match c.isa with
    | K23_isa.Isa.X86_64 -> []
    | isa -> [ ("isa", K23_isa.Isa.to_string isa) ])
    @ [
        ("ncores", string_of_int c.ncores);
        ("quantum", string_of_int c.quantum);
        ("seed", string_of_int c.seed);
        ("aslr", string_of_int (Bool.to_int c.aslr));
        ("predecode", string_of_int (Bool.to_int c.predecode));
        ("cost", K23_machine.Cost.to_string c.cost);
        ("faults", K23_faults.Faults.to_string c.faults);
      ]

  (** The most cores a config may ask for: every core owns an I-cache
      and cycle counters, so a parsed count is bounded before anything
      is allocated.  Every caller uses the default, 12. *)
  let max_ncores = 1024

  (** Inverse of {!to_fields}: an absent key keeps its {!default}.  A
      world needs at least one core and a timeslice of at least one
      instruction, so smaller values are a parse error, as is more
      than {!max_ncores} cores. *)
  let of_fields fields =
    let module Wire = K23_util.Wire in
    let get k parse d = Wire.get fields k parse d in
    let flag k v = Wire.int k v <> 0 in
    let positive k v =
      let n = Wire.int k v in
      if n < 1 then Wire.fail "%s must be at least 1: %d" k n else n
    in
    let cores v =
      let n = positive "ncores" v in
      if n > max_ncores then Wire.fail "ncores must be at most %d: %d" max_ncores n else n
    in
    {
      isa = get "isa" (Wire.value "isa" K23_isa.Isa.of_string) default.isa;
      ncores = get "ncores" cores default.ncores;
      quantum = get "quantum" (positive "quantum") default.quantum;
      seed = get "seed" (Wire.int "seed") default.seed;
      aslr = get "aslr" (flag "aslr") default.aslr;
      predecode = get "predecode" (flag "predecode") default.predecode;
      cost = get "cost" (Wire.value "cost model" K23_machine.Cost.of_string) default.cost;
      faults = get "faults" (Wire.value "fault plan" K23_faults.Faults.of_string) default.faults;
    }
end

(* The wiring shared by {!create_cfg} and {!reset}: dispatch hooks,
   base images, filesystem skeleton.  Keeping it in one place is what
   makes "reset ≡ fresh create" an auditable claim rather than two
   code paths to keep in sync. *)
let wire (w : world) (cfg : Config.t) =
  w.syscall_impl <- Some Syscalls.dispatch;
  w.execve_impl <- Some Loader.do_execve;
  register_library w (Loader.ldso_image cfg.isa);
  register_library w (Loader.vdso_image cfg.isa);
  List.iter
    (fun d -> ignore (Vfs.mkdir_p w.vfs d))
    [ "/bin"; "/usr/lib"; "/etc"; "/tmp"; "/home/user"; "/k23" ];
  ignore (Vfs.write_file w.vfs "/etc/ld.so.cache" "ld.so cache\n");
  ignore (Vfs.write_file w.vfs "/etc/hostname" "sim\n");
  w.faults <- (if K23_faults.Faults.enabled cfg.faults then Some cfg.faults else None);
  Hashtbl.reset w.fault_ticks

(** Create a fully wired world from a {!Config.t}: syscall dispatch,
    execve, the dynamic linker, the vdso and a minimal filesystem
    skeleton. *)
let create_cfg (cfg : Config.t) =
  let w =
    create_world ~isa:cfg.isa ~ncores:cfg.ncores ~quantum:cfg.quantum ~seed:cfg.seed
      ~aslr:cfg.aslr ~cost:cfg.cost ~predecode:cfg.predecode
  in
  wire w cfg;
  w

(** Rebuild [w] in place to the exact observable state of
    [create_cfg cfg] — the scratch-world path of the domain pool
    ({!K23_par}): a reused world skips allocating the big structures
    (cores, I-caches, tables) that a fresh build would recreate.

    The invariants (test_par.ml pins them; DESIGN.md §4g):
    - the RNG is rewound and the per-run cost skew re-drawn, so the
      ASLR/jitter stream replays bit-for-bit;
    - every id sequence (pid, tid, connection id, steps) restarts;
    - the VFS (offline logs and their seals included), the network,
      the library table, the ktrace sink, SUD history and per-core
      state (cycles, residency, I-cache contents, predecode memos) are
      emptied exactly as a fresh world starts;
    - the world's {e structural} parameters ([ncores], [quantum])
      cannot change in place — a config differing there must rebuild
      ([Invalid_argument]). *)
let reset (w : world) (cfg : Config.t) =
  if cfg.ncores <> w.ncores || cfg.quantum <> w.quantum || cfg.isa <> w.isa then
    invalid_arg "World.reset: isa/ncores/quantum differ from the world being reset";
  Rng.reseed w.rng ~seed:cfg.seed;
  (* same draw order as create_world: skew first *)
  w.cost <- { cfg.cost with K23_machine.Cost.syscall_base = cfg.cost.K23_machine.Cost.syscall_base + Rng.int w.rng 3 - 1 };
  Array.fill w.core_cycles 0 w.ncores 0;
  Array.fill w.core_resident 0 w.ncores (-1);
  (* fresh caches, not flushed ones: a flush keeps lines for
     rechecking, and a reused world would pile up one set per ASLR
     slide *)
  Array.iteri
    (fun i _ -> w.icaches.(i) <- K23_machine.Icache.create ~predecode:cfg.predecode ())
    w.icaches;
  w.procs <- [];
  w.next_pid <- 1;
  w.next_tid <- 1;
  Vfs.reset w.vfs;
  Net.reset w.net;
  Hashtbl.reset w.libraries;
  w.syscall_impl <- None;
  w.execve_impl <- None;
  w.steps <- 0;
  w.aslr <- cfg.aslr;
  w.sud_ever_armed <- false;
  w.ktrace <- None;
  Array.fill w.ktrace_last_tid 0 w.ncores (-1);
  w.replay_exit <- None;
  wire w cfg

(** Spawn a process running [path].  [env] is a list of "K=V" strings;
    LD_PRELOAD is honoured exactly as by the dynamic loader.  A
    [tracer] attaches before the initial execve, so it observes the
    program from its very first instruction (the property only ptrace
    offers; Section 5.2). *)
let spawn (w : world) ~path ?(argv = []) ?(env = []) ?tracer ?(vdso = true) () =
  let p = new_proc w ~parent:None ~cmd:path in
  let th = new_thread w p in
  p.tracer <- tracer;
  p.vdso_enabled <- vdso;
  let argv = if argv = [] then [ path ] else argv in
  match w.execve_impl with
  | None -> panic "world not wired"
  | Some f ->
    let ret = f { world = w; thread = th } ~path ~argv ~envp:env in
    if ret < 0 then begin
      exit_proc p ~status:127;
      Error ret
    end
    else Ok p

let run = Kern.run

(** Run until [p] terminates (or the step budget is exhausted). *)
let run_until_exit ?max_steps (w : world) (p : proc) =
  run ?max_steps ~until:(fun () -> proc_dead p) w

let stdout_of = console_output

(** Total simulated wall-clock time (cycles) — the busiest core. *)
let elapsed_cycles (w : world) = now w
