(** The benchmark's view of the simulator's layers: one wrapper per
    public entry point, each opening a span named after its layer, plus
    the exact counts read off every world when a run ends.

    Nothing here changes what the wrapped functions do.  The syscall and
    execve hooks are installed on the world's dispatch slots
    ([syscall_impl] = [Syscalls.dispatch], [execve_impl] =
    [Loader.do_execve]); [World.reset] re-wires both slots, so {!reset}
    re-installs the hooks after every reset, as {!create} does after
    every build. *)

open K23_kernel
open K23_userland
module Mech = K23_eval.Mech

(* span names: <layer>.<what> *)
let root = Span.id "bench"
let world_create = Span.id "world.create"
let world_reset = Span.id "world.reset"
let register_id = Span.id "userland.register"
let offline_id = Span.id "core.offline"
let launch_id = Span.id "interpose.launch"
let run_id = Span.id "kern.run"
let execve_id = Span.id "loader.execve"
let ktrace_id = Span.id "obs.ktrace"
let gen_id = Span.id "fuzz.gen"
let project_id = Span.id "fuzz.project"
let compare_id = Span.id "fuzz.compare"

(* one span name per syscall number, "kernel.sys.<name>"; aggregated
   only, there are millions of them *)
let sys_ids = Array.make 1024 (-1)

let sys_id_of_name nr =
  let i = Span.id ("kernel.sys." ^ Sysno.name nr) in
  Span.mark_hot i;
  i

let sys_id nr =
  if nr >= 0 && nr < Array.length sys_ids then begin
    let i = sys_ids.(nr) in
    if i >= 0 then i
    else begin
      let i = sys_id_of_name nr in
      sys_ids.(nr) <- i;
      i
    end
  end
  else sys_id_of_name nr

(** Exact counts, accumulated whether or not spans are enabled.  Each
    is a pure function of (commit, workload, seed). *)
type counts = {
  mutable steps : int;  (** simulated instructions, every world *)
  mutable loop_steps : int;  (** of which inside {!run} spans *)
  mutable cycles : int;  (** [World.elapsed_cycles], summed over worlds *)
  mutable syscalls : int;  (** dispatches through [syscall_impl] *)
  mutable execs : int;  (** calls through [execve_impl] *)
  mutable sigsys : int;  (** SIGSYS deliveries, per-process counters *)
  mutable interposer : int;  (** syscalls re-issued from interposer code *)
  mutable events : int;  (** ktrace events read back *)
  mutable creates : int;
  mutable resets : int;
  mutable offline_runs : int;
}

let c =
  {
    steps = 0;
    loop_steps = 0;
    cycles = 0;
    syscalls = 0;
    execs = 0;
    sigsys = 0;
    interposer = 0;
    events = 0;
    creates = 0;
    resets = 0;
    offline_runs = 0;
  }

let reset_counts () =
  c.steps <- 0;
  c.loop_steps <- 0;
  c.cycles <- 0;
  c.syscalls <- 0;
  c.execs <- 0;
  c.sigsys <- 0;
  c.interposer <- 0;
  c.events <- 0;
  c.creates <- 0;
  c.resets <- 0;
  c.offline_runs <- 0

(** The counts the parity check requires to repeat exactly. *)
let exact_counts () =
  [
    ("machine.steps", c.steps);
    ("sim.cycles", c.cycles);
    ("kernel.syscalls", c.syscalls);
    ("kernel.sigsys", c.sigsys);
    ("obs.events", c.events);
  ]

let hook (w : Kern.world) =
  (match w.syscall_impl with
  | Some f ->
    w.syscall_impl <-
      Some
        (fun ctx ~nr ~args ->
          c.syscalls <- c.syscalls + 1;
          if !Span.enabled then Span.with_ (sys_id nr) (fun () -> f ctx ~nr ~args)
          else f ctx ~nr ~args)
  | None -> ());
  match w.execve_impl with
  | Some f ->
    w.execve_impl <-
      Some
        (fun ctx ~path ~argv ~envp ->
          c.execs <- c.execs + 1;
          if !Span.enabled then Span.with_ execve_id (fun () -> f ctx ~path ~argv ~envp)
          else f ctx ~path ~argv ~envp)
  | None -> ()

(** [Sim.create_world_cfg], hooked. *)
let create cfg =
  c.creates <- c.creates + 1;
  let w = Span.with_ world_create (fun () -> Sim.create_world_cfg cfg) in
  hook w;
  w

(** [Sim.reset_world_cfg], hooked. *)
let reset w cfg =
  c.resets <- c.resets + 1;
  Span.with_ world_reset (fun () -> Sim.reset_world_cfg w cfg);
  hook w

(** The scratch-world cache the fuzz oracle uses, over the hooked
    build and reset. *)
let with_scratch_world cfg f = K23_par.World_cache.with_world ~build:create ~reset cfg f

(** Add a finished world's exact counts. *)
let finish (w : Kern.world) =
  c.steps <- c.steps + w.steps;
  c.cycles <- c.cycles + World.elapsed_cycles w;
  List.iter
    (fun (p : Kern.proc) ->
      c.sigsys <- c.sigsys + p.counters.c_sigsys;
      c.interposer <- c.interposer + p.counters.c_interposer)
    w.procs

let register f = Span.with_ register_id f

let offline f =
  c.offline_runs <- c.offline_runs + 1;
  Span.with_ offline_id f

let launch mech w ~path = Span.with_ launch_id (fun () -> Mech.launch mech w ~path ())

(** A run of the scheduler loop ([f] calls [Kern.run] or a wrapper of
    it); steps inside it are counted apart from offline-phase steps. *)
let run (w : Kern.world) f =
  let s0 = w.steps in
  match Span.with_ run_id f with
  | v ->
    c.loop_steps <- c.loop_steps + (w.steps - s0);
    v
  | exception e ->
    c.loop_steps <- c.loop_steps + (w.steps - s0);
    raise e

let ktrace_enable w = Span.with_ ktrace_id (fun () -> Kern.ktrace_enable w)

let events t =
  let evs = Span.with_ ktrace_id (fun () -> K23_obs.Trace.events t) in
  c.events <- c.events + List.length evs;
  evs
