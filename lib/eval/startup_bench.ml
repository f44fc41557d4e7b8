(** E7: the startup blind spot (Section 6.1: "even simple utilities
    like ls issue over 100 system calls during startup before the
    interposition library is loaded").

    We count, per application, the system calls issued before the
    first LD_PRELOAD constructor completes — exactly the calls any
    library-injection interposer must miss — and verify that a
    ptrace-based launch observes them all. *)

open K23_kernel
open K23_userland
module Apps = K23_apps

type entry = {
  app : string;
  startup_syscalls : int;  (** missed by LD_PRELOAD-based interposers *)
  ptrace_sees : int;  (** same window as observed by a ptracer *)
}

let measure name =
  let path = Apps.Coreutils.path name in
  (* one run, traced: the kernel's ground-truth startup counter and
     the count the ptrace handler observed must agree.  A do-nothing
     preload marks where an interposition library would initialise. *)
  let w = Sim.create_world () in
  Apps.Coreutils.register_all w;
  let stats = K23_interpose.Interpose.fresh_stats () in
  Kern.register_library w
    (K23_baselines.Sud_interposer.image ~interpose_on:false ~stats
       ~handler:(K23_interpose.Interpose.counting_handler stats) ());
  let env = K23_interpose.Interpose.add_preload [] K23_baselines.Sud_interposer.lib_path in
  let seen = ref 0 in
  let inner : K23_interpose.Interpose.handler =
   fun ctx ~nr:_ ~args:_ ~site:_ ->
    if not ctx.thread.t_proc.startup_done then incr seen;
    Forward
  in
  match Mech.launch ~inner Mech.Ptrace w ~path ~env () with
  | Error e -> failwith (Printf.sprintf "ptrace launch: %d" e)
  | Ok (p, _) ->
    World.run_until_exit w p;
    { app = name; startup_syscalls = p.counters.c_startup; ptrace_sees = !seen }

let run () = List.map measure [ "pwd"; "touch"; "ls"; "cat"; "clear" ]

let render entries =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf "%-8s %20s %18s\n" "App" "startup syscalls" "seen by ptrace");
  List.iter
    (fun e ->
      Buffer.add_string buf
        (Printf.sprintf "%-8s %20d %18d\n" e.app e.startup_syscalls e.ptrace_sees))
    entries;
  Buffer.contents buf
