(** Convenience layer: a world with the standard userland registered,
    and helpers to define application binaries. *)

open K23_kernel

(* Userland registration on top of the kernel wiring — shared verbatim
   by the fresh-create and in-place-reset paths. *)
let populate w =
  Kern.register_library w (Libc.image ());
  List.iter (Kern.register_library w) (Stdlibs.all ());
  ignore (Vfs.write_file w.vfs "/usr/lib/locale/locale-archive" (String.make 1024 'L'))

(** A wired world with libc, the stub libraries, and the files the
    startup sequence touches, built from a {!World.Config.t}. *)
let create_world_cfg cfg =
  let w = World.create_cfg cfg in
  populate w;
  w

(** In-place counterpart of {!create_world_cfg}: {!World.reset} plus
    the same userland registration.  The scratch-world cache
    ({!K23_par.World_cache}) uses this to recycle a dirty world into
    the exact observable state of a fresh one. *)
let reset_world_cfg w cfg =
  World.reset w cfg;
  populate w

(** Legacy optional-argument constructor (thin wrapper). *)
let create_world ?isa ?ncores ?quantum ?seed ?aslr ?cost ?predecode () =
  create_world_cfg (World.Config.make ?isa ?ncores ?quantum ?seed ?aslr ?cost ?predecode ())

(** Define and register an application binary from an assembled
    program, entry symbol ["main"] — the seam that keeps this module
    ISA-agnostic: ARM callers assemble their items with
    [K23_isa_arm.Asm_arm.assemble] (the userland layer has no backend
    dependency).  [needed] defaults to [[]]: there is no ARM libc
    image, apps are freestanding (ld.so still runs its boilerplate, so
    P2b-class startup syscalls exist on ARM too). *)
let register_app_prog w ~path ?(needed = []) ?(host_fns = []) (prog : K23_isa.Asm.program) =
  let im : Kern.image =
    {
      im_name = path;
      im_prog = prog;
      im_host_fns = host_fns;
      im_init = None;
      im_entry = Some "main";
      im_needed = needed;
      im_owner = App;
    }
  in
  Kern.register_library w im;
  im

(** {!register_app_prog} for x86-64 items; [needed] defaults to
    libc. *)
let register_app w ~path ?(needed = [ Libc.path ]) ?host_fns items =
  register_app_prog w ~path ~needed ?host_fns (K23_isa.Asm.assemble items)

(** Spawn + run to completion; returns the process. *)
let run_to_exit ?max_steps w ~path ?argv ?env () =
  match World.spawn w ~path ?argv ?env () with
  | Error e -> failwith (Printf.sprintf "spawn %s failed: %d" path e)
  | Ok p ->
    World.run_until_exit ?max_steps w p;
    p
