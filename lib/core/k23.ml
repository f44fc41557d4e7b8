(** K23 public API: the offline phase, the online launch, and the
    combined handler with the prctl guard and execve ptracer
    re-attachment.

    Typical use:
    {[
      let w = Sim.create_world () in
      (* offline phase: run with representative inputs *)
      ignore (K23.offline_run w ~path:"/bin/app" ());
      K23.seal_logs w;
      (* online phase *)
      let p, stats = Result.get_ok (K23.launch w ~variant:K23.Ultra ~path:"/bin/app" ()) in
      World.run_until_exit w p
    ]} *)

open K23_kernel
open Kern
open K23_interpose.Interpose

type variant = Libk23.variant = Default | Ultra | Ultra_plus

let variant_to_string = Libk23.variant_to_string

(* ------------------------------------------------------------------ *)
(* Offline phase                                                       *)

(** Start the offline phase: spawn the target under libLogger (plus
    the preload-enforcing companion tracer), so that every unique
    syscall site it executes lands in /k23/logs.  Returns the process;
    servers are driven by a client before they are killed. *)
let offline_spawn w ~path ?argv ?(env = []) () =
  let stats = fresh_stats () in
  register_library w (Offline.image ~stats ());
  let env = add_preload env Offline.lib_path in
  let tracer = Ptracer.preload_enforcer ~lib_path:Offline.lib_path () in
  (* the offline phase mirrors the online environment: the vdso is
     disabled there too, so vdso-fallback syscall sites are observed
     and logged *)
  match World.spawn w ~path ?argv ~env ~tracer ~vdso:false () with
  | Error e -> failwith (Printf.sprintf "offline spawn of %s failed (%d)" path e)
  | Ok p -> p

(** Run the offline phase once, to the target's exit.  Returns the
    accumulated log. *)
let offline_run w ~path ?argv ?env ?(max_steps = 50_000_000) () =
  World.run_until_exit ~max_steps w (offline_spawn w ~path ?argv ?env ());
  Log_store.read w ~app:path

(** Number of unique logged sites for [app] — the Table 2 metric. *)
let unique_sites w ~app = List.length (Log_store.read w ~app)

(** Future-work prototype (Section 7: "combine dynamic and static
    analysis to reliably identify syscall/sysenter instructions during
    the offline phase"): augment the offline logs with sites found by
    a static linear sweep over the program's loaded images.

    This widens fast-path coverage for programs without good benchmark
    suites, but it re-imports static disassembly's misidentification
    risk (P3a): a swept "site" inside embedded data passes libK23's
    byte validation — the bytes genuinely are [0f 05] — and gets
    rewritten.  The trade-off is demonstrated in
    test/test_static_augment.ml; use only on binaries known to keep
    data out of text. *)
let offline_augment_static w ~path () =
  match World.spawn w ~path () with
  | Error e -> failwith (Printf.sprintf "offline_augment_static: spawn failed (%d)" e)
  | Ok p ->
    (* run just past loading so every image is mapped *)
    run ~max_steps:20_000_000 ~until:(fun () -> p.startup_done || proc_dead p) w;
    let entries =
      List.concat_map
        (fun r ->
          let bytes = K23_machine.Memory.read_bytes_raw p.mem r.r_start r.r_len in
          K23_isa.Disasm.find_syscall_sites bytes ~base:0
          |> List.map (fun off -> { Log_store.region = r.r_name; offset = off }))
        (scannable_regions p)
    in
    kill_proc p ~signal:9;
    Log_store.append w ~app:path entries;
    List.length entries

let seal_logs = Log_store.seal

(* ------------------------------------------------------------------ *)
(* Online phase                                                        *)

(** Launch [path] under full K23: ptracer from the first instruction,
    libK23 injected via LD_PRELOAD (enforced), vdso disabled, SUD
    fallback armed.  Returns the process and shared statistics. *)
let launch w ~variant ?inner ~path ?argv ?(env = []) () =
  ktrace_annot w ("mech:k23-" ^ variant_to_string variant);
  let stats = fresh_stats () in
  (* the handler: counting, plus K23's own interception duties *)
  let handler_ref = ref (fun _ ~nr:_ ~args:_ ~site:_ -> Forward) in
  let handler ctx ~nr ~args ~site = !handler_ref ctx ~nr ~args ~site in
  let reattach ctx =
    let p = ctx.thread.t_proc in
    p.tracer <- Some (Ptracer.online_tracer w ~stats ~handler ~lib_path:Libk23.lib_path ());
    p.vdso_enabled <- false
  in
  let k23_duties : handler =
   fun ctx ~nr ~args ~site ->
    if
      nr = Sysno.prctl
      && args.(0) = Sysno.pr_set_syscall_user_dispatch
      && args.(1) = Sysno.pr_sys_dispatch_off
    then begin
      (* P1b guard: an attempt to silently disable SUD-based
         interposition aborts the process (Section 5.2) *)
      stats.aborts <- stats.aborts + 1;
      abort ctx ~why:"K23: attempt to disable SUD-based interposition (P1b)";
      Emulate (Errno.ret Errno.eperm)
    end
    else begin
      if nr = Sysno.execve then
        (* restart the online phase for the new image: re-attach the
           ptracer just before the execve proceeds (Section 5.3) *)
        reattach ctx;
      match inner with Some h -> h ctx ~nr ~args ~site | None -> Forward
    end
  in
  handler_ref := counting_handler ~inner:k23_duties stats;
  register_library w (Libk23.image ~variant ~handler ~stats ());
  let env = add_preload env Libk23.lib_path in
  let tracer = Ptracer.online_tracer w ~stats ~handler ~lib_path:Libk23.lib_path () in
  match World.spawn w ~path ?argv ~env ~tracer ~vdso:false () with
  | Ok p -> Ok (p, stats)
  | Error e -> Error e

(** Introspection for tests and benchmarks. *)
let rewritten_sites (p : proc) = (Libk23.get_state p).rewritten

let startup_handed_over (p : proc) = (Libk23.get_state p).startup_from_ptracer

let check_memory_bytes (p : proc) = Robin_set.memory_bytes (Libk23.get_state p).valid
