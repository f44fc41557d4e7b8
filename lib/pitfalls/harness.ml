(** Pitfall harness: runs every PoC under zpoline, lazypoline and K23
    and classifies the outcome — regenerating the paper's Table 3.

    "Handled" means the pitfall does not manifest: either the
    interposer is immune by design, or it detects the attempt and
    fails safe (abort), matching the paper's ✓/✗ semantics. *)

open K23_kernel
open K23_userland
module I = K23_interpose.Interpose
module Zp = K23_baselines.Zpoline
module K23 = K23_core.K23
module Mech = K23_eval.Mech
module Session = K23_eval.Session

type pitfall = P1a | P1b | P2a | P2b | P3a | P3b | P4a | P4b | P5

let all_pitfalls = [ P1a; P1b; P2a; P2b; P3a; P3b; P4a; P4b; P5 ]

let pitfall_to_string = function
  | P1a -> "P1a"
  | P1b -> "P1b"
  | P2a -> "P2a"
  | P2b -> "P2b"
  | P3a -> "P3a"
  | P3b -> "P3b"
  | P4a -> "P4a"
  | P4b -> "P4b"
  | P5 -> "P5"

let pitfall_description = function
  | P1a -> "interposition bypass via LD_PRELOAD scrubbing"
  | P1b -> "interposition bypass via prctl(PR_SYS_DISPATCH_OFF)"
  | P2a -> "system call overlook: late-appearing code"
  | P2b -> "system call overlook: startup window + vdso"
  | P3a -> "misidentification by static disassembly"
  | P3b -> "attack-induced misidentification"
  | P4a -> "NULL execution silently misdirected"
  | P4b -> "NULL-check memory overhead"
  | P5 -> "runtime rewriting races"

type system = Zpoline | Lazypoline | K23_sys

let all_systems = [ Zpoline; Lazypoline; K23_sys ]

let system_to_string = function
  | Zpoline -> "zpoline"
  | Lazypoline -> "lazypoline"
  | K23_sys -> "K23"

type verdict = { handled : bool; detail : string }

(* --- plumbing ------------------------------------------------------- *)

(* the hardened variant of each system *)
let mech_of = function
  | Zpoline -> Mech.Zpoline_ultra
  | Lazypoline -> Mech.Lazypoline
  | K23_sys -> Mech.K23_ultra

(** Run one PoC under one system, as a {!Session}: for K23, the offline
    phase runs first with benign arguments, then the logs are
    sealed. *)
let run_poc sys ?predecode ~path ?argv ?quantum () =
  let w = Sim.create_world ?quantum ?predecode () in
  Pocs.register_all w;
  match Session.run ?argv ~max_steps:30_000_000 w ~mech:(mech_of sys) ~path with
  | Error e -> failwith (Printf.sprintf "PoC %s failed to launch: %d" path e)
  | Ok (p, stats, _) -> (p, Option.get stats)

let count_500 (stats : I.stats) =
  Option.value ~default:0 (Hashtbl.find_opt stats.by_nr Sysno.bench_nonexistent)

let exit_desc (p : Kern.proc) =
  match (p.exit_status, p.term_signal) with
  | Some s, _ -> Printf.sprintf "exit %d" s
  | None, Some 6 -> "aborted (SIGABRT)"
  | None, Some 4 -> "killed (SIGILL)"
  | None, Some 11 -> "killed (SIGSEGV)"
  | None, Some s -> Printf.sprintf "killed (signal %d)" s
  | None, None -> "did not terminate"

(* --- the checks ----------------------------------------------------- *)

let check ?predecode sys pitfall : verdict =
  match pitfall with
  | P1a ->
    let _, stats = run_poc sys ?predecode ~path:Pocs.p1a_path () in
    let n = count_500 stats in
    {
      handled = n >= 10;
      detail =
        Printf.sprintf "%d/10 syscalls of the execve'd (empty-env) child interposed" n;
    }
  | P1b ->
    let _, stats = run_poc sys ?predecode ~path:Pocs.p1b_path () in
    let n = count_500 stats in
    if stats.aborts > 0 then
      { handled = true; detail = "prctl(PR_SYS_DISPATCH_OFF) detected; process aborted" }
    else
      {
        handled = n >= 10;
        detail = Printf.sprintf "%d/10 post-disable syscalls interposed" n;
      }
  | P2a ->
    let _, stats = run_poc sys ?predecode ~path:Pocs.p2a_path () in
    let n = count_500 stats in
    {
      handled = n >= 10;
      detail = Printf.sprintf "%d/10 syscalls from JIT-style code interposed" n;
    }
  | P2b ->
    let p, stats = run_poc sys ?predecode ~path:Pocs.p2b_path () in
    let missed = p.counters.c_app - stats.interposed in
    {
      handled = missed = 0 && p.counters.c_vdso = 0;
      detail =
        Printf.sprintf "%d syscalls missed (startup window %d); %d vdso calls bypassed"
          missed p.counters.c_startup p.counters.c_vdso;
    }
  | P3a ->
    let p, _ = run_poc sys ?predecode ~path:Pocs.p3a_path () in
    {
      handled = p.exit_status = Some 0;
      detail =
        (match p.exit_status with
        | Some 0 -> "embedded data intact"
        | Some 1 -> "embedded data corrupted by rewriting"
        | _ -> exit_desc p);
    }
  | P3b ->
    let p, _ =
      run_poc sys ?predecode ~path:Pocs.p3b_path ~argv:[ Pocs.p3b_path; "attack" ] ()
    in
    {
      handled = p.exit_status = Some 0;
      detail =
        (match p.exit_status with
        | Some 0 -> "partial instruction intact after hijack"
        | Some 1 -> "partial instruction corrupted by runtime rewriting"
        | _ -> exit_desc p);
    }
  | P4a ->
    let p, stats =
      run_poc sys ?predecode ~path:Pocs.p4a_path ~argv:[ Pocs.p4a_path; "attack" ] ()
    in
    if stats.aborts > 0 && p.term_signal = Some 6 then
      { handled = true; detail = "NULL execution detected; process aborted" }
    else if p.exit_status = Some 0 then
      { handled = false; detail = "NULL call silently misdirected into the trampoline" }
    else { handled = true; detail = exit_desc p }
  | P4b ->
    let p, _ = run_poc sys ?predecode ~path:Pocs.target_path () in
    let reserved, resident, desc =
      match sys with
      | Zpoline ->
        let r, c = Zp.check_memory_bytes p in
        (r, c, "address-space bitmap")
      | Lazypoline -> (0, 0, "no validation state (and no check)")
      | K23_sys ->
        let b = K23.check_memory_bytes p in
        (b, b, "Robin-Hood hash set")
    in
    {
      handled = reserved < (1 lsl 20);
      detail =
        Printf.sprintf "%s: %d bytes reserved, %d resident" desc reserved resident;
    }
  | P5 ->
    let p, _ = run_poc sys ?predecode ~path:Pocs.p5_path ~quantum:1 () in
    {
      handled = p.exit_status = Some 0;
      detail =
        (match (p.exit_status, p.term_signal) with
        | Some 0, _ -> "concurrent first executions completed safely"
        | _, Some 4 -> "torn 2-byte rewrite executed: SIGILL"
        | _ -> exit_desc p);
    }

(* --- Table 3 -------------------------------------------------------- *)

(** The paper's Table 3, as ground truth for tests and the bench
    harness. *)
let paper_expectation sys pitfall =
  match (sys, pitfall) with
  | Zpoline, (P1b | P3b | P4a | P5) -> true
  | Zpoline, (P1a | P2a | P2b | P3a | P4b) -> false
  | Lazypoline, (P2a | P3a | P4b) -> true
  | Lazypoline, (P1a | P1b | P2b | P3b | P4a | P5) -> false
  | K23_sys, _ -> true

type row = { pitfall : pitfall; verdicts : (system * verdict) list }

let run_table3 () =
  List.map
    (fun pf -> { pitfall = pf; verdicts = List.map (fun s -> (s, check s pf)) all_systems })
    all_pitfalls

let render_table3 rows =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "%-5s %-12s %-12s %-12s  (paper: z/l/K)\n" "" "zpoline" "lazypoline" "K23");
  List.iter
    (fun { pitfall; verdicts } ->
      let mark sys =
        let v = List.assoc sys verdicts in
        if v.handled then "Y" else "x"
      in
      let paper sys = if paper_expectation sys pitfall then "Y" else "x" in
      Buffer.add_string buf
        (Printf.sprintf "%-5s %-12s %-12s %-12s  (%s/%s/%s)  %s\n" (pitfall_to_string pitfall)
           (mark Zpoline) (mark Lazypoline) (mark K23_sys) (paper Zpoline) (paper Lazypoline)
           (paper K23_sys) (pitfall_description pitfall)))
    rows;
  Buffer.contents buf
