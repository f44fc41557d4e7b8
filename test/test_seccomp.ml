(* seccomp substrate: BPF evaluation, kernel integration, the trap
   interposer, and the expressiveness boundary the paper describes. *)

open K23_isa
open K23_kernel
open K23_userland
module Sc = K23_baselines.Seccomp_interposer

(* ---------------- BPF evaluation ---------------- *)

let data ?(nr = 0) ?(ip = 0) ?(args = [| 0; 0; 0; 0; 0; 0 |]) () =
  { Bpf.nr; arch = 0xc000003e; ip; args }

let action =
  Alcotest.testable
    (fun fmt a ->
      Format.pp_print_string fmt
        (match a with
        | Bpf.Allow -> "allow"
        | Bpf.Errno e -> Printf.sprintf "errno %d" e
        | Bpf.Trap -> "trap"
        | Bpf.Kill -> "kill"
        | Bpf.Log -> "log"))
    ( = )

let test_policy_builder () =
  let f = Bpf.policy ~default:Bpf.Allow [ (Sysno.execve, Bpf.Errno Errno.eperm); (62, Bpf.Kill) ] in
  Alcotest.check action "execve -> EPERM" (Bpf.Errno Errno.eperm)
    (Bpf.eval f (data ~nr:Sysno.execve ()));
  Alcotest.check action "kill -> Kill" Bpf.Kill (Bpf.eval f (data ~nr:62 ()));
  Alcotest.check action "rest allowed" Bpf.Allow (Bpf.eval f (data ~nr:Sysno.read ()))

let test_ip_range_filter () =
  let f = Bpf.trap_outside_ip_range ~lo:0x7000 ~hi:0x8000 in
  Alcotest.check action "below traps" Bpf.Trap (Bpf.eval f (data ~ip:0x6fff ()));
  Alcotest.check action "inside allows" Bpf.Allow (Bpf.eval f (data ~ip:0x7800 ()));
  Alcotest.check action "boundary lo allows" Bpf.Allow (Bpf.eval f (data ~ip:0x7000 ()));
  Alcotest.check action "boundary hi traps" Bpf.Trap (Bpf.eval f (data ~ip:0x8000 ()))

let test_arg_filter () =
  let f = Bpf.arg_equals ~nr:Sysno.write ~arg:0 ~value:1 ~mismatch:(Bpf.Errno Errno.eacces) in
  Alcotest.check action "write(1,..) ok" Bpf.Allow
    (Bpf.eval f (data ~nr:Sysno.write ~args:[| 1; 0; 0; 0; 0; 0 |] ()));
  Alcotest.check action "write(2,..) denied" (Bpf.Errno Errno.eacces)
    (Bpf.eval f (data ~nr:Sysno.write ~args:[| 2; 0; 0; 0; 0; 0 |] ()));
  Alcotest.check action "other syscalls pass" Bpf.Allow (Bpf.eval f (data ~nr:Sysno.read ()))

let test_most_restrictive_wins () =
  let allow_all = Bpf.policy ~default:Bpf.Allow [] in
  let kill_write = Bpf.policy ~default:Bpf.Allow [ (Sysno.write, Bpf.Kill) ] in
  let errno_write = Bpf.policy ~default:Bpf.Allow [ (Sysno.write, Bpf.Errno 1) ] in
  Alcotest.check action "kill beats errno" Bpf.Kill
    (Bpf.eval_all [ errno_write; kill_write; allow_all ] (data ~nr:Sysno.write ()))

let prop_policy_matches_assoc =
  QCheck.Test.make ~name:"policy builder = assoc lookup" ~count:500
    QCheck.(pair (list (pair (int_range 0 50) (int_range 1 30))) (int_range 0 50))
    (fun (rules, nr) ->
      let rules = List.map (fun (n, e) -> (n, Bpf.Errno e)) rules in
      let f = Bpf.policy ~default:Bpf.Allow rules in
      Bpf.eval f (data ~nr ())
      = (match List.assoc_opt nr rules with Some a -> a | None -> Bpf.Allow))

(* ---------------- kernel integration ---------------- *)

let errno_app =
  [
    Asm.Label "main";
    (* getpid; exit with its (possibly filtered) result *)
    Asm.Call_sym "getpid";
    Asm.I (Insn.Cmp_ri (RAX, 0));
    Asm.Jc (Insn.GE, "fine");
    (* negative: return -result as exit code *)
    Asm.I (Insn.Mov_ri (RDI, 0));
    Asm.I (Insn.Sub_rr (RDI, RAX));
    Asm.Call_sym "exit";
    Asm.Label "fine";
    Asm.I (Insn.Xor_rr (RDI, RDI));
    Asm.Call_sym "exit";
  ]

let test_errno_filter () =
  let w = Sim.create_world () in
  ignore (Sim.register_app w ~path:"/bin/sc" errno_app);
  let filters = [ Bpf.policy ~default:Bpf.Allow [ (Sysno.getpid, Bpf.Errno Errno.eperm) ] ] in
  match Sc.launch_filter_only w ~filters ~path:"/bin/sc" () with
  | Error e -> Alcotest.failf "spawn: %d" e
  | Ok p ->
    World.run_until_exit w p;
    Alcotest.(check (option int)) "getpid failed with EPERM" (Some Errno.eperm) p.exit_status

let test_kill_filter () =
  let w = Sim.create_world () in
  ignore (Sim.register_app w ~path:"/bin/sc" errno_app);
  let filters = [ Bpf.policy ~default:Bpf.Allow [ (Sysno.getpid, Bpf.Kill) ] ] in
  match Sc.launch_filter_only w ~filters ~path:"/bin/sc" () with
  | Error e -> Alcotest.failf "spawn: %d" e
  | Ok p ->
    World.run_until_exit w p;
    Alcotest.(check (option int)) "killed by SIGSYS" (Some 31) p.term_signal

let test_trap_interposition_exhaustive () =
  let w = Sim.create_world () in
  ignore (Sim.register_app w ~path:"/bin/sc" errno_app);
  match Sc.launch w ~path:"/bin/sc" () with
  | Error e -> Alcotest.failf "launch: %d" e
  | Ok (p, stats) ->
    World.run_until_exit w p;
    Alcotest.(check (option int)) "exit 0" (Some 0) p.exit_status;
    Alcotest.(check bool) "interposed post-load syscalls" true (stats.interposed >= 2);
    Alcotest.(check int) "all via SIGSYS" stats.interposed stats.via_sigsys

(* The expressiveness boundary: a filter keyed on a pointer argument's
   VALUE cannot distinguish different buffer CONTENTS at the same
   address — precisely why the paper says seccomp "lacks support for
   deep inspection of pointer arguments". *)
let content_app =
  [
    Asm.Label "main";
    (* two writes from the same buffer address, different contents *)
    Asm.I (Insn.Mov_ri (RDI, 1));
    Asm.Mov_sym (Reg.RSI, "buf");
    Asm.I (Insn.Mov_ri (RDX, 5));
    Asm.Call_sym "write";
    Asm.I (Insn.Mov_rr (R14, RAX));
    Asm.Mov_sym (Reg.R9, "buf");
    Asm.I (Insn.Mov_ri (RAX, Char.code 'X'));
    Asm.I (Insn.Store8 (R9, 0, RAX));
    Asm.I (Insn.Mov_ri (RDI, 1));
    Asm.Mov_sym (Reg.RSI, "buf");
    Asm.I (Insn.Mov_ri (RDX, 5));
    Asm.Call_sym "write";
    (* exit 0 iff both writes got the same verdict *)
    Asm.I (Insn.Cmp_rr (RAX, R14));
    Asm.Jc (Insn.Z, "same");
    Asm.I (Insn.Mov_ri (RDI, 1));
    Asm.Call_sym "exit";
    Asm.Label "same";
    Asm.I (Insn.Xor_rr (RDI, RDI));
    Asm.Call_sym "exit";
    Asm.Section `Data;
    Asm.Label "buf";
    Asm.Strz "safe";
  ]

let test_pointer_blindness () =
  let w = Sim.create_world () in
  ignore (Sim.register_app w ~path:"/bin/sc" content_app);
  (* deny writes whose BUFFER POINTER equals the data address?  A
     filter can only see the pointer value, which is identical for
     both writes — so both get the same verdict despite different
     contents. *)
  match Sc.launch_filter_only w ~filters:[ Bpf.policy ~default:Bpf.Allow [] ] ~path:"/bin/sc" ()
  with
  | Error e -> Alcotest.failf "spawn: %d" e
  | Ok p ->
    World.run_until_exit w p;
    Alcotest.(check (option int)) "same verdict for both contents" (Some 0) p.exit_status

let test_filters_survive_fork_and_exec () =
  let w = Sim.create_world () in
  K23_pitfalls.Pocs.register_all w;
  (* deny syscall 500 with ENOSYS->EPERM under the P1a program: the
     fork child execs the target with an empty env; LD_PRELOAD-based
     mechanisms die (P1a) but seccomp filters survive both fork and
     execve *)
  let filters =
    [ Bpf.policy ~default:Bpf.Allow [ (Sysno.bench_nonexistent, Bpf.Errno Errno.eperm) ] ]
  in
  match Sc.launch_filter_only w ~filters ~path:K23_pitfalls.Pocs.p1a_path () with
  | Error e -> Alcotest.failf "spawn: %d" e
  | Ok p ->
    World.run_until_exit w p;
    let child =
      List.find (fun q -> match q.Kern.parent with Some pp -> pp == p | None -> false) w.procs
    in
    Alcotest.(check bool) "child inherited the filter" true (child.seccomp <> []);
    Alcotest.(check (option int))
      "child's 500s hit the filter (counted as EPERM, not ENOSYS)" (Some 1)
      (Option.map (fun _ -> 1) (List.nth_opt child.seccomp 0))

let tests =
  ( "seccomp",
    [
      Alcotest.test_case "policy builder" `Quick test_policy_builder;
      Alcotest.test_case "ip-range filter" `Quick test_ip_range_filter;
      Alcotest.test_case "register-argument filter" `Quick test_arg_filter;
      Alcotest.test_case "most restrictive wins" `Quick test_most_restrictive_wins;
      QCheck_alcotest.to_alcotest prop_policy_matches_assoc;
      Alcotest.test_case "ERRNO filter" `Quick test_errno_filter;
      Alcotest.test_case "KILL filter" `Quick test_kill_filter;
      Alcotest.test_case "TRAP interposition" `Quick test_trap_interposition_exhaustive;
      Alcotest.test_case "pointer blindness (expressiveness)" `Quick test_pointer_blindness;
      Alcotest.test_case "filters survive fork+exec" `Quick test_filters_survive_fork_and_exec;
    ] )
