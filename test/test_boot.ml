(* End-to-end boot tests: a hello-world binary runs through the full
   loader pipeline (interpreter syscalls, relocation, constructors,
   main, exit) on the simulated kernel. *)

open K23_isa
open K23_kernel
open K23_userland

let hello_items =
  [
    Asm.Label "main";
    Asm.I (Insn.Mov_ri (RDI, 1));
    Asm.Mov_sym (Reg.RSI, "msg");
    Asm.I (Insn.Mov_ri (RDX, 14));
    Asm.Call_sym "write";
    Asm.I (Insn.Xor_rr (RDI, RDI));
    Asm.Call_sym "exit";
    Asm.Section `Data;
    Asm.Label "msg";
    Asm.Strz "hello, world!\n";
  ]

let boot_hello ?env () =
  let w = Sim.create_world () in
  ignore (Sim.register_app w ~path:"/bin/hello" hello_items);
  let p = Sim.run_to_exit w ~path:"/bin/hello" ?env () in
  (w, p)

let test_hello_runs () =
  let _w, p = boot_hello () in
  Alcotest.(check (option int)) "exit 0" (Some 0) p.exit_status;
  Alcotest.(check string) "stdout" "hello, world!\n" (World.stdout_of p)

let test_startup_syscalls_counted () =
  let _w, p = boot_hello () in
  (* loader boilerplate + per-library sequences + libc constructor all
     happen before main; with no LD_PRELOAD, startup_done is set just
     before entering main *)
  Alcotest.(check bool)
    (Printf.sprintf "many startup syscalls (%d)" p.counters.c_startup)
    true
    (p.counters.c_startup > 20)

let test_ground_truth_counting () =
  let _w, p = boot_hello () in
  (* the write from main and the exit_group must be counted as app
     syscalls after startup *)
  let post_startup = p.counters.c_app - p.counters.c_startup in
  Alcotest.(check bool) "app syscalls after startup" true (post_startup >= 2)

let contains_substring hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let test_maps_has_regions () =
  let _w, p = boot_hello () in
  let maps = Kern.maps_string p in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("maps contains " ^ needle) true (contains_substring maps needle))
    [ "libc.so.6"; "/bin/hello"; "[stack]"; "ld-linux" ]

let test_aslr_offsets_stable () =
  (* two boots: libc base differs, but the offset of the write wrapper
     within libc is identical — the invariant K23's offline logs rely
     on *)
  let base_and_sym seed =
    let w = Sim.create_world ~seed () in
    ignore (Sim.register_app w ~path:"/bin/hello" hello_items);
    let p = Sim.run_to_exit w ~path:"/bin/hello" () in
    let r =
      List.find (fun r -> r.Kern.r_name = Libc.path && r.Kern.r_sec = `Text) p.regions
    in
    let sym = Hashtbl.find p.globals "write" in
    (r.Kern.r_start, sym - r.Kern.r_start)
  in
  let b1, o1 = base_and_sym 1 in
  let b2, o2 = base_and_sym 2 in
  Alcotest.(check bool) "bases differ under ASLR" true (b1 <> b2);
  Alcotest.(check int) "offsets stable" o1 o2

let test_vdso_mapped_by_default () =
  let _w, p = boot_hello () in
  Alcotest.(check bool) "vdso region present" true
    (List.exists (fun r -> r.Kern.r_owner = Kern.Vdso) p.regions)

let test_env_passed () =
  let _w, p = boot_hello ~env:[ "FOO=bar"; "LD_PRELOAD=" ] () in
  Alcotest.(check (option string)) "env visible" (Some "bar") (List.assoc_opt "FOO" p.env)

(* a program with two threads via clone(): both run and exit *)
let threads_items =
  [
    Asm.Label "main";
    (* clone(child, stack, arg) *)
    Asm.Mov_sym (Reg.RDI, "child");
    Asm.I (Insn.Mov_ri (RSI, 0x7ff0_0000));
    Asm.I (Insn.Mov_ri (RDX, 7));
    Asm.Call_sym "clone";
    (* parent: wait a bit, then check the flag the child set *)
    Asm.Label "spin";
    Asm.Call_sym "sched_yield";
    Asm.Mov_sym (Reg.R9, "flag");
    Asm.I (Insn.Load (RAX, R9, 0));
    Asm.I (Insn.Cmp_ri (RAX, 1));
    Asm.Jc (Insn.NZ, "spin");
    Asm.I (Insn.Xor_rr (RDI, RDI));
    Asm.Call_sym "exit";
    Asm.Label "child";
    Asm.Mov_sym (Reg.R9, "flag");
    Asm.I (Insn.Mov_ri (RAX, 1));
    Asm.I (Insn.Store (R9, 0, RAX));
    Asm.I (Insn.Xor_rr (RDI, RDI));
    Asm.Call_sym "exit_thread";
    Asm.Section `Data;
    Asm.Label "flag";
    Asm.Quad 0;
  ]

let test_threads () =
  let w = Sim.create_world () in
  (* the clone child needs a stack: map one eagerly via a tiny init — here
     we just reuse a high scratch address; give it a page *)
  ignore (Sim.register_app w ~path:"/bin/threads" threads_items);
  match World.spawn w ~path:"/bin/threads" () with
  | Error e -> Alcotest.failf "spawn: %d" e
  | Ok p ->
    (* pre-map the child stack region the program hardcodes *)
    K23_machine.Memory.map p.mem ~addr:0x7fef_0000 ~len:0x10000 ~perm:K23_machine.Memory.perm_rw;
    World.run_until_exit w p;
    Alcotest.(check (option int)) "exit 0" (Some 0) p.exit_status

(* fork + wait4 *)
let fork_items =
  [
    Asm.Label "main";
    Asm.Call_sym "fork";
    Asm.I (Insn.Test_rr (RAX, RAX));
    Asm.Jc (Insn.Z, "in_child");
    (* parent: wait4(-1, 0, 0, 0) *)
    Asm.I (Insn.Mov_ri (RDI, -1));
    Asm.I (Insn.Xor_rr (RSI, RSI));
    Asm.I (Insn.Xor_rr (RDX, RDX));
    Asm.Call_sym "wait4";
    Asm.I (Insn.Mov_ri (RDI, 0));
    Asm.Call_sym "exit";
    Asm.Label "in_child";
    Asm.I (Insn.Mov_ri (RDI, 7));
    Asm.Call_sym "exit";
  ]

let test_fork_wait () =
  let w = Sim.create_world () in
  ignore (Sim.register_app w ~path:"/bin/forker" fork_items);
  let p = Sim.run_to_exit w ~path:"/bin/forker" () in
  Alcotest.(check (option int)) "parent exit 0" (Some 0) p.exit_status;
  let child =
    List.find (fun q -> match q.Kern.parent with Some pp -> pp == p | None -> false) w.procs
  in
  Alcotest.(check (option int)) "child exit 7" (Some 7) child.exit_status

let tests =
  ( "boot",
    [
      Alcotest.test_case "hello world" `Quick test_hello_runs;
      Alcotest.test_case "startup syscalls (P2b substrate)" `Quick test_startup_syscalls_counted;
      Alcotest.test_case "ground-truth counters" `Quick test_ground_truth_counting;
      Alcotest.test_case "maps content" `Quick test_maps_has_regions;
      Alcotest.test_case "ASLR: bases move, offsets stable" `Quick test_aslr_offsets_stable;
      Alcotest.test_case "vdso mapped by default" `Quick test_vdso_mapped_by_default;
      Alcotest.test_case "environment passing" `Quick test_env_passed;
      Alcotest.test_case "threads via clone" `Quick test_threads;
      Alcotest.test_case "fork + wait4" `Quick test_fork_wait;
    ] )
