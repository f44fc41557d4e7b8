(* Dynamic-loader unit tests: preload parsing, dependency resolution,
   stack layout, relocation, and graceful handling of missing
   libraries. *)

open K23_isa
open K23_kernel
open K23_userland

let test_split_preload () =
  Alcotest.(check (list string)) "colon-separated" [ "/a.so"; "/b.so" ]
    (Loader.split_preload "/a.so:/b.so");
  Alcotest.(check (list string)) "empty" [] (Loader.split_preload "");
  Alcotest.(check (list string)) "stray colons" [ "/x.so" ] (Loader.split_preload ":/x.so:")

let test_transitive_deps () =
  let w = Sim.create_world () in
  (* libselinux depends on libpcre (see Stdlibs) *)
  let deps = Loader.transitive_deps w [] [ Stdlibs.libselinux ] in
  Alcotest.(check bool) "direct dep present" true (List.mem Stdlibs.libselinux deps);
  Alcotest.(check bool) "transitive dep pulled in" true (List.mem Stdlibs.libpcre deps);
  (* deduplication *)
  let deps2 = Loader.transitive_deps w [] [ Stdlibs.libselinux; Stdlibs.libpcre ] in
  Alcotest.(check int) "no duplicates"
    (List.length (List.sort_uniq compare deps2))
    (List.length deps2)

(* argc/argv reach main through the System-V-style stack block *)
let argv_app =
  [
    Asm.Label "main";
    (* exit(argc) — argc arrives in rdi *)
    Asm.Call_sym "exit";
  ]

let test_argc_passed () =
  let w = Sim.create_world () in
  ignore (Sim.register_app w ~path:"/bin/argv" argv_app);
  let p = Sim.run_to_exit w ~path:"/bin/argv" ~argv:[ "/bin/argv"; "one"; "two" ] () in
  Alcotest.(check (option int)) "argc = 3" (Some 3) p.exit_status

let argv_read_app =
  [
    Asm.Label "main";
    (* print argv[1] (8 bytes): rsi = argv array *)
    Asm.I (Insn.Load (R14, RSI, 8));
    Asm.I (Insn.Mov_ri (RDI, 1));
    Asm.I (Insn.Mov_rr (RSI, R14));
    Asm.I (Insn.Mov_ri (RDX, 5));
    Asm.Call_sym "write";
    Asm.I (Insn.Xor_rr (RDI, RDI));
    Asm.Call_sym "exit";
  ]

let test_argv_strings_on_stack () =
  let w = Sim.create_world () in
  ignore (Sim.register_app w ~path:"/bin/argv2" argv_read_app);
  let p = Sim.run_to_exit w ~path:"/bin/argv2" ~argv:[ "/bin/argv2"; "hello" ] () in
  Alcotest.(check string) "argv[1] readable" "hello" (World.stdout_of p)

(* a missing dependency degrades gracefully: its openat fails like
   ld.so's search, the program still runs if it never calls into it *)
let test_missing_library_tolerated () =
  let w = Sim.create_world () in
  ignore
    (Sim.register_app w ~path:"/bin/m"
       ~needed:[ Libc.path; "/usr/lib/does-not-exist.so" ]
       [ Asm.Label "main"; Asm.I (Insn.Xor_rr (RDI, RDI)); Asm.Call_sym "exit" ]);
  let p = Sim.run_to_exit w ~path:"/bin/m" () in
  Alcotest.(check (option int)) "still runs" (Some 0) p.exit_status

(* spawn of a non-registered binary fails with ENOENT *)
let test_spawn_missing_binary () =
  let w = Sim.create_world () in
  match World.spawn w ~path:"/bin/nothing" () with
  | Error e -> Alcotest.(check int) "ENOENT" (-Errno.enoent) e
  | Ok _ -> Alcotest.fail "must fail"

(* relocations: Call_sym into libc really lands (write produced
   output), and Mov_sym yields a usable data address — implicitly
   covered everywhere, asserted once explicitly here *)
let test_relocation_end_to_end () =
  let w = Sim.create_world () in
  ignore
    (Sim.register_app w ~path:"/bin/rel"
       [
         Asm.Label "main";
         Asm.Mov_sym (Reg.R14, "blob");
         Asm.I (Insn.Load8 (RDI, R14, 2));  (* third byte: 'C' = 67 *)
         Asm.Call_sym "exit";
         Asm.Section `Data;
         Asm.Label "blob";
         Asm.Strz "ABCD";
       ]);
  let p = Sim.run_to_exit w ~path:"/bin/rel" () in
  Alcotest.(check (option int)) "data reloc resolved" (Some 67) p.exit_status

(* the vdso symbol resolves weakly: binaries link fine with the vdso
   disabled, and clock_gettime falls back to the syscall *)
let test_weak_vdso_symbol () =
  let w = Sim.create_world () in
  ignore
    (Sim.register_app w ~path:"/bin/clk"
       [
         Asm.Label "main";
         Asm.I (Insn.Mov_ri (RDI, 0));
         Asm.Mov_sym (Reg.RSI, "ts");
         Asm.Call_sym "clock_gettime";
         Asm.I (Insn.Mov_rr (RDI, RAX));
         Asm.Call_sym "exit";
         Asm.Section `Data;
         Asm.Label "ts";
         Asm.Zeros 16;
       ]);
  (match World.spawn w ~path:"/bin/clk" ~vdso:false () with
  | Error e -> Alcotest.failf "spawn: %d" e
  | Ok p ->
    World.run_until_exit w p;
    Alcotest.(check (option int)) "fallback syscall path worked" (Some 0) p.exit_status;
    Alcotest.(check int) "no vdso calls" 0 p.counters.c_vdso);
  (* and with the vdso on, the fast path is used *)
  let w2 = Sim.create_world () in
  ignore
    (Sim.register_app w2 ~path:"/bin/clk"
       [
         Asm.Label "main";
         Asm.I (Insn.Mov_ri (RDI, 0));
         Asm.Mov_sym (Reg.RSI, "ts");
         Asm.Call_sym "clock_gettime";
         Asm.I (Insn.Mov_rr (RDI, RAX));
         Asm.Call_sym "exit";
         Asm.Section `Data;
         Asm.Label "ts";
         Asm.Zeros 16;
       ]);
  let p2 = Sim.run_to_exit w2 ~path:"/bin/clk" () in
  Alcotest.(check (option int)) "vdso path worked" (Some 0) p2.exit_status;
  Alcotest.(check int) "one vdso call" 1 p2.counters.c_vdso

let tests =
  ( "loader",
    [
      Alcotest.test_case "LD_PRELOAD parsing" `Quick test_split_preload;
      Alcotest.test_case "transitive dependencies" `Quick test_transitive_deps;
      Alcotest.test_case "argc passed to main" `Quick test_argc_passed;
      Alcotest.test_case "argv strings on the stack" `Quick test_argv_strings_on_stack;
      Alcotest.test_case "missing library tolerated" `Quick test_missing_library_tolerated;
      Alcotest.test_case "spawn of missing binary" `Quick test_spawn_missing_binary;
      Alcotest.test_case "relocation end to end" `Quick test_relocation_end_to_end;
      Alcotest.test_case "weak vdso symbol + fallback" `Quick test_weak_vdso_symbol;
    ] )
