(* Integration tests: each baseline interposer drives the counting
   handler over a small application; interposed counts are compared
   against kernel ground truth. *)

open K23_isa
open K23_kernel
open K23_userland
module I = K23_interpose.Interpose
module Zp = K23_baselines.Zpoline
module Mech = K23_eval.Mech

(* A program that issues [n] inlined syscall-500s plus write+exit via
   libc. *)
let bench_app n =
  [
    Asm.Label "main";
    Asm.I (Insn.Mov_ri (R13, n));
    Asm.Label "loop";
    Asm.I (Insn.Mov_ri (RAX, Sysno.bench_nonexistent));
    Asm.I Insn.Syscall;
    Asm.I (Insn.Sub_ri (R13, 1));
    Asm.Jc (Insn.NZ, "loop");
    Asm.I (Insn.Mov_ri (RDI, 1));
    Asm.Mov_sym (Reg.RSI, "m");
    Asm.I (Insn.Mov_ri (RDX, 3));
    Asm.Call_sym "write";
    Asm.I (Insn.Xor_rr (RDI, RDI));
    Asm.Call_sym "exit";
    Asm.Section `Data;
    Asm.Label "m";
    Asm.Strz "ok\n";
  ]

let world_with_app ?seed n =
  let w = Sim.create_world ?seed () in
  ignore (Sim.register_app w ~path:"/bin/bench" (bench_app n));
  w

let post_startup_syscalls (p : Kern.proc) = p.counters.c_app - p.counters.c_startup

let test_zpoline_interposes () =
  let w = world_with_app 50 in
  match Mech.launch Mech.Zpoline_default w ~path:"/bin/bench" () with
  | Error e -> Alcotest.failf "launch: %d" e
  | Ok (p, stats) ->
    let stats = Option.get stats in
    World.run_until_exit w p;
    Alcotest.(check (option int)) "exit 0" (Some 0) p.exit_status;
    Alcotest.(check string) "stdout" "ok\n" (World.stdout_of p);
    (* zpoline interposes the app's post-startup syscalls... *)
    Alcotest.(check bool)
      (Printf.sprintf "interposed %d >= 52" stats.interposed)
      true (stats.interposed >= 52);
    (* ...entirely through the rewritten fast path *)
    Alcotest.(check int) "no SIGSYS path" 0 stats.via_sigsys;
    (* ...but misses every startup syscall (P2b) *)
    Alcotest.(check bool)
      (Printf.sprintf "startup blind spot: %d missed" p.counters.c_startup)
      true
      (p.counters.c_startup > 20)

let test_zpoline_ultra_null_check () =
  let w = world_with_app 5 in
  match Mech.launch Mech.Zpoline_ultra w ~path:"/bin/bench" () with
  | Error e -> Alcotest.failf "launch: %d" e
  | Ok (p, stats) ->
    let stats = Option.get stats in
    World.run_until_exit w p;
    Alcotest.(check (option int)) "exit 0" (Some 0) p.exit_status;
    Alcotest.(check int) "no aborts on legitimate sites" 0 stats.aborts;
    let reserved, committed = Zp.check_memory_bytes p in
    Alcotest.(check bool) "bitmap reserves 2^45 bytes (P4b)" true (reserved = 1 lsl 45);
    Alcotest.(check bool) "committed pages are small" true (committed < 1 lsl 20)

let test_lazypoline_interposes () =
  let w = world_with_app 50 in
  match Mech.launch Mech.Lazypoline w ~path:"/bin/bench" () with
  | Error e -> Alcotest.failf "launch: %d" e
  | Ok (p, stats) ->
    let stats = Option.get stats in
    World.run_until_exit w p;
    Alcotest.(check (option int)) "exit 0" (Some 0) p.exit_status;
    Alcotest.(check bool)
      (Printf.sprintf "interposed %d >= 52" stats.interposed)
      true (stats.interposed >= 52);
    (* first execution of each site goes through SIGSYS, the rest are
       rewritten *)
    Alcotest.(check bool) "some SIGSYS discoveries" true (stats.via_sigsys >= 1);
    Alcotest.(check bool)
      (Printf.sprintf "fast path dominates (%d rewrites vs %d traps)" stats.via_rewrite
         stats.via_sigsys)
      true
      (stats.via_rewrite > stats.via_sigsys)

let test_sud_interposes () =
  let w = world_with_app 50 in
  match Mech.launch Mech.Sud w ~path:"/bin/bench" () with
  | Error e -> Alcotest.failf "launch: %d" e
  | Ok (p, stats) ->
    let stats = Option.get stats in
    World.run_until_exit w p;
    Alcotest.(check (option int)) "exit 0" (Some 0) p.exit_status;
    Alcotest.(check bool) "interposed" true (stats.interposed >= 52);
    Alcotest.(check int) "all via SIGSYS" stats.interposed stats.via_sigsys

let test_ptrace_interposes_everything () =
  let w = world_with_app 50 in
  match Mech.launch Mech.Ptrace w ~path:"/bin/bench" () with
  | Error e -> Alcotest.failf "launch: %d" e
  | Ok (p, stats) ->
    let stats = Option.get stats in
    World.run_until_exit w p;
    Alcotest.(check (option int)) "exit 0" (Some 0) p.exit_status;
    (* ptrace sees every app syscall including the startup window:
       exhaustiveness means interposed = ground truth *)
    Alcotest.(check int) "exhaustive" p.counters.c_app stats.interposed;
    Alcotest.(check bool) "startup window covered" true (p.counters.c_startup > 20)

(* Deep argument inspection: the handler reads the buffer passed to
   write(2) out of the target's memory — the expressiveness that
   seccomp-style filters lack. *)
let test_argument_inspection () =
  let w = world_with_app 1 in
  let seen = ref "" in
  let inner : I.handler =
   fun ctx ~nr ~args ~site:_ ->
    if nr = Sysno.write then
      seen := K23_machine.Memory.read_cstr ctx.thread.t_proc.mem args.(1);
    I.Forward
  in
  (match Mech.launch Mech.Zpoline_default w ~inner ~path:"/bin/bench" () with
  | Error e -> Alcotest.failf "launch: %d" e
  | Ok (p, _) -> World.run_until_exit w p);
  Alcotest.(check string) "handler saw the write buffer" "ok\n" !seen

(* Emulation: the handler rewrites the result of syscall 500 without
   entering the kernel. *)
let emulate_app =
  [
    Asm.Label "main";
    Asm.I (Insn.Mov_ri (RAX, Sysno.bench_nonexistent));
    Asm.I Insn.Syscall;
    (* exit with the (emulated) syscall result as status *)
    Asm.I (Insn.Mov_rr (RDI, RAX));
    Asm.Call_sym "exit";
  ]

let test_emulation () =
  let w = Sim.create_world () in
  ignore (Sim.register_app w ~path:"/bin/emu" emulate_app);
  let inner : I.handler =
   fun _ ~nr ~args:_ ~site:_ -> if nr = Sysno.bench_nonexistent then I.Emulate 42 else I.Forward
  in
  (match Mech.launch Mech.Zpoline_default w ~inner ~path:"/bin/emu" () with
  | Error e -> Alcotest.failf "launch: %d" e
  | Ok (p, _) ->
    World.run_until_exit w p;
    Alcotest.(check (option int)) "emulated result becomes exit code" (Some 42) p.exit_status)

let test_emulation_sud () =
  let w = Sim.create_world () in
  ignore (Sim.register_app w ~path:"/bin/emu" emulate_app);
  let inner : I.handler =
   fun _ ~nr ~args:_ ~site:_ -> if nr = Sysno.bench_nonexistent then I.Emulate 42 else I.Forward
  in
  match Mech.launch Mech.Sud w ~inner ~path:"/bin/emu" () with
  | Error e -> Alcotest.failf "launch: %d" e
  | Ok (p, _) ->
    World.run_until_exit w p;
    Alcotest.(check (option int)) "emulated via SIGSYS path" (Some 42) p.exit_status

(* A wild jump into page 0 with an unmapped stack: natively the fetch
   faults; under a trampoline the jump lands in the nop sled and the
   trampoline's entry host function faults reading the return slot.
   Either way the program dies of SIGSEGV, and under a trampoline the
   fault is reported at the entry vcall. *)
let wild_jump_app =
  [
    Asm.Label "main";
    Asm.I (Insn.Mov_ri (RSP, 0x1234_0000));
    Asm.I (Insn.Xor_rr (RAX, RAX));
    Asm.I (Insn.Jmp_reg RAX);
  ]

let test_host_function_fault () =
  List.iter
    (fun mech ->
      let name = Mech.to_string mech in
      let w = Sim.create_world () in
      ignore (Sim.register_app w ~path:"/bin/wild" wild_jump_app);
      match K23_eval.Session.run ~sink:K23_eval.Session.Bounded w ~mech ~path:"/bin/wild" with
      | Error e -> Alcotest.failf "%s: launch %d" name e
      | Ok (p, _, { K23_eval.Session.events; _ }) ->
        Alcotest.(check string) (name ^ " fate") "killed 11"
          (K23_eval.Session.fate_to_string (K23_eval.Session.fate_of_proc p));
        if mech <> Mech.Native then
          Alcotest.(check bool) (name ^ " faults at the trampoline entry") true
            (List.exists
               (fun (e : K23_obs.Event.t) ->
                 e.ev_payload
                 = K23_obs.Event.Fault
                     { access = "R"; addr = 0x1234_0000; rip = I.trampoline_entry })
               events))
    Mech.[ Native; Zpoline_default; Zpoline_ultra; Lazypoline; K23_default; K23_ultra ]

(* Every exec maps libc, the stub libraries, ld.so and the vdso by
   sharing page buffers split once per domain, and every fresh mapping
   shares one zero buffer.  zpoline, lazypoline and K23 rewrite libc's
   syscall sites in their processes; each rewrite must land in a copy
   of the page it touches, so the shared images, their splits and the
   zero buffer still equal a fresh assembly afterwards. *)
let test_shared_pages_stay_pristine () =
  let module M = K23_machine.Memory in
  let fresh_libc = Asm.assemble Libc.items in
  List.iter
    (fun mech ->
      let name = Mech.to_string mech in
      let w = world_with_app 5 in
      match K23_eval.Session.run ~sink:K23_eval.Session.Bounded w ~mech ~path:"/bin/bench" with
      | Error e -> Alcotest.failf "%s: launch %d" name e
      | Ok (p, _, _) ->
        Alcotest.(check (option int)) (name ^ " exit 0") (Some 0) p.exit_status;
        let text, _ = Hashtbl.find p.image_bases Libc.path in
        let len = Bytes.length fresh_libc.text in
        Alcotest.(check bool) (name ^ " rewrote its libc") false
          (Bytes.equal fresh_libc.text (M.read_bytes_raw p.mem text len)))
    Mech.[ Zpoline_default; Lazypoline; K23_default ];
  let same_split what bytes =
    let frames = Mapper.frames_of bytes in
    Alcotest.(check bool) (what ^ " split once") true (frames == Mapper.frames_of bytes);
    let m = M.create () in
    M.map_frames m ~addr:0 ~perm:M.perm_r frames;
    let padded = M.align_up (max 1 (Bytes.length bytes)) in
    Alcotest.(check string) (what ^ " split")
      (Bytes.to_string bytes ^ String.make (padded - Bytes.length bytes) '\000')
      (Bytes.to_string (M.read_bytes_raw m 0 padded))
  in
  let same_image (im : Kern.image) (fresh : Kern.image) =
    let what = im.im_name in
    Alcotest.(check string) (what ^ " text") (Bytes.to_string fresh.im_prog.text)
      (Bytes.to_string im.im_prog.text);
    Alcotest.(check string) (what ^ " data") (Bytes.to_string fresh.im_prog.data)
      (Bytes.to_string im.im_prog.data);
    same_split (what ^ " text") im.im_prog.text;
    same_split (what ^ " data") im.im_prog.data
  in
  let once what get = Alcotest.(check bool) (what ^ " built once") true (get () == get ()) in
  once "libc" Libc.image;
  once "stubs" Stdlibs.all;
  List.iter
    (fun isa ->
      once "ld.so" (fun () -> Loader.ldso_image isa);
      once "vdso" (fun () -> Loader.vdso_image isa))
    K23_isa.Isa.[ X86_64; Arm64 ];
  same_image (Libc.image ()) { (Libc.build ()) with im_prog = fresh_libc };
  List.iter2 same_image (Stdlibs.all ()) (Stdlibs.build ());
  List.iter
    (fun isa ->
      same_image (Loader.ldso_image isa) (Loader.build_ldso isa);
      same_image (Loader.vdso_image isa) (Loader.build_vdso isa))
    K23_isa.Isa.[ X86_64; Arm64 ];
  let m = M.create () in
  M.map m ~addr:0 ~len:M.page_size ~perm:M.perm_r;
  Alcotest.(check string) "zero buffer still zero" (String.make M.page_size '\000')
    (Bytes.to_string (M.read_bytes_raw m 0 M.page_size))

let tests =
  ( "interposers",
    [
      Alcotest.test_case "zpoline interposes (fast path only)" `Quick test_zpoline_interposes;
      Alcotest.test_case "zpoline-ultra bitmap (P4b numbers)" `Quick test_zpoline_ultra_null_check;
      Alcotest.test_case "lazypoline trap-then-rewrite" `Quick test_lazypoline_interposes;
      Alcotest.test_case "SUD interposes everything post-init" `Quick test_sud_interposes;
      Alcotest.test_case "ptrace is exhaustive (incl. startup)" `Quick test_ptrace_interposes_everything;
      Alcotest.test_case "deep argument inspection" `Quick test_argument_inspection;
      Alcotest.test_case "emulation via rewrite path" `Quick test_emulation;
      Alcotest.test_case "emulation via SIGSYS path" `Quick test_emulation_sud;
      Alcotest.test_case "guest fault in a host function is SIGSEGV" `Quick
        test_host_function_fault;
      Alcotest.test_case "rewrites leave the shared images and zero page intact" `Quick
        test_shared_pages_stay_pristine;
    ] )
