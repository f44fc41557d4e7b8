(* Quickstart: interpose every system call of a program with K23.

   Run with:  dune exec examples/quickstart.exe

   The flow is the paper's Figure 2 + Figure 4 end to end:
   1. build a world (simulated machine + kernel + userland),
   2. register an application binary,
   3. offline phase: run it under libLogger to learn its syscall sites,
   4. seal the logs,
   5. online phase: ptracer covers startup, libK23 rewrites the logged
      sites and arms the SUD fallback,
   6. every application system call reaches your handler. *)

open K23_isa
open K23_kernel
open K23_userland
module K23 = K23_core.K23

(* A small program: greets, reads a file, exits. *)
let app =
  [
    Asm.Label "main";
    Asm.I (Insn.Mov_ri (RDI, 1));
    Asm.Mov_sym (Reg.RSI, "greeting");
    Asm.I (Insn.Mov_ri (RDX, 30));
    Asm.Call_sym "write";
    Asm.I (Insn.Mov_ri (RDI, -100));
    Asm.Mov_sym (Reg.RSI, "cfg");
    Asm.I (Insn.Mov_ri (RDX, 0));
    Asm.Call_sym "openat";
    Asm.I (Insn.Mov_rr (RDI, RAX));
    Asm.Call_sym "close";
    Asm.I (Insn.Xor_rr (RDI, RDI));
    Asm.Call_sym "exit";
    Asm.Section `Data;
    Asm.Label "greeting";
    Asm.Strz "hello from the simulated app!\n";
    Asm.Label "cfg";
    Asm.Strz "/etc/hostname";
  ]

let () =
  (* 1-2: world + app *)
  let w = Sim.create_world () in
  ignore (Sim.register_app w ~path:"/bin/demo" app);

  (* 3-4: offline phase *)
  let entries = K23.offline_run w ~path:"/bin/demo" () in
  Printf.printf "offline phase logged %d unique syscall sites:\n" (List.length entries);
  List.iter
    (fun e -> Printf.printf "  %s,%d\n" e.K23_core.Log_store.region e.K23_core.Log_store.offset)
    entries;
  K23.seal_logs w;

  (* 5-6: online phase with a handler that watches openat *)
  let inner : K23_interpose.Interpose.handler =
   fun ctx ~nr ~args ~site:_ ->
    if nr = Sysno.openat then
      Printf.printf "handler: app opens %S\n"
        (K23_machine.Memory.read_cstr ctx.thread.t_proc.mem args.(1));
    Forward
  in
  match K23.launch w ~variant:K23.Ultra ~inner ~path:"/bin/demo" () with
  | Error e -> Printf.eprintf "launch failed: %d\n" e
  | Ok (p, stats) ->
    World.run_until_exit w p;
    Printf.printf "\napp stdout: %s" (World.stdout_of p);
    Printf.printf "\nexhaustiveness: %d app syscalls, %d interposed%s\n" p.counters.c_app
      stats.interposed
      (if p.counters.c_app = stats.interposed then "  [exhaustive]" else "  [MISSED SOME]");
    Printf.printf "paths: %d via ptrace (startup), %d via rewritten sites, %d via SUD fallback\n"
      stats.via_ptrace stats.via_rewrite stats.via_sigsys
