(** Proof-of-Concept programs for the System Call Interposition
    Pitfalls (Section 4).  Each PoC is a small binary for the simulated
    machine; {!Harness} runs them under each interposer and classifies
    the outcome into the paper's Table 3. *)

open K23_isa
open K23_kernel

(* ------------------------------------------------------------------ *)
(* Shared target: 10 invocations of the non-existent syscall 500, then
   write+exit. *)

let target_path = "/bin/poc_target"

let target_items =
  [
    Asm.Label "main";
    Asm.I (Insn.Mov_ri (R13, 10));
    Asm.Label "t_loop";
    Asm.I (Insn.Mov_ri (RAX, Sysno.bench_nonexistent));
    Asm.I Insn.Syscall;
    Asm.I (Insn.Sub_ri (R13, 1));
    Asm.Jc (Insn.NZ, "t_loop");
    Asm.I (Insn.Xor_rr (RDI, RDI));
    Asm.Call_sym "exit";
  ]

(* ------------------------------------------------------------------ *)
(* P1a — interposition bypass via environment scrubbing (Listing 1):
   fork, then execve the target with an empty environment. *)

let p1a_path = "/bin/poc_p1a"

let p1a_items =
  [
    Asm.Label "main";
    Asm.Call_sym "fork";
    Asm.I (Insn.Test_rr (RAX, RAX));
    Asm.Jc (Insn.Z, "child");
    (* parent: wait for the child, then exit 0 *)
    Asm.I (Insn.Mov_ri (RDI, -1));
    Asm.I (Insn.Xor_rr (RSI, RSI));
    Asm.I (Insn.Xor_rr (RDX, RDX));
    Asm.Call_sym "wait4";
    Asm.I (Insn.Xor_rr (RDI, RDI));
    Asm.Call_sym "exit";
    Asm.Label "child";
    (* execve("/bin/poc_target", argv, envp = { NULL }): LD_PRELOAD is
       not inherited — Listing 1 of the paper *)
    Asm.Mov_sym (Reg.RDI, "tpath");
    Asm.Mov_sym (Reg.RSI, "argvv");
    Asm.I (Insn.Xor_rr (RDX, RDX));  (* envp = NULL *)
    Asm.Call_sym "execve";
    Asm.I (Insn.Mov_ri (RDI, 9));
    Asm.Call_sym "exit";
    Asm.Section `Data;
    Asm.Label "tpath";
    Asm.Strz target_path;
    Asm.Label "argvv";
    Asm.Quad 0;
  ]

(* ------------------------------------------------------------------ *)
(* P1b — disable SUD-based interposition via prctl (Listing 2), then
   issue fresh (never-before-executed) syscalls. *)

let p1b_path = "/bin/poc_p1b"

let p1b_items =
  [
    Asm.Label "main";
    (* prctl(PR_SET_SYSCALL_USER_DISPATCH, PR_SYS_DISPATCH_OFF, 0,0,0) —
       issued through libc syscall(2) like the paper's Listing 2 *)
    Asm.I (Insn.Mov_ri (RDI, Sysno.prctl));
    Asm.I (Insn.Mov_ri (RSI, Sysno.pr_set_syscall_user_dispatch));
    Asm.I (Insn.Mov_ri (RDX, Sysno.pr_sys_dispatch_off));
    Asm.I (Insn.Mov_ri (RCX, 0));
    Asm.I (Insn.Mov_ri (R8, 0));
    Asm.I (Insn.Mov_ri (R9, 0));
    Asm.Call_sym "syscall";
    (* now issue 10 syscall-500s from a site that was never executed
       before the prctl — a lazy rewriter has had no chance to claim it *)
    Asm.I (Insn.Mov_ri (R13, 10));
    Asm.Label "after_off";
    Asm.I (Insn.Mov_ri (RAX, Sysno.bench_nonexistent));
    Asm.I Insn.Syscall;
    Asm.I (Insn.Sub_ri (R13, 1));
    Asm.Jc (Insn.NZ, "after_off");
    Asm.I (Insn.Xor_rr (RDI, RDI));
    Asm.Call_sym "exit";
  ]

(* ------------------------------------------------------------------ *)
(* P2a — syscalls from code that did not exist at load time: mmap an
   anonymous rwx page, copy a freshly generated stub into it, call it
   10 times. *)

let p2a_path = "/bin/poc_p2a"

(* the generated code: mov rax, 500; syscall; ret *)
let jit_stub =
  Encode.assemble [ Mov_ri (RAX, Sysno.bench_nonexistent); Syscall; Ret ]

let p2a_items =
  [
    Asm.Label "main";
    (* mmap(NULL, 4096, RWX, ANON, -1, 0) *)
    Asm.I (Insn.Mov_ri (RDI, 0));
    Asm.I (Insn.Mov_ri (RSI, 4096));
    Asm.I (Insn.Mov_ri (RDX, 7));
    Asm.I (Insn.Mov_ri (RCX, 0x20));
    Asm.I (Insn.Mov_ri (R8, -1));
    Asm.I (Insn.Mov_ri (R9, 0));
    Asm.Call_sym "mmap";
    Asm.I (Insn.Mov_rr (R14, RAX));
    (* memcpy(page, stub, len) *)
    Asm.I (Insn.Mov_rr (RDI, R14));
    Asm.Mov_sym (Reg.RSI, "stub");
    Asm.I (Insn.Mov_ri (RDX, Bytes.length jit_stub));
    Asm.Call_sym "memcpy";
    (* call it 10 times *)
    Asm.I (Insn.Mov_ri (R13, 10));
    Asm.Label "jit_loop";
    Asm.I (Insn.Call_reg R14);
    Asm.I (Insn.Sub_ri (R13, 1));
    Asm.Jc (Insn.NZ, "jit_loop");
    Asm.I (Insn.Xor_rr (RDI, RDI));
    Asm.Call_sym "exit";
    Asm.Section `Data;
    Asm.Label "stub";
    Asm.Blob jit_stub;
  ]

(* ------------------------------------------------------------------ *)
(* P2b — startup-window and vdso blindness: the program itself only
   calls clock_gettime (vdso fast path when available) a few times;
   the startup syscalls come from the loader. *)

let p2b_path = "/bin/poc_p2b"

let p2b_items =
  [
    Asm.Label "main";
    Asm.I (Insn.Mov_ri (R13, 10));
    Asm.Label "cg_loop";
    Asm.I (Insn.Mov_ri (RDI, 0));
    Asm.Mov_sym (Reg.RSI, "ts");
    Asm.Call_sym "clock_gettime";
    Asm.I (Insn.Sub_ri (R13, 1));
    Asm.Jc (Insn.NZ, "cg_loop");
    Asm.I (Insn.Xor_rr (RDI, RDI));
    Asm.Call_sym "exit";
    Asm.Section `Data;
    Asm.Label "ts";
    Asm.Zeros 16;
  ]

(* ------------------------------------------------------------------ *)
(* P3a — embedded data in an executable page that a linear sweep
   misreads as syscall instructions.  The program treats the blob as
   data (a lookup table) and verifies its integrity. *)

let p3a_path = "/bin/poc_p3a"

(* a "jump table" whose byte pattern contains 0f 05 pairs at decode
   positions a linear sweep will reach *)
let p3a_blob = Bytes.of_string "\x0f\x05\x11\x22\x0f\x05\x33\x44\x0f\x34\x55\x66"

let p3a_host_fns =
  [
    ( "check_table",
      fun (ctx : Kern.ctx) ->
        let p = ctx.thread.t_proc in
        match Mapper.image_sym p (List.find (fun r -> r.Kern.r_owner = Kern.App) p.regions |> fun r -> Option.get r.Kern.r_image) "table" with
        | Some addr ->
          let got = K23_machine.Memory.read_bytes_raw p.mem addr (Bytes.length p3a_blob) in
          K23_machine.Regs.set ctx.thread.regs RAX (if Bytes.equal got p3a_blob then 0 else 1)
        | None -> K23_machine.Regs.set ctx.thread.regs RAX 2 );
  ]

let p3a_items =
  [
    Asm.Label "main";
    (* a couple of real syscalls around the table read *)
    Asm.Call_sym "getpid";
    Asm.Vcall_named "check_table";
    Asm.I (Insn.Mov_rr (RDI, RAX));
    Asm.Call_sym "exit";
    (* embedded data inside the text section, after the code *)
    Asm.Label "table";
    Asm.Blob p3a_blob;
  ]

(* ------------------------------------------------------------------ *)
(* P3b — attack-induced misidentification: control flow is redirected
   into the middle of a longer instruction whose immediate encodes
   [0f 05 c3] (syscall; ret).  A lazy rewriter will "rewrite" those
   bytes, corrupting the instruction. *)

let p3b_path = "/bin/poc_p3b"

(* mov eax, 0x00c3050f : bytes b8 0f 05 c3 00.  Jumping to gadget+1
   executes syscall; ret. *)
let p3b_gadget = Bytes.of_string "\xb8\x0f\x05\xc3\x00"

let p3b_host_fns =
  [
    ( "check_gadget",
      fun (ctx : Kern.ctx) ->
        let p = ctx.thread.t_proc in
        let im =
          List.find (fun r -> r.Kern.r_owner = Kern.App) p.regions |> fun r ->
          Option.get r.Kern.r_image
        in
        match Mapper.image_sym p im "gadget" with
        | Some addr ->
          let got = K23_machine.Memory.read_bytes_raw p.mem addr (Bytes.length p3b_gadget) in
          K23_machine.Regs.set ctx.thread.regs RAX (if Bytes.equal got p3b_gadget then 0 else 1)
        | None -> K23_machine.Regs.set ctx.thread.regs RAX 2 );
  ]

(* The attack is gated on argc: the offline phase runs the benign path
   (a controlled environment, per Section 5.1); the attacker triggers
   the hijack at run time by invoking the binary with an argument. *)
let p3b_items =
  [
    Asm.Label "main";
    Asm.Call_sym "getpid";
    Asm.I (Insn.Cmp_ri (RDI, 2));
    Asm.Jc (Insn.LT, "no_attack");
    (* simulate the hijack: call into the partial instruction *)
    Asm.Mov_sym (Reg.R14, "gadget");
    Asm.I (Insn.Add_ri (R14, 1));
    Asm.I (Insn.Mov_ri (RAX, Sysno.getpid));
    Asm.I (Insn.Call_reg R14);
    Asm.Label "no_attack";
    (* integrity check on the gadget bytes *)
    Asm.Vcall_named "check_gadget";
    Asm.I (Insn.Mov_rr (RDI, RAX));
    Asm.Call_sym "exit";
    Asm.Label "gadget";
    Asm.Blob p3b_gadget;
  ]

(* ------------------------------------------------------------------ *)
(* P4a — NULL code-pointer bug: call through a NULL function pointer.
   With the trampoline mapped at 0 and no execution check, the call is
   silently misdirected into the interposer and the program "works". *)

let p4a_path = "/bin/poc_p4a"

let p4a_items =
  [
    Asm.Label "main";
    Asm.Call_sym "getpid";
    Asm.I (Insn.Cmp_ri (RDI, 2));
    Asm.Jc (Insn.LT, "skip_null");
    Asm.I (Insn.Mov_ri (R11, 0));  (* the NULL function pointer *)
    Asm.I (Insn.Mov_ri (RAX, Sysno.getpid));
    Asm.I (Insn.Call_reg R11);
    Asm.Label "skip_null";
    (* reached only if the NULL call silently "returned" (or was not
       attempted) *)
    Asm.I (Insn.Xor_rr (RDI, RDI));
    Asm.Call_sym "exit";
  ]

(* ------------------------------------------------------------------ *)
(* P5 — concurrent first executions of the same syscall site: two
   threads hammer one shared site while a lazy rewriter patches it. *)

let p5_path = "/bin/poc_p5"

let p5_items =
  [
    Asm.Label "main";
    (* mmap a stack for the worker thread *)
    Asm.I (Insn.Mov_ri (RDI, 0));
    Asm.I (Insn.Mov_ri (RSI, 0x10000));
    Asm.I (Insn.Mov_ri (RDX, 3));
    Asm.I (Insn.Mov_ri (RCX, 0x20));
    Asm.I (Insn.Mov_ri (R8, -1));
    Asm.I (Insn.Mov_ri (R9, 0));
    Asm.Call_sym "mmap";
    Asm.I (Insn.Mov_rr (RSI, RAX));
    Asm.I (Insn.Mov_ri (R9, 0xf000));
    Asm.I (Insn.Add_rr (RSI, R9));  (* stack grows down from near the top *)
    (* clone(worker, stack, 0) *)
    Asm.Mov_sym (Reg.RDI, "worker");
    Asm.I (Insn.Mov_ri (RDX, 0));
    Asm.Call_sym "clone";
    (* main thread hammers the shared site too *)
    Asm.I (Insn.Mov_ri (R13, 300));
    Asm.Label "m_loop";
    Asm.Calll "shared_fn";
    Asm.I (Insn.Sub_ri (R13, 1));
    Asm.Jc (Insn.NZ, "m_loop");
    (* wait for the worker to finish *)
    Asm.Label "m_wait";
    Asm.Mov_sym (Reg.R9, "done_flag");
    Asm.I (Insn.Load (RAX, R9, 0));
    Asm.I (Insn.Cmp_ri (RAX, 1));
    Asm.Jc (Insn.NZ, "m_wait");
    Asm.I (Insn.Xor_rr (RDI, RDI));
    Asm.Call_sym "exit";
    Asm.Label "worker";
    Asm.I (Insn.Mov_ri (R13, 300));
    Asm.Label "w_loop";
    Asm.Calll "shared_fn";
    Asm.I (Insn.Sub_ri (R13, 1));
    Asm.Jc (Insn.NZ, "w_loop");
    Asm.Mov_sym (Reg.R9, "done_flag");
    Asm.I (Insn.Mov_ri (RAX, 1));
    Asm.I (Insn.Store (R9, 0, RAX));
    Asm.I (Insn.Xor_rr (RDI, RDI));
    Asm.Call_sym "exit_thread";
    (* the shared syscall site *)
    Asm.Label "shared_fn";
    Asm.I (Insn.Mov_ri (RAX, Sysno.getpid));
    Asm.Label "shared_site";
    Asm.I Insn.Syscall;
    Asm.I Insn.Ret;
    Asm.Section `Data;
    Asm.Label "done_flag";
    Asm.Quad 0;
  ]

(** Register every PoC binary in a world. *)
let register_all w =
  let open K23_userland in
  ignore (Sim.register_app w ~path:target_path target_items);
  ignore (Sim.register_app w ~path:p1a_path p1a_items);
  ignore (Sim.register_app w ~path:p1b_path p1b_items);
  ignore (Sim.register_app w ~path:p2a_path p2a_items);
  ignore (Sim.register_app w ~path:p2b_path p2b_items);
  ignore (Sim.register_app w ~path:p3a_path ~host_fns:p3a_host_fns p3a_items);
  ignore (Sim.register_app w ~path:p3b_path ~host_fns:p3b_host_fns p3b_items);
  ignore (Sim.register_app w ~path:p4a_path p4a_items);
  ignore (Sim.register_app w ~path:p5_path p5_items)
