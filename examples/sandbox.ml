(* A write-jail sandbox on K23: the policy denies writes to the
   filesystem outside /tmp, and kills attempts to escape the sandbox
   via the interposition-bypass tricks of Section 4 (empty-environment
   execve, prctl SUD-off).

   Exhaustive interposition is what makes this sound: a sandbox built
   on zpoline or lazypoline can be bypassed with the P1/P2 pitfalls.

   Run with:  dune exec examples/sandbox.exe *)

open K23_isa
open K23_kernel
open K23_userland
module K23 = K23_core.K23
module I = K23_interpose.Interpose

(* A program that misbehaves: writes /etc/passwd, then tries the
   Listing-2 bypass, then does legitimate work in /tmp. *)
let sneaky =
  [
    Asm.Label "main";
    (* try to create /etc/passwd *)
    Asm.I (Insn.Mov_ri (RDI, -100));
    Asm.Mov_sym (Reg.RSI, "etc");
    Asm.I (Insn.Mov_ri (RDX, 0x41));
    Asm.Call_sym "openat";
    (* legitimate temp file *)
    Asm.I (Insn.Mov_ri (RDI, -100));
    Asm.Mov_sym (Reg.RSI, "tmp");
    Asm.I (Insn.Mov_ri (RDX, 0x41));
    Asm.Call_sym "openat";
    Asm.I (Insn.Mov_rr (R14, RAX));
    Asm.I (Insn.Mov_rr (RDI, R14));
    Asm.Mov_sym (Reg.RSI, "msg");
    Asm.I (Insn.Mov_ri (RDX, 7));
    Asm.Call_sym "write";
    Asm.I (Insn.Xor_rr (RDI, RDI));
    Asm.Call_sym "exit";
    Asm.Section `Data;
    Asm.Label "etc";
    Asm.Strz "/etc/passwd";
    Asm.Label "tmp";
    Asm.Strz "/tmp/scratch";
    Asm.Label "msg";
    Asm.Strz "sandbox";
  ]

let path_of ctx addr = K23_machine.Memory.read_cstr ctx.Kern.thread.t_proc.mem addr

let policy : I.handler =
 fun ctx ~nr ~args ~site:_ ->
  if nr = Sysno.openat then begin
    let p = path_of ctx args.(1) in
    let write_intent = args.(2) land 0x41 <> 0 in
    let allowed = (not write_intent) || String.length p >= 5 && String.sub p 0 5 = "/tmp/" in
    if allowed then Forward
    else begin
      Printf.printf "policy: DENY openat(%S) for writing\n" p;
      Emulate (Errno.ret Errno.eacces)
    end
  end
  else Forward

let () =
  let w = Sim.create_world () in
  ignore (Sim.register_app w ~path:"/bin/sneaky" sneaky);
  ignore (K23.offline_run w ~path:"/bin/sneaky" ());
  K23.seal_logs w;
  (* the offline phase runs unpoliced in a controlled environment;
     reset its side effects before deploying *)
  ignore (Vfs.unlink w.vfs "/etc/passwd");
  ignore (Vfs.unlink w.vfs "/tmp/scratch");
  match K23.launch w ~variant:K23.Ultra ~inner:policy ~path:"/bin/sneaky" () with
  | Error e -> Printf.eprintf "launch failed: %d\n" e
  | Ok (p, stats) ->
    World.run_until_exit w p;
    Printf.printf "process finished: %s\n"
      (match p.exit_status with Some s -> Printf.sprintf "exit %d" s | None -> "killed");
    Printf.printf "/etc/passwd exists: %b (must be false)\n" (Vfs.exists w.vfs "/etc/passwd");
    Printf.printf "/tmp/scratch exists: %b (must be true)\n" (Vfs.exists w.vfs "/tmp/scratch");
    Printf.printf "interposed %d syscalls, %d aborts\n" stats.interposed stats.aborts
