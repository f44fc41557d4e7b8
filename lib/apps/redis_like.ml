(** redis-like in-memory key-value server (Section 6.2.2).

    Mirrors redis' threading model: I/O threads read and write client
    sockets in parallel, but command execution is serialised through a
    single logical execution context (the "main thread" in redis).  We
    model that serial section analytically ({!Appkit.serial_enter});
    it is what makes the 6-I/O-thread configuration scale sub-linearly
    exactly as the paper's numbers show. *)

open K23_isa
open K23_machine

type config = {
  path : string;
  port : int;
  io_threads : int;
  init_site_count : int;
  parse_cost : int;  (** per-request protocol parsing (parallel part) *)
  serial_cost : int;  (** per-request command execution (serial part) *)
  resilient : bool;
      (** fault-tolerant I/O loops (framed reads, EINTR/EAGAIN retry,
          partial-write resumption, accept check), as in
          {!Webserver}.  [false] emits the legacy stream. *)
}

let default ?(io_threads = 1) ?(resilient = false) () =
  {
    path = "/usr/bin/redis-server";
    port = 6379;
    io_threads;
    init_site_count = 86;
    parse_cost = 500;
    serial_cost = 7800;
    resilient;
  }

let items cfg =
  [ Asm.Label "main" ]
  @ Appkit.init_sites cfg.init_site_count
  @ [
      Asm.I (Insn.Mov_ri (RDI, 2));
      Asm.I (Insn.Mov_ri (RSI, 1));
      Asm.I (Insn.Mov_ri (RDX, 0));
      Asm.Call_sym "socket";
      Asm.I (Insn.Mov_rr (RBX, RAX));
      Asm.I (Insn.Mov_rr (RDI, RBX));
      Asm.I (Insn.Mov_ri (RSI, cfg.port));
      Asm.Call_sym "bind";
      Asm.I (Insn.Mov_rr (RDI, RBX));
      Asm.I (Insn.Mov_ri (RSI, 511));
      Asm.Call_sym "listen";
      (* spawn the extra I/O threads *)
      Asm.I (Insn.Mov_ri (R15, cfg.io_threads - 1));
      Asm.Label "spawn_loop";
      Asm.I (Insn.Cmp_ri (R15, 0));
      Asm.Jc (Insn.LE, "accept_loop");
      (* mmap a stack for the thread *)
      Asm.I (Insn.Mov_ri (RDI, 0));
      Asm.I (Insn.Mov_ri (RSI, 0x10000));
      Asm.I (Insn.Mov_ri (RDX, 3));
      Asm.I (Insn.Mov_ri (RCX, 0x20));
      Asm.I (Insn.Mov_ri (R8, -1));
      Asm.I (Insn.Mov_ri (R9, 0));
      Asm.Call_sym "mmap";
      Asm.I (Insn.Mov_rr (RSI, RAX));
      Asm.I (Insn.Mov_ri (R9, 0xf000));
      Asm.I (Insn.Add_rr (RSI, R9));
      Asm.Mov_sym (Reg.RDI, "io_worker");
      Asm.I (Insn.Mov_rr (RDX, RBX));  (* pass the listening fd *)
      Asm.Call_sym "clone";
      Asm.I (Insn.Sub_ri (R15, 1));
      Asm.J "spawn_loop";
      (* thread entry: listening fd arrives in rdi *)
      Asm.Label "io_worker";
      Asm.I (Insn.Mov_rr (RBX, RDI));
    ]
  @ Appkit.serve ~resilient:cfg.resilient
      (Appkit.read_request ~resilient:cfg.resilient
      @ [
          Asm.Vcall_named "rd_parse";
          (* command execution happens on the serial (main-thread) path;
             with multiple I/O threads the hand-off costs a real
             notification syscall on that critical path *)
          Asm.Vcall_named "rd_mark";
        ]
      @ (if cfg.io_threads > 1 then
           [ Asm.I (Insn.Mov_ri (RAX, K23_kernel.Sysno.getpid)); Asm.I Insn.Syscall ]
         else [])
      @ [ Asm.Vcall_named "rd_exec" ]
      @ Appkit.write_response ~resilient:cfg.resilient 64)
  @ [
      Asm.Section `Data;
      Asm.Label "buf";
      Asm.Zeros 8192;
      Asm.Label "resp";
      Asm.Blob (Bytes.make 64 '$');
    ]

let register w cfg =
  let serial = Appkit.serial_create () in
  let marks : int Inttbl.t = Inttbl.create 16 in
  let clock (ctx : K23_kernel.Kern.ctx) = ctx.world.core_cycles.(ctx.thread.core) in
  let host_fns =
    [
      ("rd_parse", fun ctx -> Appkit.charge_work ctx cfg.parse_cost);
      ("rd_mark", fun ctx -> Inttbl.replace marks ctx.K23_kernel.Kern.thread.tid (clock ctx));
      ( "rd_exec",
        fun ctx ->
          let tid = ctx.K23_kernel.Kern.thread.tid in
          let measured_extra =
            match Inttbl.find_opt marks tid with Some m -> clock ctx - m | None -> 0
          in
          Appkit.serial_enter_measured ctx serial ~cost:cfg.serial_cost ~measured_extra );
    ]
  in
  let needed = K23_userland.[ Libc.path; Stdlibs.libcrypto; Stdlibs.libz ] in
  ignore (K23_userland.Sim.register_app w ~path:cfg.path ~needed ~host_fns (items cfg))
