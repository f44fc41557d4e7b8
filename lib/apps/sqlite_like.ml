(** sqlite-like embedded database running a speedtest1-style workload
    (Section 6.2.2: fresh database, WAL mode, synchronous=NORMAL, no
    auto-checkpointing — so commits append to the WAL without
    fsync). *)

open K23_isa
open K23_kernel

type config = {
  path : string;
  ops : int;  (** speedtest1 -size N maps to the op count *)
  compute_cost : int;  (** B-tree/SQL work per statement *)
  init_site_count : int;
}

let default ?(ops = 4000) () =
  { path = "/usr/bin/sqlite3"; ops; compute_cost = 7600; init_site_count = 14 }

let wal_path = "/tmp/speedtest.db-wal"
let db_path = "/tmp/speedtest.db"

let items cfg =
  [ Asm.Label "main" ]
  @ Appkit.init_sites cfg.init_site_count
  @ [
      (* open the database and its WAL *)
      Asm.I (Insn.Mov_ri (RDI, -100));
      Asm.Mov_sym (Reg.RSI, "dbp");
      Asm.I (Insn.Mov_ri (RDX, 0x40));
      Asm.Call_sym "openat";
      Asm.I (Insn.Mov_rr (R12, RAX));
      Asm.I (Insn.Mov_ri (RDI, -100));
      Asm.Mov_sym (Reg.RSI, "walp");
      Asm.I (Insn.Mov_ri (RDX, 0x40));
      Asm.Call_sym "openat";
      Asm.I (Insn.Mov_rr (RBX, RAX));
      Asm.I (Insn.Mov_ri (R13, cfg.ops));
      Asm.Label "op_loop";
      (* the statement itself: parse/plan/execute *)
      Asm.Vcall_named "sq_work";
      (* commit: append a WAL frame *)
      Asm.I (Insn.Mov_rr (RDI, RBX));
      Asm.Mov_sym (Reg.RSI, "frame");
      Asm.I (Insn.Mov_ri (RDX, 128));
      Asm.Call_sym "write";
      (* read back a page *)
      Asm.I (Insn.Mov_rr (RDI, R12));
      Asm.I (Insn.Mov_ri (RSI, 0));
      Asm.I (Insn.Mov_ri (RDX, 0));
      Asm.Call_sym "lseek";
      Asm.I (Insn.Mov_rr (RDI, R12));
      Asm.Mov_sym (Reg.RSI, "page");
      Asm.I (Insn.Mov_ri (RDX, 512));
      Asm.Call_sym "read";
      Asm.I (Insn.Sub_ri (R13, 1));
      Asm.Jc (Insn.NZ, "op_loop");
      Asm.I (Insn.Mov_rr (RDI, RBX));
      Asm.Call_sym "close";
      Asm.I (Insn.Mov_rr (RDI, R12));
      Asm.Call_sym "close";
    ]
  @ Appkit.exit_with 0
  @ [
      Asm.Section `Data;
      Asm.Label "dbp";
      Asm.Strz db_path;
      Asm.Label "walp";
      Asm.Strz wal_path;
      Asm.Label "frame";
      Asm.Blob (Bytes.make 128 'W');
      Asm.Label "page";
      Asm.Zeros 512;
    ]

let register w cfg =
  ignore (Vfs.write_file w.Kern.vfs db_path (String.make 4096 'D'));
  let host_fns = [ ("sq_work", fun ctx -> Appkit.charge_work ctx cfg.compute_cost) ] in
  let needed = K23_userland.[ Libc.path; Stdlibs.libz ] in
  ignore (K23_userland.Sim.register_app w ~path:cfg.path ~needed ~host_fns (items cfg))
