(** Parameterised static-file web server: instantiated as the
    nginx-like and lighttpd-like workloads of Section 6.2.2.

    Architecture mirrors nginx: a master process creates the listening
    socket, forks [workers - 1] children, and every worker runs an
    accept/read/respond loop over persistent connections.  The
    per-request syscall sequence and the request-processing cost are
    parameters; Table 6's configurations (1/10 workers x 0/4 KiB
    files) map to instances of this builder. *)

open K23_isa
open K23_kernel

type req_op =
  | Read_req  (** read(conn, buf, 8192); connection closes on 0 *)
  | Compute  (** the parsing/response-generation work (host cost) *)
  | Write_resp  (** write(conn, resp, header + body) *)
  | Stat_file  (** cache-validation stat() *)
  | Fstat_conn
  | Ioctl_conn
  | Fcntl_conn
  | Clock  (** clock_gettime: vdso fast path when available *)
  | Open_file  (** openat the served file -> r12 *)
  | Read_file  (** read(r12, fbuf, 4096) *)
  | Close_file

type config = {
  name : string;
  path : string;
  port : int;
  workers : int;
  file_size : int;  (** 0 or 4096 *)
  init_site_count : int;  (** distinct startup syscall sites (Table 2) *)
  per_request : req_op list;
  compute_cost : int;
  resilient : bool;
      (** emit fault-tolerant request/response loops: framed reads,
          bounded [EINTR]/[EAGAIN] retry with a short [nanosleep]
          backoff, partial-write resumption, and an [accept] return
          check.  [false] (the default) emits the legacy instruction
          stream byte-for-byte — the chaos row ({!K23_eval.Load}) is
          the only user. *)
}

let served_file = "/srv/www/file4k"

let header_len = 128

(* nginx-like: 7 kernel syscalls per 0-KiB request, more for 4 KiB *)
let nginx ?(workers = 1) ?(file_size = 0) ?(resilient = false) () =
  {
    name = "nginx";
    path = "/usr/sbin/nginx";
    port = 8080;
    workers;
    file_size;
    init_site_count = 33;
    per_request =
      [ Read_req; Clock; Compute; Stat_file; Ioctl_conn; Fcntl_conn; Fstat_conn ]
      @ (if file_size > 0 then [ Open_file; Read_file; Close_file ] else [])
      @ [ Write_resp ];
    compute_cost = (if file_size > 0 then 19500 else 16000);
    resilient;
  }

(* lighttpd-like: leaner per-request syscall sequence *)
let lighttpd ?(workers = 1) ?(file_size = 0) ?(resilient = false) () =
  {
    name = "lighttpd";
    path = "/usr/sbin/lighttpd";
    port = 8081;
    workers;
    file_size;
    init_site_count = 36;
    per_request =
      [ Read_req; Clock; Compute; Fcntl_conn; Ioctl_conn ]
      @ (if file_size > 0 then [ Open_file; Read_file; Close_file ] else [])
      @ [ Write_resp ];
    compute_cost = (if file_size > 0 then 19000 else 15800);
    resilient;
  }

let op_items cfg = function
  | Read_req -> Appkit.read_request ~resilient:cfg.resilient
  | Compute -> [ Asm.Vcall_named "srv_work" ]
  | Write_resp -> Appkit.write_response ~resilient:cfg.resilient (header_len + cfg.file_size)
  | Stat_file ->
    [
      Asm.Mov_sym (Reg.RDI, "fpath");
      Asm.Mov_sym (Reg.RSI, "statbuf");
      Asm.Call_sym "stat";
    ]
  | Fstat_conn ->
    [
      Asm.I (Insn.Mov_rr (RDI, R14));
      Asm.Mov_sym (Reg.RSI, "statbuf");
      Asm.Call_sym "fstat";
    ]
  | Ioctl_conn ->
    [ Asm.I (Insn.Mov_rr (RDI, R14)); Asm.I (Insn.Mov_ri (RSI, 0x541b)); Asm.Call_sym "ioctl" ]
  | Fcntl_conn ->
    [ Asm.I (Insn.Mov_rr (RDI, R14)); Asm.I (Insn.Mov_ri (RSI, 4)); Asm.Call_sym "fcntl" ]
  | Clock ->
    [ Asm.I (Insn.Mov_ri (RDI, 0)); Asm.Mov_sym (Reg.RSI, "ts"); Asm.Call_sym "clock_gettime" ]
  | Open_file ->
    [
      Asm.I (Insn.Mov_ri (RDI, -100));
      Asm.Mov_sym (Reg.RSI, "fpath");
      Asm.I (Insn.Mov_ri (RDX, 0));
      Asm.Call_sym "openat";
      Asm.I (Insn.Mov_rr (R12, RAX));
    ]
  | Read_file ->
    [
      Asm.I (Insn.Mov_rr (RDI, R12));
      Asm.Mov_sym (Reg.RSI, "fbuf");
      Asm.I (Insn.Mov_ri (RDX, 4096));
      Asm.Call_sym "read";
    ]
  | Close_file -> [ Asm.I (Insn.Mov_rr (RDI, R12)); Asm.Call_sym "close" ]

let items cfg =
  [ Asm.Label "main" ]
  @ Appkit.init_sites cfg.init_site_count
  @ [
      (* socket / bind / listen *)
      Asm.I (Insn.Mov_ri (RDI, 2));
      Asm.I (Insn.Mov_ri (RSI, 1));
      Asm.I (Insn.Mov_ri (RDX, 0));
      Asm.Call_sym "socket";
      Asm.I (Insn.Mov_rr (RBX, RAX));
      Asm.I (Insn.Mov_rr (RDI, RBX));
      Asm.I (Insn.Mov_ri (RSI, cfg.port));
      Asm.Call_sym "bind";
      Asm.I (Insn.Mov_rr (RDI, RBX));
      Asm.I (Insn.Mov_ri (RSI, 128));
      Asm.Call_sym "listen";
      (* fork the additional workers *)
      Asm.I (Insn.Mov_ri (R15, cfg.workers - 1));
      Asm.Label "fork_loop";
      Asm.I (Insn.Cmp_ri (R15, 0));
      Asm.Jc (Insn.LE, "accept_loop");
      Asm.Call_sym "fork";
      Asm.I (Insn.Test_rr (RAX, RAX));
      Asm.Jc (Insn.Z, "accept_loop");
      Asm.I (Insn.Sub_ri (R15, 1));
      Asm.J "fork_loop";
    ]
  (* worker *)
  @ Appkit.serve ~resilient:cfg.resilient (List.concat_map (op_items cfg) cfg.per_request)
  @ [
      Asm.Section `Data;
      Asm.Label "buf";
      Asm.Zeros 8192;
      Asm.Label "fbuf";
      Asm.Zeros 4096;
      Asm.Label "statbuf";
      Asm.Zeros 64;
      Asm.Label "ts";
      Asm.Zeros 16;
      Asm.Label "fpath";
      Asm.Strz served_file;
      Asm.Label "resp";
      Asm.Blob (Bytes.make (header_len + cfg.file_size) 'R');
    ]

let host_fns cfg = [ ("srv_work", fun ctx -> Appkit.charge_work ctx cfg.compute_cost) ]

(** Register the server binary (and the file it serves). *)
let register w cfg =
  ignore (Vfs.write_file w.Kern.vfs served_file (String.make 4096 'F'));
  let needed =
    K23_userland.
      [ Libc.path; Stdlibs.libcrypto; Stdlibs.libz; Stdlibs.libpcre ]
  in
  ignore
    (K23_userland.Sim.register_app w ~path:cfg.path ~needed ~host_fns:(host_fns cfg)
       (items cfg))
