(** System call implementations.

    [dispatch] is installed into the world as [syscall_impl] by
    {!World.create}.  Conventions follow the Linux x86-64 ABI: the
    syscall number arrives in rax, arguments in rdi/rsi/rdx/r10/r8/r9,
    the result (or negated errno) is returned in rax.

    Simplifications relative to Linux, documented once here:
    - socket addresses are plain port numbers (loopback only);
    - [fstat] writes the file size as a u64 at offset 0 of the stat
      buffer;
    - [getdents64] writes NUL-separated names;
    - [nanosleep]'s argument is a cycle count rather than a timespec
      pointer;
    - [clone] takes (fn, stack, arg) directly — i.e. the
      pthread_create lowering, not raw clone flags. *)

open K23_machine
open Kern

(* open(2) flag bits we honour *)
let o_creat = 0x40
let o_trunc = 0x200
let o_wronly = 0x1

(* mmap prot/flags *)
let prot_read = 1
let prot_write = 2
let prot_exec = 4
let map_fixed = 0x10
let map_noreserve = 0x4000

let perm_of_prot prot =
  { Memory.r = prot land prot_read <> 0; w = prot land prot_write <> 0; x = prot land prot_exec <> 0 }

let vfs_err e = Errno.ret (Vfs.err_to_errno e)

let alloc_fd (p : proc) fd =
  let n = p.next_fd in
  p.next_fd <- n + 1;
  Inttbl.replace p.fds n fd;
  n

let read_user_cstr (p : proc) addr =
  try Ok (Memory.read_cstr p.mem addr) with Memory.Fault _ -> Error Errno.efault

(** Read a NULL-terminated array of string pointers (argv/envp). *)
let read_user_strv (p : proc) addr =
  if addr = 0 then Ok []
  else
    try
      let rec go i acc =
        if i > 256 then Ok (List.rev acc)
        else
          let ptr = Memory.read_u64_raw p.mem (addr + (8 * i)) in
          if ptr = 0 then Ok (List.rev acc)
          else go (i + 1) (Memory.read_cstr p.mem ptr :: acc)
      in
      go 0 []
    with Memory.Fault _ -> Error Errno.efault

(* ------------------------------------------------------------------ *)
(* File descriptors                                                    *)

(* Byte-queue I/O straight between the ring and the guest buffer.  A
   faulting read has consumed the bytes it popped and stored the mapped
   prefix of [buf]; a faulting write has queued nothing. *)
let drain_to_user (p : proc) q buf count =
  Net.Byteq.drain q count (fun i ring off k -> Memory.write_from_raw p.mem (buf + i) ring off k)

let fill_from_user (p : proc) q buf count =
  Net.Byteq.fill q count (fun i ring off k -> Memory.read_into_raw p.mem (buf + i) ring off k)

let do_read (w : world) (th : thread) fd buf count =
  let p = th.t_proc in
  if count < 0 then Errno.ret Errno.einval
  else
  match Inttbl.find_opt p.fds fd with
  | None -> Errno.ret Errno.ebadf
  | Some (Fd_file f) ->
    let b = Vfs.read_at f.file ~pos:f.pos ~len:count in
    let n = Bytes.length b in
    (try
       Memory.write_bytes_raw p.mem buf b;
       f.pos <- f.pos + n;
       charge w th (n / 16);
       n
     with Memory.Fault _ -> Errno.ret Errno.efault)
  | Some (Fd_conn (c, ep)) ->
    let q = Net.recv_q c ep in
    if Net.Byteq.length q = 0 then
      if Net.peer_closed c ep then 0
      else
        raise
          (Would_block
             { why = Printf.sprintf "read(conn %d)" c.conn_id;
               ready = (fun () -> Net.Byteq.length q > 0 || Net.peer_closed c ep);
               deadline = None })
    else begin
      try
        let n = drain_to_user p q buf count in
        charge w th (n / 16);
        n
      with Memory.Fault _ -> Errno.ret Errno.efault
    end
  | Some (Fd_pipe_r q) ->
    if Net.Byteq.length q = 0 then
      raise
        (Would_block
           { why = "read(pipe)"; ready = (fun () -> Net.Byteq.length q > 0); deadline = None })
    else (try drain_to_user p q buf count with Memory.Fault _ -> Errno.ret Errno.efault)
  | Some (Fd_console _) | Some (Fd_devnull) -> 0
  | Some (Fd_listener _) | Some (Fd_pipe_w _) -> Errno.ret Errno.einval

let do_write (w : world) (th : thread) fd buf count =
  let p = th.t_proc in
  if count < 0 then Errno.ret Errno.einval
  else
  match Inttbl.find_opt p.fds fd with
  | None -> Errno.ret Errno.ebadf
  | Some (Fd_console out) -> (
    try
      let b = Memory.read_bytes_raw p.mem buf count in
      Buffer.add_bytes out b;
      charge w th (count / 16);
      count
    with Memory.Fault _ -> Errno.ret Errno.efault)
  | Some (Fd_file f) -> (
    if Vfs.immutable f.file then Errno.ret Errno.eperm
    else if count > 0 && f.pos >= Vfs.max_file_size then Errno.ret Errno.efbig
    else
      (* a write crossing the size limit is cut at it, as on Linux *)
      let count = min count (Vfs.max_file_size - f.pos) in
      try
        let b = Memory.read_bytes_raw p.mem buf count in
        Vfs.write_at f.file ~pos:f.pos b;
        f.pos <- f.pos + count;
        charge w th (count / 16);
        count
      with Memory.Fault _ -> Errno.ret Errno.efault)
  | Some (Fd_conn (c, ep)) -> (
    if Net.peer_closed c ep then Errno.ret Errno.eio
    else
      try
        fill_from_user p (Net.send_q c ep) buf count;
        charge w th (count / 16);
        count
      with Memory.Fault _ -> Errno.ret Errno.efault)
  | Some (Fd_pipe_w q) -> (
    try
      fill_from_user p q buf count;
      count
    with Memory.Fault _ -> Errno.ret Errno.efault)
  | Some Fd_devnull -> count
  | Some (Fd_listener _) | Some (Fd_pipe_r _) -> Errno.ret Errno.einval

let resolve_path (p : proc) path =
  if String.length path > 0 && path.[0] = '/' then path else Filename.concat p.cwd path

let do_open (w : world) (th : thread) path flags =
  let p = th.t_proc in
  let path = resolve_path p path in
  charge w th 120;
  (* /proc/PID/maps and /proc/self/maps are synthesised on open *)
  let proc_maps_of pid_str =
    let target =
      if pid_str = "self" then Some p
      else
        match int_of_string_opt pid_str with
        | Some pid -> List.find_opt (fun q -> q.pid = pid) w.procs
        | None -> None
    in
    match target with
    | None -> Errno.ret Errno.enoent
    | Some q ->
      alloc_fd p (Fd_file { file = Vfs.pseudo_file (maps_string q ^ "\n"); pos = 0; path })
  in
  match String.split_on_char '/' path with
  | [ ""; "proc"; pid_str; "maps" ] -> proc_maps_of pid_str
  | _ -> (
    if flags land o_creat <> 0 then
      match Vfs.mkdir_p w.vfs (Filename.dirname path) with
      | Error e -> vfs_err e
      | Ok _ -> (
        match
          if Vfs.exists w.vfs path && flags land o_trunc = 0 then Vfs.open_file w.vfs path
          else Vfs.create_file w.vfs path
        with
        | Error e -> vfs_err e
        | Ok f -> alloc_fd p (Fd_file { file = f; pos = 0; path }))
    else if Vfs.is_dir w.vfs path then
      (* opening a directory: an empty pseudo-file whose path getdents64
         resolves against *)
      alloc_fd p (Fd_file { file = Vfs.pseudo_file ""; pos = 0; path })
    else
      let trunc = flags land o_trunc <> 0 && flags land o_wronly <> 0 in
      match Vfs.open_file w.vfs path with
      | Error e -> vfs_err e
      | Ok _ when trunc && Vfs.path_immutable w.vfs path ->
        (* a sealed log is as immutable to O_TRUNC as to write/ftruncate *)
        Errno.ret Errno.eperm
      | Ok f ->
        if trunc then ignore (Vfs.truncate f 0);
        alloc_fd p (Fd_file { file = f; pos = 0; path }))

(* ------------------------------------------------------------------ *)
(* Memory management                                                   *)

let do_mmap (w : world) (th : thread) addr len prot flags fd off =
  let p = th.t_proc in
  charge w th 200;
  if len <= 0 then Errno.ret Errno.einval
  else begin
    let perm = perm_of_prot prot in
    match (fd >= 0, Inttbl.find_opt p.fds fd) with
    | true, Some (Fd_file f) -> (
      (* file-backed: if the file is a registered library image, map the
         requested section of that image *)
      match find_library w f.path with
      | Some im -> Mapper.map_image_section w p im ~section:(if off = 0 then `Text else `Data)
      | None ->
        (* plain file mapping: copy contents *)
        let base = p.mmap_cursor in
        p.mmap_cursor <- p.mmap_cursor + Memory.align_up len + 0x10000;
        Memory.map p.mem ~addr:base ~len ~perm;
        Memory.write_bytes_raw p.mem base (Vfs.read_at f.file ~pos:0 ~len:(Vfs.size f.file));
        add_region p
          { r_start = base; r_len = Memory.align_up len; r_perm = perm; r_name = f.path;
            r_owner = Anon; r_image = None; r_sec = `Other };
        base)
    | true, _ -> Errno.ret Errno.ebadf
    | false, _ ->
      (* anonymous *)
      let base =
        if flags land map_fixed <> 0 then addr
        else begin
          let b = p.mmap_cursor in
          p.mmap_cursor <- p.mmap_cursor + Memory.align_up len + 0x10000;
          b
        end
      in
      if base land (Memory.page_size - 1) <> 0 then Errno.ret Errno.einval
      else begin
        if flags land map_noreserve <> 0 && len > 0x1000_0000 then
          (* huge reservation (zpoline's bitmap): account virtual space
             only; pages materialise on first touch — we commit a token
             page so the accounting below is visible *)
          Memory.reserve p.mem ~len
        else Memory.map p.mem ~addr:base ~len ~perm;
        add_region p
          { r_start = base; r_len = Memory.align_up len; r_perm = perm;
            r_name = (if base = 0 then "[trampoline]" else "[anon]");
            r_owner = (if base = 0 then Trampoline else Anon); r_image = None; r_sec = `Other };
        base
      end
  end

(* A zero length changes nothing and succeeds, and a negative one,
   which Linux reads as a size past the end of the address space, is
   ENOMEM, as in Linux's do_mprotect_pkey. *)
let do_mprotect (w : world) (th : thread) addr len prot =
  let p = th.t_proc in
  charge w th 150;
  if len = 0 then 0
  else if len < 0 then Errno.ret Errno.enomem
  else begin
    let perm = perm_of_prot prot in
    Memory.set_perm p.mem ~addr ~len ~perm;
    (match find_region p addr with
    | Some r when r.r_start = addr && r.r_len = Memory.align_up len -> r.r_perm <- perm
    | Some r -> r.r_perm <- perm (* partial: reflect latest change in maps *)
    | None -> ());
    0
  end

(* ------------------------------------------------------------------ *)
(* Process management                                                  *)

let do_fork (w : world) (th : thread) =
  let p = th.t_proc in
  charge w th 2000;
  let child = new_proc w ~parent:(Some p) ~cmd:p.cmd in
  child.mem <- Memory.clone p.mem;
  child.regions <- p.regions;
  child.fds <- Inttbl.copy p.fds;
  child.next_fd <- p.next_fd;
  child.env <- p.env;
  child.cwd <- p.cwd;
  child.sig_handlers <- Inttbl.copy p.sig_handlers;
  child.vdso_enabled <- p.vdso_enabled;
  child.globals <- Hashtbl.copy p.globals;
  child.brk_cur <- p.brk_cur;
  child.mmap_cursor <- p.mmap_cursor;
  child.next_pkey <- p.next_pkey;
  child.argv <- p.argv;
  (* pstates are shared with the parent (see DESIGN.md): interposer
     counters aggregate across fork trees, like a shared-memory page *)
  child.pstates <- p.pstates;
  child.image_bases <- Hashtbl.copy p.image_bases;
  child.startup_done <- p.startup_done;
  child.seccomp <- p.seccomp;
  child.aslr_slide <- p.aslr_slide;
  let cth = new_thread w child in
  Regs.restore cth.regs ~from:th.regs;
  cth.sud <- Option.map (fun s -> { sel_addr = s.sel_addr; allow_lo = s.allow_lo; allow_hi = s.allow_hi }) th.sud;
  (* signal frames live on the (copied) user stack on real hardware, so
     a child forked from inside a signal handler — e.g. an interposer
     re-issuing fork from its SIGSYS handler — can still sigreturn *)
  cth.frames <- List.map (fun fr -> { fr with fr_regs = Regs.copy fr.fr_regs }) th.frames;
  Regs.set cth.regs RAX 0;
  child.pid

let do_clone_thread (w : world) (th : thread) ~fn ~stack ~arg =
  charge w th 1500;
  let nt = new_thread w th.t_proc in
  Regs.restore nt.regs ~from:th.regs;
  nt.regs.rip <- fn;
  Regs.seti nt.regs (K23_isa.Isa.sp_index w.isa) stack;
  (* the result before the argument: x0 is both on arm64 *)
  Regs.set nt.regs RAX 0;
  Regs.seti nt.regs (K23_isa.Isa.arg_indices w.isa).(0) arg;
  nt.sud <- Option.map (fun s -> { sel_addr = s.sel_addr; allow_lo = s.allow_lo; allow_hi = s.allow_hi }) th.sud;
  nt.tid

let do_wait4 (w : world) (th : thread) ~pid_sel ~status_ptr =
  let p = th.t_proc in
  let candidates () =
    List.filter
      (fun c -> (pid_sel = -1 || c.pid = pid_sel) && proc_dead c && not c.reaped)
      p.children
  in
  match candidates () with
  | [] ->
    if p.children = [] then Errno.ret Errno.echild
    else
      raise
        (Would_block { why = "wait4"; ready = (fun () -> candidates () <> []); deadline = None })
  | c :: _ ->
    charge w th 300;
    c.reaped <- true;
    let status =
      match (c.exit_status, c.term_signal) with
      | Some s, _ -> s lsl 8
      | None, Some sg -> sg
      | None, None -> 0
    in
    if status_ptr <> 0 then (try Memory.write_u64_raw p.mem status_ptr status with Memory.Fault _ -> ());
    c.pid

(* ------------------------------------------------------------------ *)
(* SUD via prctl                                                       *)

let do_prctl (w : world) (th : thread) args =
  match args.(0) with
  | op when op = Sysno.pr_set_syscall_user_dispatch ->
    charge w th 250;
    if args.(1) = Sysno.pr_sys_dispatch_off then begin
      th.sud <- None;
      ktrace_count w "sud.disarm";
      ktrace_event w th
        (K23_obs.Event.Sud_toggle { armed = false; sel_addr = 0; allow_lo = 0; allow_hi = 0 });
      0
    end
    else if args.(1) = Sysno.pr_sys_dispatch_on then begin
      th.sud <- Some { sel_addr = args.(4); allow_lo = args.(2); allow_hi = args.(2) + args.(3) };
      w.sud_ever_armed <- true;
      ktrace_count w "sud.arm";
      ktrace_event w th
        (K23_obs.Event.Sud_toggle
           { armed = true; sel_addr = args.(4); allow_lo = args.(2); allow_hi = args.(2) + args.(3) });
      0
    end
    else Errno.ret Errno.einval
  | _ -> 0

(* ------------------------------------------------------------------ *)
(* The system call table                                               *)

(** One system call's body: its world, the calling thread, that
    thread's process and the six arguments, to the result. *)
type handler = world -> thread -> proc -> int array -> int

let enosys : handler = fun _ _ _ _ -> Errno.ret Errno.enosys
let noop : handler = fun _ _ _ _ -> 0

let with_path (p : proc) addr k = match read_user_cstr p addr with Error e -> Errno.ret e | Ok path -> k path

let path_exists : handler =
 fun w _ p args ->
  with_path p args.(0) (fun path -> if Vfs.exists w.vfs (resolve_path p path) then 0 else Errno.ret Errno.enoent)

let time_to_user (w : world) (p : proc) buf =
  let ns = now w * 10 / 32 in
  try
    Memory.write_u64_raw p.mem buf ns;
    0
  with Memory.Fault _ -> Errno.ret Errno.efault

let handlers : (int * handler) list =
  [
    (Sysno.read, fun w th _ args -> do_read w th args.(0) args.(1) args.(2));
    (Sysno.write, fun w th _ args -> do_write w th args.(0) args.(1) args.(2));
    (Sysno.open_, fun w th p args -> with_path p args.(0) (fun path -> do_open w th path args.(1)));
    (Sysno.openat, fun w th p args -> with_path p args.(1) (fun path -> do_open w th path args.(2)));
    (Sysno.close, fun w _ p args ->
      if Inttbl.mem p.fds args.(0) then begin
        (match Inttbl.find_opt p.fds args.(0) with
        | Some (Fd_conn (c, ep)) -> Net.close c ep
        | Some (Fd_listener l) -> Net.unlisten w.net l.port
        | _ -> ());
        Inttbl.remove p.fds args.(0);
        0
      end
      else Errno.ret Errno.ebadf);
    (Sysno.stat, path_exists);
    (Sysno.access, path_exists);
    (Sysno.fstat, fun _ _ p args ->
      match Inttbl.find_opt p.fds args.(0) with
      | Some fd -> (
        try
          Memory.write_u64_raw p.mem args.(1) (match fd with Fd_file f -> Vfs.size f.file | _ -> 0);
          0
        with Memory.Fault _ -> Errno.ret Errno.efault)
      | None -> Errno.ret Errno.ebadf);
    (Sysno.lseek, fun _ _ p args ->
      match Inttbl.find_opt p.fds args.(0) with
      | Some (Fd_file f) ->
        let pos =
          match args.(2) with
          | 0 -> args.(1) (* SEEK_SET *)
          | 1 -> f.pos + args.(1)
          | 2 -> Vfs.size f.file + args.(1)
          | _ -> -1
        in
        (* past the size limit: -EINVAL, as generic_file_llseek_size *)
        if pos < 0 || pos > Vfs.max_file_size then Errno.ret Errno.einval
        else begin
          f.pos <- pos;
          pos
        end
      | _ -> Errno.ret Errno.ebadf);
    (Sysno.mmap, fun w th _ args -> do_mmap w th args.(0) args.(1) args.(2) args.(3) args.(4) args.(5));
    (Sysno.mprotect, fun w th _ args -> do_mprotect w th args.(0) args.(1) args.(2));
    (Sysno.munmap, fun _ _ p args ->
      Memory.unmap p.mem ~addr:args.(0) ~len:args.(1);
      remove_region p ~start:args.(0);
      0);
    (Sysno.brk, fun _ _ p args ->
      if args.(0) > p.brk_cur then begin
        let old = Memory.align_up p.brk_cur in
        let new_ = Memory.align_up args.(0) in
        if new_ > old then Memory.map p.mem ~addr:old ~len:(new_ - old) ~perm:Memory.perm_rw;
        p.brk_cur <- args.(0)
      end;
      p.brk_cur);
    (Sysno.rt_sigaction, fun _ _ p args ->
      if args.(1) = 0 then begin
        Inttbl.remove p.sig_handlers args.(0);
        0
      end
      else if args.(0) = sigkill || args.(0) = sigstop then
        (* neither can be caught, as on Linux *)
        Errno.ret Errno.einval
      else begin
        Inttbl.replace p.sig_handlers args.(0) args.(1);
        0
      end);
    (Sysno.rt_sigprocmask, noop);
    (Sysno.rt_sigreturn, fun w th _ _ ->
      do_sigreturn w th;
      Regs.get th.regs RAX);
    (Sysno.ioctl, noop);
    (Sysno.fcntl, noop);
    (Sysno.futex, noop);
    (Sysno.arch_prctl, noop);
    (Sysno.pipe, fun _ _ p args ->
      let q = Net.Byteq.create () in
      let rfd = alloc_fd p (Fd_pipe_r q) in
      let wfd = alloc_fd p (Fd_pipe_w q) in
      try
        Memory.write_u64_raw p.mem args.(0) rfd;
        Memory.write_u64_raw p.mem (args.(0) + 8) wfd;
        0
      with Memory.Fault _ -> Errno.ret Errno.efault);
    (Sysno.dup, fun _ _ p args ->
      match Inttbl.find_opt p.fds args.(0) with
      | Some fd -> alloc_fd p fd
      | None -> Errno.ret Errno.ebadf);
    (Sysno.sched_yield, noop);
    (Sysno.nanosleep, fun w _ _ args ->
      (* arg0 is the duration in cycles.  The absolute deadline must
         survive the block/retry cycle — the scheduler re-dispatches a
         woken syscall with the same args array, and recomputing
         [now + duration] there would re-arm the sleep forever — so the
         first dispatch stashes it in args.(1) (the rem-pointer slot,
         unused by this model; 0 from all in-tree callers). *)
      let deadline = if args.(1) <> 0 then args.(1) else now w + args.(0) in
      if now w >= deadline then 0
      else begin
        args.(1) <- deadline;
        raise
          (Would_block
             { why = "nanosleep"; ready = (fun () -> now w >= deadline); deadline = Some deadline })
      end);
    (Sysno.getpid, fun _ _ p _ -> p.pid);
    (Sysno.gettid, fun _ th _ _ -> th.tid);
    (* socket(2): the fd is re-purposed by bind/listen/connect *)
    (Sysno.socket, fun _ _ p _ -> alloc_fd p Fd_devnull);
    (Sysno.bind, fun w _ p args ->
      (* sockaddr is modelled as a bare port number (loopback only) *)
      if Inttbl.mem p.fds args.(0) then begin
        Hashtbl.replace w.net.Net.bound_ports (p.pid, args.(0)) args.(1);
        0
      end
      else Errno.ret Errno.ebadf);
    (Sysno.listen, fun w _ p args ->
      match Hashtbl.find_opt w.net.Net.bound_ports (p.pid, args.(0)) with
      | None -> Errno.ret Errno.einval
      | Some port -> (
        match Net.listen w.net port with
        | Error `Addrinuse -> Errno.ret Errno.eaddrinuse
        | Ok l ->
          Inttbl.replace p.fds args.(0) (Fd_listener l);
          0));
    (Sysno.accept, fun w th p args ->
      match Inttbl.find_opt p.fds args.(0) with
      | Some (Fd_listener l) -> (
        match Net.accept l with
        | Some c ->
          charge w th 300;
          alloc_fd p (Fd_conn (c, Net.B))
        | None ->
          raise
            (Would_block
               {
                 why = Printf.sprintf "accept(:%d)" l.port;
                 ready = (fun () -> Net.backlog_length l > 0);
                 deadline = None;
               }))
      | _ -> Errno.ret Errno.ebadf);
    (Sysno.connect, fun w th p args ->
      charge w th 400;
      match Net.connect w.net args.(1) with
      | Error `Refused -> Errno.ret Errno.econnrefused
      | Ok c ->
        Inttbl.replace p.fds args.(0) (Fd_conn (c, Net.A));
        0);
    (Sysno.sendto, fun w th _ args -> do_write w th args.(0) args.(1) args.(2));
    (Sysno.recvfrom, fun w th _ args -> do_read w th args.(0) args.(1) args.(2));
    (Sysno.shutdown, fun _ _ p args ->
      match Inttbl.find_opt p.fds args.(0) with
      | Some (Fd_conn (c, ep)) ->
        Net.close c ep;
        0
      | _ -> Errno.ret Errno.ebadf);
    (Sysno.fork, fun w th _ _ -> do_fork w th);
    (Sysno.clone, fun w th _ args -> do_clone_thread w th ~fn:args.(0) ~stack:args.(1) ~arg:args.(2));
    (Sysno.execve, fun w th p args ->
      match (read_user_cstr p args.(0), read_user_strv p args.(1), read_user_strv p args.(2)) with
      | Ok path, Ok argv, Ok envp -> (
        match w.execve_impl with
        | None -> panic "no execve implementation installed"
        | Some f -> f { world = w; thread = th } ~path ~argv ~envp)
      | _ -> Errno.ret Errno.efault);
    (Sysno.exit, fun _ th p args ->
      th.state <- Dead;
      if List.for_all (fun t -> t.state = Dead) p.threads then exit_proc p ~status:args.(0);
      0);
    (Sysno.exit_group, fun _ _ p args ->
      exit_proc p ~status:args.(0);
      0);
    (Sysno.wait4, fun w th _ args -> do_wait4 w th ~pid_sel:args.(0) ~status_ptr:args.(1));
    (Sysno.kill, fun w _ _ args ->
      let signo = args.(1) in
      match List.find_opt (fun q -> q.pid = args.(0)) w.procs with
      | None -> Errno.ret Errno.esrch
      | Some _ when signo < 0 || signo > 64 -> Errno.ret Errno.einval
      | Some _ when signo = 0 -> 0 (* the existence probe sends nothing *)
      | Some q -> (
        (* a registered handler catches the signal instead of dying; the
           delivery wakes a thread parked in a blocking syscall with
           -EINTR before its deadline (the signal-wake contract
           test_faults pins) *)
        match
          if Inttbl.mem q.sig_handlers signo then
            List.find_opt (fun t -> t.state <> Dead) q.threads
          else None
        with
        | Some target ->
          deliver_signal w target ~signo ~sysno:0 ~site:0 ~args:[||];
          0
        | None ->
          kill_proc q ~signal:signo;
          0));
    (Sysno.getcwd, fun _ _ p args ->
      try
        Memory.write_cstr p.mem args.(0) p.cwd;
        String.length p.cwd + 1
      with Memory.Fault _ -> Errno.ret Errno.efault);
    (Sysno.chdir, fun w _ p args ->
      with_path p args.(0) (fun path ->
          let path = resolve_path p path in
          if Vfs.is_dir w.vfs path then begin
            p.cwd <- path;
            0
          end
          else Errno.ret Errno.enoent));
    (Sysno.mkdir, fun w _ p args ->
      with_path p args.(0) (fun path ->
          match Vfs.mkdir_p w.vfs (resolve_path p path) with Ok _ -> 0 | Error e -> vfs_err e));
    (Sysno.unlink, fun w _ p args ->
      with_path p args.(0) (fun path ->
          match Vfs.unlink w.vfs (resolve_path p path) with Ok () -> 0 | Error e -> vfs_err e));
    (Sysno.rename, fun w _ p args ->
      match (read_user_cstr p args.(0), read_user_cstr p args.(1)) with
      | Ok src, Ok dst -> (
        match Vfs.rename w.vfs (resolve_path p src) (resolve_path p dst) with
        | Ok () -> 0
        | Error e -> vfs_err e)
      | _ -> Errno.ret Errno.efault);
    (Sysno.chmod, fun w _ p args ->
      with_path p args.(0) (fun path ->
          if Vfs.path_immutable w.vfs (resolve_path p path) then Errno.ret Errno.eperm else 0));
    (Sysno.ftruncate, fun _ _ p args ->
      match Inttbl.find_opt p.fds args.(0) with
      | Some (Fd_file f) ->
        if Vfs.immutable f.file then Errno.ret Errno.eperm
        else (match Vfs.truncate f.file args.(1) with Ok () -> 0 | Error e -> vfs_err e)
      | _ -> Errno.ret Errno.ebadf);
    (Sysno.fsync, fun w th _ _ ->
      charge w th 3000;
      0);
    (Sysno.getdents64, fun w _ p args ->
      match Inttbl.find_opt p.fds args.(0) with
      | Some (Fd_file f) when Vfs.size f.file = 0 && Vfs.is_dir w.vfs f.path -> (
        (* opened a directory: emit the listing once *)
        match Vfs.listdir w.vfs f.path with
        | Error e -> vfs_err e
        | Ok names ->
          if f.pos > 0 then 0
          else begin
            let blob = String.concat "\000" names ^ "\000" in
            try
              Memory.write_bytes_raw p.mem args.(1) (Bytes.of_string blob);
              f.pos <- 1;
              String.length blob
            with Memory.Fault _ -> Errno.ret Errno.efault
          end)
      | Some _ -> 0
      | None -> Errno.ret Errno.ebadf);
    (Sysno.gettimeofday, fun w _ p args -> time_to_user w p args.(0));
    (Sysno.clock_gettime, fun w _ p args -> time_to_user w p args.(1));
    (Sysno.prctl, fun w th _ args -> do_prctl w th args);
    (Sysno.pkey_alloc, fun _ _ p _ ->
      let k = p.next_pkey in
      p.next_pkey <- k + 1;
      if k > 15 then Errno.ret Errno.enomem else k);
    (Sysno.pkey_free, noop);
    (Sysno.pkey_mprotect, fun w th p args ->
      let ret = do_mprotect w th args.(0) args.(1) args.(2) in
      if ret = 0 then Memory.set_pkey p.mem ~addr:args.(0) ~len:args.(1) ~pkey:args.(3);
      ret);
  ]

(** The handler of every number, indexed by number, as UNIX's
    [sysent[]].  An empty slot is ENOSYS, as on Linux: the
    microbenchmark's syscall 500, K23's fake calls when no tracer
    intercepts them, and ptrace and process_vm_readv/writev, whose
    tracers are host-level agents in this model (the numbers exist so
    strace-style examples can show them). *)
let sysent : handler array =
  let a = Array.make (1 + List.fold_left (fun m (nr, _) -> max m nr) 0 handlers) enosys in
  List.iter (fun (nr, h) -> a.(nr) <- h) handlers;
  a

(* Errno-storm half of the fault plane (DESIGN.md §4i): rolled before
   the handler runs — and before any availability check — so a
   decision can never depend on mechanism-relative timing.  Only
   consults the key armed by {!Kern.fault_arm}, so a retry of a parked
   call replays the first dispatch's (negative) decisions instead of
   rolling new dice. *)
let fault_errno (w : world) (th : thread) (p : proc) ~nr ~args =
  match w.faults with
  | None -> None
  | Some plan ->
    let key = th.fault_key in
    if key = 0 then None
    else
      let inject kind e =
        fault_event w th ~nr ~kind;
        th.fault_key <- 0;
        Some (Errno.ret e)
      in
      let fd_alloc () =
        if not (Faults.roll_emfile plan ~key) then None
        else if Faults.flip ~key then inject "emfile" Errno.emfile
        else inject "enfile" Errno.enfile
      in
      let eagain () = if Faults.roll_eagain plan ~key then inject "eagain" Errno.eagain else None in
      let reset () = if Faults.roll_reset plan ~key then inject "reset" Errno.econnreset else None in
      match Sysno.fault nr with
      | No_faults | Blocking | Reap -> None
      | Enomem -> if Faults.roll_enomem plan ~key then inject "enomem" Errno.enomem else None
      | Fd_alloc -> fd_alloc ()
      | Accept -> ( match fd_alloc () with None -> eagain () | r -> r)
      | Connect -> reset ()
      | Rw -> (
        match Inttbl.find_opt p.fds args.(0) with
        | Some (Fd_conn _) -> ( match reset () with None -> eagain () | r -> r)
        | _ -> None)

let dispatch (ctx : ctx) ~nr ~args : int =
  let w = ctx.world and th = ctx.thread in
  let p = th.t_proc in
  match fault_errno w th p ~nr ~args with
  | Some ret -> ret
  | None -> (if nr >= 0 && nr < Array.length sysent then sysent.(nr) else enosys) w th p args
