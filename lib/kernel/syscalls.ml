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

let prot_of_perm (p : Memory.perm) =
  (if p.r then prot_read else 0) lor (if p.w then prot_write else 0) lor if p.x then prot_exec else 0

let vfs_err e = Errno.ret (Vfs.err_to_errno e)

let alloc_fd (p : proc) fd =
  let n = p.next_fd in
  p.next_fd <- n + 1;
  Hashtbl.replace p.fds n fd;
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

let do_read (w : world) (th : thread) fd buf count =
  let p = th.t_proc in
  if count < 0 then Errno.ret Errno.einval
  else
  match Hashtbl.find_opt p.fds fd with
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
      let b = Net.Byteq.pop q count in
      (try
         Memory.write_bytes_raw p.mem buf b;
         charge w th (Bytes.length b / 16);
         Bytes.length b
       with Memory.Fault _ -> Errno.ret Errno.efault)
    end
  | Some (Fd_pipe_r q) ->
    if Net.Byteq.length q = 0 then
      raise
        (Would_block
           { why = "read(pipe)"; ready = (fun () -> Net.Byteq.length q > 0); deadline = None })
    else
      let b = Net.Byteq.pop q count in
      (try
         Memory.write_bytes_raw p.mem buf b;
         Bytes.length b
       with Memory.Fault _ -> Errno.ret Errno.efault)
  | Some (Fd_console _) | Some (Fd_devnull) -> 0
  | Some (Fd_listener _) | Some (Fd_pipe_w _) -> Errno.ret Errno.einval

let do_write (w : world) (th : thread) fd buf count =
  let p = th.t_proc in
  if count < 0 then Errno.ret Errno.einval
  else
  match Hashtbl.find_opt p.fds fd with
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
    else
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
        let b = Memory.read_bytes_raw p.mem buf count in
        Net.Byteq.push (Net.send_q c ep) b;
        charge w th (count / 16);
        count
      with Memory.Fault _ -> Errno.ret Errno.efault)
  | Some (Fd_pipe_w q) -> (
    try
      let b = Memory.read_bytes_raw p.mem buf count in
      Net.Byteq.push q b;
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
      match Vfs.open_file w.vfs path with
      | Error e -> vfs_err e
      | Ok f ->
        if flags land o_trunc <> 0 && flags land o_wronly <> 0 then ignore (Vfs.truncate f 0);
        alloc_fd p (Fd_file { file = f; pos = 0; path }))

(* ------------------------------------------------------------------ *)
(* Memory management                                                   *)

let do_mmap (w : world) (th : thread) addr len prot flags fd off =
  let p = th.t_proc in
  charge w th 200;
  if len <= 0 then Errno.ret Errno.einval
  else begin
    let perm = perm_of_prot prot in
    match (fd >= 0, Hashtbl.find_opt p.fds fd) with
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

let do_mprotect (w : world) (th : thread) addr len prot =
  let p = th.t_proc in
  charge w th 150;
  let perm = perm_of_prot prot in
  Memory.set_perm p.mem ~addr ~len ~perm;
  (match find_region p addr with
  | Some r when r.r_start = addr && r.r_len = Memory.align_up len -> r.r_perm <- perm
  | Some r -> r.r_perm <- perm (* partial: reflect latest change in maps *)
  | None -> ());
  0

(* ------------------------------------------------------------------ *)
(* Process management                                                  *)

let do_fork (w : world) (th : thread) =
  let p = th.t_proc in
  charge w th 2000;
  let child = new_proc w ~parent:(Some p) ~cmd:p.cmd in
  child.mem <- Memory.clone p.mem;
  child.regions <- p.regions;
  child.fds <- Hashtbl.copy p.fds;
  child.next_fd <- p.next_fd;
  child.env <- p.env;
  child.cwd <- p.cwd;
  child.sig_handlers <- Hashtbl.copy p.sig_handlers;
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
  Regs.set nt.regs RSP stack;
  Regs.set nt.regs RDI arg;
  Regs.set nt.regs RAX 0;
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
      ktrace_count w th.t_proc "sud.disarm";
      ktrace_event w th
        (K23_obs.Event.Sud_toggle { armed = false; sel_addr = 0; allow_lo = 0; allow_hi = 0 });
      0
    end
    else if args.(1) = Sysno.pr_sys_dispatch_on then begin
      th.sud <- Some { sel_addr = args.(4); allow_lo = args.(2); allow_hi = args.(2) + args.(3) };
      w.sud_ever_armed <- true;
      ktrace_count w th.t_proc "sud.arm";
      ktrace_event w th
        (K23_obs.Event.Sud_toggle
           { armed = true; sel_addr = args.(4); allow_lo = args.(2); allow_hi = args.(2) + args.(3) });
      0
    end
    else Errno.ret Errno.einval
  | _ -> 0

(* ------------------------------------------------------------------ *)
(* Dispatch                                                            *)

(* Errno-storm half of the fault plane (DESIGN.md §4i): rolled before
   the implementation runs — and before any availability check — so a
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
      if nr = Sysno.mmap then
        if Faults.roll_enomem plan ~key then inject "enomem" Errno.enomem else None
      else if
        nr = Sysno.socket || nr = Sysno.open_ || nr = Sysno.openat || nr = Sysno.dup
        || nr = Sysno.accept
      then
        if Faults.roll_emfile plan ~key then
          if Faults.flip ~key then inject "emfile" Errno.emfile else inject "enfile" Errno.enfile
        else if nr = Sysno.accept && Faults.roll_eagain plan ~key then
          inject "eagain" Errno.eagain
        else None
      else if nr = Sysno.connect then
        if Faults.roll_reset plan ~key then inject "reset" Errno.econnreset else None
      else if is_rw nr then (
        match Hashtbl.find_opt p.fds args.(0) with
        | Some (Fd_conn _) ->
          if Faults.roll_reset plan ~key then inject "reset" Errno.econnreset
          else if Faults.roll_eagain plan ~key then inject "eagain" Errno.eagain
          else None
        | _ -> None)
      else None

let dispatch (ctx : ctx) ~nr ~args : int =
  let w = ctx.world and th = ctx.thread in
  let p = th.t_proc in
  match fault_errno w th p ~nr ~args with
  | Some ret -> ret
  | None -> (
  match nr with
  | n when n = Sysno.read -> do_read w th args.(0) args.(1) args.(2)
  | n when n = Sysno.write -> do_write w th args.(0) args.(1) args.(2)
  | n when n = Sysno.open_ -> (
    match read_user_cstr p args.(0) with
    | Error e -> Errno.ret e
    | Ok path -> do_open w th path args.(1))
  | n when n = Sysno.openat -> (
    match read_user_cstr p args.(1) with
    | Error e -> Errno.ret e
    | Ok path -> do_open w th path args.(2))
  | n when n = Sysno.close ->
    if Hashtbl.mem p.fds args.(0) then begin
      (match Hashtbl.find_opt p.fds args.(0) with
      | Some (Fd_conn (c, ep)) -> Net.close c ep
      | Some (Fd_listener l) -> Net.unlisten w.net l.port
      | _ -> ());
      Hashtbl.remove p.fds args.(0);
      0
    end
    else Errno.ret Errno.ebadf
  | n when n = Sysno.stat || n = Sysno.access -> (
    match read_user_cstr p args.(0) with
    | Error e -> Errno.ret e
    | Ok path -> if Vfs.exists w.vfs (resolve_path p path) then 0 else Errno.ret Errno.enoent)
  | n when n = Sysno.fstat -> (
    match Hashtbl.find_opt p.fds args.(0) with
    | Some (Fd_file f) ->
      (try
         Memory.write_u64_raw p.mem args.(1) (Vfs.size f.file);
         0
       with Memory.Fault _ -> Errno.ret Errno.efault)
    | Some _ ->
      (try
         Memory.write_u64_raw p.mem args.(1) 0;
         0
       with Memory.Fault _ -> Errno.ret Errno.efault)
    | None -> Errno.ret Errno.ebadf)
  | n when n = Sysno.lseek -> (
    match Hashtbl.find_opt p.fds args.(0) with
    | Some (Fd_file f) ->
      let pos =
        match args.(2) with
        | 0 -> args.(1) (* SEEK_SET *)
        | 1 -> f.pos + args.(1)
        | 2 -> Vfs.size f.file + args.(1)
        | _ -> -1
      in
      if pos < 0 then Errno.ret Errno.einval
      else begin
        f.pos <- pos;
        pos
      end
    | _ -> Errno.ret Errno.ebadf)
  | n when n = Sysno.mmap -> do_mmap w th args.(0) args.(1) args.(2) args.(3) args.(4) args.(5)
  | n when n = Sysno.mprotect -> do_mprotect w th args.(0) args.(1) args.(2)
  | n when n = Sysno.munmap ->
    Memory.unmap p.mem ~addr:args.(0) ~len:args.(1);
    remove_region p ~start:args.(0);
    0
  | n when n = Sysno.brk ->
    if args.(0) > p.brk_cur then begin
      let old = Memory.align_up p.brk_cur in
      let new_ = Memory.align_up args.(0) in
      if new_ > old then Memory.map p.mem ~addr:old ~len:(new_ - old) ~perm:Memory.perm_rw;
      p.brk_cur <- args.(0)
    end;
    p.brk_cur
  | n when n = Sysno.rt_sigaction ->
    if args.(1) = 0 then Hashtbl.remove p.sig_handlers args.(0)
    else Hashtbl.replace p.sig_handlers args.(0) args.(1);
    0
  | n when n = Sysno.rt_sigprocmask -> 0
  | n when n = Sysno.rt_sigreturn ->
    do_sigreturn w th;
    Regs.get th.regs RAX
  | n when n = Sysno.ioctl || n = Sysno.fcntl || n = Sysno.futex || n = Sysno.arch_prctl -> 0
  | n when n = Sysno.pipe ->
    let q = Net.Byteq.create () in
    let rfd = alloc_fd p (Fd_pipe_r q) in
    let wfd = alloc_fd p (Fd_pipe_w q) in
    (try
       Memory.write_u64_raw p.mem args.(0) rfd;
       Memory.write_u64_raw p.mem (args.(0) + 8) wfd;
       0
     with Memory.Fault _ -> Errno.ret Errno.efault)
  | n when n = Sysno.dup -> (
    match Hashtbl.find_opt p.fds args.(0) with
    | Some fd -> alloc_fd p fd
    | None -> Errno.ret Errno.ebadf)
  | n when n = Sysno.sched_yield -> 0
  | n when n = Sysno.nanosleep ->
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
    end
  | n when n = Sysno.getpid -> p.pid
  | n when n = Sysno.gettid -> th.tid
  | n when n = Sysno.socket ->
    (* socket(2): the fd is re-purposed by bind/listen/connect *)
    alloc_fd p Fd_devnull
  | n when n = Sysno.bind ->
    (* sockaddr is modelled as a bare port number (loopback only) *)
    if Hashtbl.mem p.fds args.(0) then begin
      Hashtbl.replace w.net.Net.bound_ports (p.pid, args.(0)) args.(1);
      0
    end
    else Errno.ret Errno.ebadf
  | n when n = Sysno.listen -> (
    match Hashtbl.find_opt w.net.Net.bound_ports (p.pid, args.(0)) with
    | None -> Errno.ret Errno.einval
    | Some port -> (
      match Net.listen w.net port with
      | Error `Addrinuse -> Errno.ret Errno.eaddrinuse
      | Ok l ->
        Hashtbl.replace p.fds args.(0) (Fd_listener l);
        0))
  | n when n = Sysno.accept -> (
    match Hashtbl.find_opt p.fds args.(0) with
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
    | _ -> Errno.ret Errno.ebadf)
  | n when n = Sysno.connect -> (
    charge w th 400;
    match Net.connect w.net args.(1) with
    | Error `Refused -> Errno.ret Errno.econnrefused
    | Ok c ->
      Hashtbl.replace p.fds args.(0) (Fd_conn (c, Net.A));
      0)
  | n when n = Sysno.sendto -> do_write w th args.(0) args.(1) args.(2)
  | n when n = Sysno.recvfrom -> do_read w th args.(0) args.(1) args.(2)
  | n when n = Sysno.shutdown -> (
    match Hashtbl.find_opt p.fds args.(0) with
    | Some (Fd_conn (c, ep)) ->
      Net.close c ep;
      0
    | _ -> Errno.ret Errno.ebadf)
  | n when n = Sysno.fork -> do_fork w th
  | n when n = Sysno.clone -> do_clone_thread w th ~fn:args.(0) ~stack:args.(1) ~arg:args.(2)
  | n when n = Sysno.execve -> (
    match (read_user_cstr p args.(0), read_user_strv p args.(1), read_user_strv p args.(2)) with
    | Ok path, Ok argv, Ok envp -> (
      match w.execve_impl with
      | None -> panic "no execve implementation installed"
      | Some f -> f ctx ~path ~argv ~envp)
    | _ -> Errno.ret Errno.efault)
  | n when n = Sysno.exit ->
    th.state <- Dead;
    if List.for_all (fun t -> t.state = Dead) p.threads then exit_proc p ~status:args.(0);
    0
  | n when n = Sysno.exit_group ->
    exit_proc p ~status:args.(0);
    0
  | n when n = Sysno.wait4 -> do_wait4 w th ~pid_sel:args.(0) ~status_ptr:args.(1)
  | n when n = Sysno.kill -> (
    match List.find_opt (fun q -> q.pid = args.(0)) w.procs with
    | Some q -> (
      let signo = args.(1) in
      (* a registered handler catches the signal instead of dying; the
         delivery wakes a thread parked in a blocking syscall with
         -EINTR before its deadline (the signal-wake contract
         test_faults pins) *)
      match
        if Hashtbl.mem q.sig_handlers signo then
          List.find_opt (fun t -> t.state <> Dead) q.threads
        else None
      with
      | Some target ->
        deliver_signal w target ~signo ~sysno:0 ~site:0 ~args:[||];
        0
      | None ->
        kill_proc q ~signal:signo;
        0)
    | None -> Errno.ret Errno.esrch)
  | n when n = Sysno.getcwd -> (
    try
      Memory.write_cstr p.mem args.(0) p.cwd;
      String.length p.cwd + 1
    with Memory.Fault _ -> Errno.ret Errno.efault)
  | n when n = Sysno.chdir -> (
    match read_user_cstr p args.(0) with
    | Error e -> Errno.ret e
    | Ok path ->
      let path = resolve_path p path in
      if Vfs.is_dir w.vfs path then begin
        p.cwd <- path;
        0
      end
      else Errno.ret Errno.enoent)
  | n when n = Sysno.mkdir -> (
    match read_user_cstr p args.(0) with
    | Error e -> Errno.ret e
    | Ok path -> (
      match Vfs.mkdir_p w.vfs (resolve_path p path) with Ok _ -> 0 | Error e -> vfs_err e))
  | n when n = Sysno.unlink -> (
    match read_user_cstr p args.(0) with
    | Error e -> Errno.ret e
    | Ok path -> ( match Vfs.unlink w.vfs (resolve_path p path) with Ok () -> 0 | Error e -> vfs_err e))
  | n when n = Sysno.rename -> (
    match (read_user_cstr p args.(0), read_user_cstr p args.(1)) with
    | Ok src, Ok dst -> (
      match Vfs.rename w.vfs (resolve_path p src) (resolve_path p dst) with
      | Ok () -> 0
      | Error e -> vfs_err e)
    | _ -> Errno.ret Errno.efault)
  | n when n = Sysno.chmod -> (
    match read_user_cstr p args.(0) with
    | Error e -> Errno.ret e
    | Ok path ->
      if Vfs.path_immutable w.vfs (resolve_path p path) then Errno.ret Errno.eperm else 0)
  | n when n = Sysno.ftruncate -> (
    match Hashtbl.find_opt p.fds args.(0) with
    | Some (Fd_file f) ->
      if Vfs.immutable f.file then Errno.ret Errno.eperm
      else (match Vfs.truncate f.file args.(1) with Ok () -> 0 | Error e -> vfs_err e)
    | _ -> Errno.ret Errno.ebadf)
  | n when n = Sysno.fsync ->
    charge w th 3000;
    0
  | n when n = Sysno.getdents64 -> (
    match Hashtbl.find_opt p.fds args.(0) with
    | Some (Fd_file f) when Vfs.size f.file = 0 && Vfs.is_dir w.vfs f.path -> (
      (* opened a directory: emit the listing once *)
      match Vfs.listdir w.vfs f.path with
      | Error e -> vfs_err e
      | Ok names ->
        if f.pos > 0 then 0
        else begin
          let blob = String.concat "\000" names ^ "\000" in
          (try
             Memory.write_bytes_raw p.mem args.(1) (Bytes.of_string blob);
             f.pos <- 1;
             String.length blob
           with Memory.Fault _ -> Errno.ret Errno.efault)
        end)
    | Some _ -> 0
    | None -> Errno.ret Errno.ebadf)
  | n when n = Sysno.gettimeofday || n = Sysno.clock_gettime ->
    let ns = now w * 10 / 32 in
    (try
       let buf = if n = Sysno.clock_gettime then args.(1) else args.(0) in
       Memory.write_u64_raw p.mem buf ns;
       0
     with Memory.Fault _ -> Errno.ret Errno.efault)
  | n when n = Sysno.prctl -> do_prctl w th args
  | n when n = Sysno.pkey_alloc ->
    let k = p.next_pkey in
    p.next_pkey <- k + 1;
    if k > 15 then Errno.ret Errno.enomem else k
  | n when n = Sysno.pkey_free -> 0
  | n when n = Sysno.pkey_mprotect ->
    let ret = do_mprotect w th args.(0) args.(1) args.(2) in
    if ret = 0 then Memory.set_pkey p.mem ~addr:args.(0) ~len:args.(1) ~pkey:args.(3);
    ret
  | n when n = Sysno.ptrace || n = Sysno.process_vm_readv || n = Sysno.process_vm_writev ->
    (* tracers are host-level agents in this model; the syscalls exist
       only so strace-style examples can show them *)
    Errno.ret Errno.enosys
  | _ ->
    (* unknown / non-existent syscalls, including the microbenchmark's
       syscall 500 and K23's fake syscalls when no tracer intercepts
       them: ENOSYS, as on Linux *)
    Errno.ret Errno.enosys)
