(** System call numbers and the facts the kernel, the fault plane and
    the fuzz oracle read about each one.  Values follow the Linux x86-64
    syscall table so that logs, traces and PoCs read like the real
    thing; the arm64 world uses the same numbers.

    Each number is defined once, by {!def}, with its name, its fault
    class and its result kind.  The handlers live in
    {!Syscalls.sysent}. *)

(** What the fault plane (DESIGN.md §4i) may draw for a call.  Every
    class but [No_faults] ticks the per-number schedule, so a blocking
    wait of any of them may also draw EINTR or a restart. *)
type fault =
  | No_faults
  | Blocking  (** nanosleep: the wait may get EINTR or a restart *)
  | Reap  (** wait4: the wait is only ever restarted *)
  | Enomem  (** mmap *)
  | Fd_alloc  (** EMFILE or ENFILE *)
  | Accept  (** EMFILE or ENFILE, then EAGAIN *)
  | Connect  (** ECONNRESET *)
  | Rw  (** short I/O; ECONNRESET or EAGAIN on a connection *)

(** What a non-negative result is, for the oracle's normalisation. *)
type result = Plain | Addr | Fd | Pid

type row = { name : string; fault : fault; result : result }

(* one slot per number up to K23's fake calls, the highest defined *)
let rows : row option array = Array.make 1026 None

let def ?(fault = No_faults) ?(result = Plain) nr name =
  rows.(nr) <- Some { name; fault; result };
  nr

let read = def 0 "read" ~fault:Rw
let write = def 1 "write" ~fault:Rw
let open_ = def 2 "open" ~fault:Fd_alloc ~result:Fd
let close = def 3 "close"
let stat = def 4 "stat"
let fstat = def 5 "fstat"
let lseek = def 8 "lseek"
let mmap = def 9 "mmap" ~fault:Enomem ~result:Addr
let mprotect = def 10 "mprotect"
let munmap = def 11 "munmap"
let brk = def 12 "brk" ~result:Addr
let rt_sigaction = def 13 "rt_sigaction"
let rt_sigprocmask = def 14 "rt_sigprocmask"
let rt_sigreturn = def 15 "rt_sigreturn"
let ioctl = def 16 "ioctl"
let access = def 21 "access"
let pipe = def 22 "pipe"
let sched_yield = def 24 "sched_yield"
let dup = def 32 "dup" ~fault:Fd_alloc ~result:Fd
let nanosleep = def 35 "nanosleep" ~fault:Blocking
let getpid = def 39 "getpid" ~result:Pid
let socket = def 41 "socket" ~fault:Fd_alloc ~result:Fd
let connect = def 42 "connect" ~fault:Connect
let accept = def 43 "accept" ~fault:Accept ~result:Fd
let sendto = def 44 "sendto" ~fault:Rw
let recvfrom = def 45 "recvfrom" ~fault:Rw
let shutdown = def 48 "shutdown"
let bind = def 49 "bind"
let listen = def 50 "listen"
let clone = def 56 "clone" ~result:Pid
let fork = def 57 "fork" ~result:Pid
let execve = def 59 "execve"
let exit = def 60 "exit"
let wait4 = def 61 "wait4" ~fault:Reap ~result:Pid
let kill = def 62 "kill"
let fcntl = def 72 "fcntl"
let fsync = def 74 "fsync"
let ftruncate = def 77 "ftruncate"
let getcwd = def 79 "getcwd"
let chdir = def 80 "chdir"
let rename = def 82 "rename"
let mkdir = def 83 "mkdir"
let unlink = def 87 "unlink"
let chmod = def 90 "chmod"
let gettimeofday = def 96 "gettimeofday"
let ptrace = def 101 "ptrace"
let prctl = def 157 "prctl"
let arch_prctl = def 158 "arch_prctl"
let gettid = def 186 "gettid" ~result:Pid
let futex = def 202 "futex"
let getdents64 = def 217 "getdents64"
let clock_gettime = def 228 "clock_gettime"
let exit_group = def 231 "exit_group"
let openat = def 257 "openat" ~fault:Fd_alloc ~result:Fd
let process_vm_readv = def 310 "process_vm_readv"
let process_vm_writev = def 311 "process_vm_writev"
let seccomp = def 317 "seccomp"
let pkey_mprotect = def 329 "pkey_mprotect"
let pkey_alloc = def 330 "pkey_alloc"
let pkey_free = def 331 "pkey_free"

(** The non-existent syscall number used by the paper's microbenchmark
    ("we created a system call stress test using a non-existent system
    call (system call number 500)"). *)
let bench_nonexistent = 500

(** K23's fake system calls (Section 5.3): non-existent numbers that the
    kernel redirects to ptracer while it is attached. *)
let k23_handoff = def 1023 "k23_handoff"
let k23_detach = def 1024 "k23_detach"
let k23_reattach = def 1025 "k23_reattach"

(* prctl operations *)
let pr_set_syscall_user_dispatch = 59
let pr_sys_dispatch_off = 0
let pr_sys_dispatch_on = 1

(* SUD selector byte states (include/uapi/linux/syscall_user_dispatch.h) *)
let syscall_dispatch_filter_allow = 0
let syscall_dispatch_filter_block = 1

(* Any int may reach these: a number with no row is [syscall_<n>],
   never faulted, with a plain result. *)
let row nr = if nr >= 0 && nr < Array.length rows then rows.(nr) else None
let name nr = match row nr with Some r -> r.name | None -> Printf.sprintf "syscall_%d" nr
let fault nr = match row nr with Some r -> r.fault | None -> No_faults
let result nr = match row nr with Some r -> r.result | None -> Plain
