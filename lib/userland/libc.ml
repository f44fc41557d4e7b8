(** The simulated C library.

    Every syscall wrapper is genuine simulated code containing one
    [syscall] instruction at a fixed offset inside the libc image —
    exactly the sites that zpoline/lazypoline/K23 discover and rewrite.
    The library also ships:

    - a vdso-aware [clock_gettime] (calls [__vdso_clock_gettime] when
      the vdso is mapped — the kernel-bypassing path of pitfall P2b);
    - a generic [syscall] function (libc syscall(3)), used by the
      microbenchmark and by the Listing-2 PoC;
    - environment helpers ([getenv]/[setenv]/[unsetenv]/[build_envp]);
    - [dlopen]/[dlsym] (pitfall P2a: code loaded after the rewriters
      ran);
    - a tiny allocator and string helpers as host functions;
    - a constructor that performs the locale/brk startup syscalls real
      glibc issues before main. *)

open K23_isa
open K23_kernel
open K23_machine

let path = "/usr/lib/x86_64-linux-gnu/libc.so.6"

(* (symbol, syscall nr, needs r10<-rcx shuffle) *)
let wrappers =
  [
    ("read", Sysno.read, false);
    ("write", Sysno.write, false);
    ("open", Sysno.open_, false);
    ("openat", Sysno.openat, true);
    ("close", Sysno.close, false);
    ("stat", Sysno.stat, false);
    ("fstat", Sysno.fstat, false);
    ("lseek", Sysno.lseek, false);
    ("mmap", Sysno.mmap, true);
    ("mprotect", Sysno.mprotect, false);
    ("munmap", Sysno.munmap, false);
    ("brk", Sysno.brk, false);
    ("rt_sigaction", Sysno.rt_sigaction, false);
    ("rt_sigprocmask", Sysno.rt_sigprocmask, false);
    ("ioctl", Sysno.ioctl, false);
    ("access", Sysno.access, false);
    ("pipe", Sysno.pipe, false);
    ("sched_yield", Sysno.sched_yield, false);
    ("dup", Sysno.dup, false);
    ("nanosleep", Sysno.nanosleep, false);
    ("getpid", Sysno.getpid, false);
    ("gettid", Sysno.gettid, false);
    ("socket", Sysno.socket, false);
    ("connect", Sysno.connect, false);
    ("accept", Sysno.accept, false);
    ("sendto", Sysno.sendto, true);
    ("recvfrom", Sysno.recvfrom, true);
    ("shutdown", Sysno.shutdown, false);
    ("bind", Sysno.bind, false);
    ("listen", Sysno.listen, false);
    ("clone", Sysno.clone, false);
    ("fork", Sysno.fork, false);
    ("execve", Sysno.execve, false);
    ("exit_thread", Sysno.exit, false);
    ("wait4", Sysno.wait4, true);
    ("kill", Sysno.kill, false);
    ("fcntl", Sysno.fcntl, false);
    ("fsync", Sysno.fsync, false);
    ("ftruncate", Sysno.ftruncate, false);
    ("getcwd", Sysno.getcwd, false);
    ("chdir", Sysno.chdir, false);
    ("rename", Sysno.rename, false);
    ("mkdir", Sysno.mkdir, false);
    ("unlink", Sysno.unlink, false);
    ("chmod", Sysno.chmod, false);
    ("gettimeofday", Sysno.gettimeofday, false);
    ("prctl", Sysno.prctl, true);
    ("futex", Sysno.futex, true);
    ("getdents64", Sysno.getdents64, false);
    ("exit", Sysno.exit_group, false);
    ("pkey_alloc", Sysno.pkey_alloc, false);
    ("pkey_mprotect", Sysno.pkey_mprotect, true);
  ]

(* Real libc puts kilobytes of unrelated code between syscall wrappers;
   the padding keeps logged offsets realistically large (Figure 3) and
   gives static disassemblers a realistic amount of text to sweep. *)
let wrapper_items i (name, nr, r10) =
  [ Asm.Zeros (3000 + (i * 211 mod 2000)); Asm.Label name ]
  @ (if r10 then [ Asm.I (Insn.Mov_rr (R10, RCX)) ] else [])
  @ [ Asm.I (Insn.Mov_ri (RAX, nr)); Asm.I Insn.Syscall; Asm.I Insn.Ret ]

(* ------------------------------------------------------------------ *)
(* Host functions                                                      *)

open Kern

let ret ctx v = Regs.set ctx.thread.regs RAX v
let arg ctx r = Regs.get ctx.thread.regs r

let read_str ctx addr = Memory.read_cstr ctx.thread.t_proc.mem addr

(** getenv(name) -> pointer to value (in scratch) or NULL *)
let libc_getenv ctx =
  let p = ctx.thread.t_proc in
  let name = read_str ctx (arg ctx RDI) in
  match List.assoc_opt name p.env with
  | None -> ret ctx 0
  | Some v -> ret ctx (scratch_write_cstr p v)

let libc_setenv ctx =
  let p = ctx.thread.t_proc in
  let name = read_str ctx (arg ctx RDI) in
  let value = read_str ctx (arg ctx RSI) in
  p.env <- (name, value) :: List.remove_assoc name p.env;
  ret ctx 0

(** unsetenv("LD_PRELOAD") — the P1a bypass primitive. *)
let libc_unsetenv ctx =
  let p = ctx.thread.t_proc in
  let name = read_str ctx (arg ctx RDI) in
  p.env <- List.remove_assoc name p.env;
  ret ctx 0

(** build_envp() -> pointer to a NULL-terminated char*[] snapshot of the
    current environment (what execvp passes along). *)
let libc_build_envp ctx =
  let p = ctx.thread.t_proc in
  let strs = List.map (fun (k, v) -> k ^ "=" ^ v) p.env in
  let ptrs = List.map (scratch_write_cstr p) strs in
  let arr = scratch_alloc p (8 * (List.length ptrs + 1)) in
  List.iteri (fun i a -> Memory.write_u64_raw p.mem (arr + (8 * i)) a) ptrs;
  Memory.write_u64_raw p.mem (arr + (8 * List.length ptrs)) 0;
  ret ctx arr

(** malloc: trivial bump allocator over fresh anonymous pages. *)
type Kern.pstate += Heap of int ref

let heap_key = "libc.heap"

let libc_malloc ctx =
  let p = ctx.thread.t_proc in
  let size = arg ctx RDI in
  let cur =
    match Hashtbl.find_opt p.pstates heap_key with
    | Some (Heap r) -> r
    | _ ->
      let r = ref 0x0200_0000 in
      Hashtbl.replace p.pstates heap_key (Heap r);
      r
  in
  let base = !cur in
  let len = Memory.align_up (max 16 size) in
  Memory.map p.mem ~addr:(Memory.align_down base) ~len:(len + Memory.page_size) ~perm:Memory.perm_rw;
  cur := base + len;
  ret ctx base

let libc_memcpy ctx =
  let p = ctx.thread.t_proc in
  let dst = arg ctx RDI and src = arg ctx RSI and n = arg ctx RDX in
  let b = Memory.read_bytes_raw p.mem src n in
  Memory.write_bytes_raw p.mem dst b;
  ret ctx dst

let libc_strlen ctx =
  ret ctx (String.length (read_str ctx (arg ctx RDI)))

let libc_strcmp ctx =
  let a = read_str ctx (arg ctx RDI) and b = read_str ctx (arg ctx RSI) in
  ret ctx (compare a b)

(** dlopen phase 1: map the library, apply relocations, return the
    constructor address (0 if none) in rax and the handle in r12. *)
let libc_dlopen_load ctx =
  let w = ctx.world in
  let p = ctx.thread.t_proc in
  let pathname = read_str ctx (arg ctx RDI) in
  match find_library w pathname with
  | None ->
    ret ctx 0;
    Regs.set ctx.thread.regs R12 0
  | Some im ->
    charge w ctx.thread 2000;
    let t, _ = Mapper.map_image w p im in
    Mapper.apply_relocs p im;
    let ctor = match im.im_init with Some s -> Mapper.image_sym p im s | None -> None in
    ret ctx (Option.value ctor ~default:0);
    Regs.set ctx.thread.regs R12 t

let libc_dlopen_finish ctx = ret ctx (Regs.get ctx.thread.regs R12)

let libc_dlsym ctx =
  let p = ctx.thread.t_proc in
  let name = read_str ctx (arg ctx RSI) in
  ret ctx (Option.value (Mapper.lookup_sym p name) ~default:0)

(* ------------------------------------------------------------------ *)
(* Image assembly                                                      *)

let items =
  List.concat (List.mapi wrapper_items wrappers)
  @ [
      (* libc syscall(3): shift userspace args into the kernel ABI *)
      Asm.Label "syscall";
      Asm.I (Insn.Mov_rr (RAX, RDI));
      Asm.I (Insn.Mov_rr (RDI, RSI));
      Asm.I (Insn.Mov_rr (RSI, RDX));
      Asm.I (Insn.Mov_rr (RDX, RCX));
      Asm.I (Insn.Mov_rr (R10, R8));
      Asm.I (Insn.Mov_rr (R8, R9));
      Asm.I Insn.Syscall;
      Asm.I Insn.Ret;
      (* clock_gettime: vdso fast path when available *)
      Asm.Label "clock_gettime";
      Asm.Mov_sym (Reg.R11, "__vdso_clock_gettime");
      Asm.I (Insn.Test_rr (R11, R11));
      Asm.Jc (Insn.Z, "cg_fallback");
      Asm.I (Insn.Jmp_reg R11);
      Asm.Label "cg_fallback";
      Asm.I (Insn.Mov_ri (RAX, Sysno.clock_gettime));
      Asm.I Insn.Syscall;
      Asm.I Insn.Ret;
      (* host-function-backed utilities *)
      Asm.Label "getenv";
      Asm.Vcall_named "libc_getenv";
      Asm.I Insn.Ret;
      Asm.Label "setenv";
      Asm.Vcall_named "libc_setenv";
      Asm.I Insn.Ret;
      Asm.Label "unsetenv";
      Asm.Vcall_named "libc_unsetenv";
      Asm.I Insn.Ret;
      Asm.Label "build_envp";
      Asm.Vcall_named "libc_build_envp";
      Asm.I Insn.Ret;
      Asm.Label "malloc";
      Asm.Vcall_named "libc_malloc";
      Asm.I Insn.Ret;
      Asm.Label "memcpy";
      Asm.Vcall_named "libc_memcpy";
      Asm.I Insn.Ret;
      Asm.Label "strlen";
      Asm.Vcall_named "libc_strlen";
      Asm.I Insn.Ret;
      Asm.Label "strcmp";
      Asm.Vcall_named "libc_strcmp";
      Asm.I Insn.Ret;
      Asm.Label "dlopen";
      Asm.Vcall_named "libc_dlopen_load";
      Asm.I (Insn.Test_rr (RAX, RAX));
      Asm.Jc (Insn.Z, "dlopen_done");
      Asm.I (Insn.Call_reg RAX);
      Asm.Label "dlopen_done";
      Asm.Vcall_named "libc_dlopen_finish";
      Asm.I Insn.Ret;
      Asm.Label "dlsym";
      Asm.Vcall_named "libc_dlsym";
      Asm.I Insn.Ret;
      (* constructor: the startup syscalls glibc issues before main
         (locale archive, brk growth, signal mask bookkeeping) *)
      Asm.Label "__libc_init";
      Asm.I (Insn.Mov_ri (RAX, Sysno.brk));
      Asm.I (Insn.Xor_rr (RDI, RDI));
      Asm.I Insn.Syscall;
      Asm.I (Insn.Mov_rr (RDI, RAX));
      Asm.I (Insn.Add_ri (RDI, 127));
      Asm.I (Insn.Mov_ri (RAX, Sysno.brk));
      Asm.I Insn.Syscall;
      Asm.I (Insn.Mov_ri (RAX, Sysno.openat));
      Asm.I (Insn.Mov_ri (RDI, -100));
      Asm.Mov_sym (Reg.RSI, "__libc_locale_path");
      Asm.I (Insn.Xor_rr (RDX, RDX));
      Asm.I Insn.Syscall;
      Asm.I (Insn.Mov_rr (RDI, RAX));
      Asm.I (Insn.Mov_ri (RAX, Sysno.fstat));
      Asm.Mov_sym (Reg.RSI, "__libc_buf");
      Asm.I Insn.Syscall;
      Asm.I (Insn.Mov_ri (RAX, Sysno.read));
      Asm.Mov_sym (Reg.RSI, "__libc_buf");
      Asm.I (Insn.Mov_ri (RDX, 256));
      Asm.I Insn.Syscall;
      Asm.I (Insn.Mov_ri (RAX, Sysno.close));
      Asm.I Insn.Syscall;
      Asm.I (Insn.Mov_ri (RAX, Sysno.rt_sigprocmask));
      Asm.I (Insn.Xor_rr (RDI, RDI));
      Asm.I Insn.Syscall;
      Asm.I (Insn.Mov_ri (RAX, Sysno.ioctl));
      Asm.I (Insn.Mov_ri (RDI, 1));
      Asm.I Insn.Syscall;
      Asm.I (Insn.Mov_ri (RAX, Sysno.fcntl));
      Asm.I (Insn.Mov_ri (RDI, 1));
      Asm.I Insn.Syscall;
      (* locale / gconv probing, as real glibc does *)
      Asm.I (Insn.Mov_ri (RAX, Sysno.access));
      Asm.Mov_sym (Reg.RDI, "__libc_locale_path");
      Asm.I Insn.Syscall;
      Asm.I (Insn.Mov_ri (RAX, Sysno.stat));
      Asm.Mov_sym (Reg.RDI, "__libc_locale_path");
      Asm.Mov_sym (Reg.RSI, "__libc_buf");
      Asm.I Insn.Syscall;
      Asm.I (Insn.Mov_ri (RAX, Sysno.getpid));
      Asm.I Insn.Syscall;
      Asm.I (Insn.Mov_ri (RAX, Sysno.gettid));
      Asm.I Insn.Syscall;
      Asm.I (Insn.Mov_ri (RAX, Sysno.sched_yield));
      Asm.I Insn.Syscall;
      Asm.I (Insn.Mov_ri (RAX, Sysno.rt_sigaction));
      Asm.I (Insn.Xor_rr (RDI, RDI));
      Asm.I (Insn.Xor_rr (RSI, RSI));
      Asm.I Insn.Syscall;
      Asm.I Insn.Ret;
      (* data *)
      Asm.Section `Data;
      Asm.Label "__libc_locale_path";
      Asm.Strz "/usr/lib/locale/locale-archive";
      Asm.Label "__libc_buf";
      Asm.Zeros 256;
      Asm.Label "environ";
      Asm.Quad 0;
    ]

let host_fns =
  [
    ("libc_getenv", libc_getenv);
    ("libc_setenv", libc_setenv);
    ("libc_unsetenv", libc_unsetenv);
    ("libc_build_envp", libc_build_envp);
    ("libc_malloc", libc_malloc);
    ("libc_memcpy", libc_memcpy);
    ("libc_strlen", libc_strlen);
    ("libc_strcmp", libc_strcmp);
    ("libc_dlopen_load", libc_dlopen_load);
    ("libc_dlopen_finish", libc_dlopen_finish);
    ("libc_dlsym", libc_dlsym);
  ]

let build () : image =
  {
    im_name = path;
    im_prog = Asm.assemble items;
    im_host_fns = host_fns;
    im_init = Some "__libc_init";
    im_entry = None;
    im_needed = [];
    im_owner = Libc;
  }

(* The image holds no per-instance state, so it is assembled and split
   into page buffers once per domain and shared by every world there
   (DESIGN.md §4f). *)
let image_key = Domain.DLS.new_key (fun () -> Mapper.share (build ()))

(** The libc image, the same record for every world of a domain. *)
let image () = Domain.DLS.get image_key
