(** Simulated coreutils: pwd, touch, ls, cat, clear.

    Each utility performs its real job on the simulated VFS and is
    written to exercise the same {e number of distinct} syscall sites
    the paper measured in its offline phase (Table 2: pwd 7, touch 9,
    ls 10, cat 11, clear 13).  The counts refer to unique
    [syscall]/[sysenter] instructions observed after the interposition
    library loads, i.e. libc wrapper sites used by main. *)

open K23_isa
open K23_kernel
module Libc = K23_userland.Libc

(* common prologue every glibc program effectively runs: brk + fstat
   on stdout (2 unique sites) *)
let prologue =
  [
    Asm.I (Insn.Xor_rr (RDI, RDI));
    Asm.Call_sym "brk";
    Asm.I (Insn.Mov_ri (RDI, 1));
    Asm.Mov_sym (Reg.RSI, "statbuf");
    Asm.Call_sym "fstat";
  ]

let data =
  [
    Asm.Section `Data;
    Asm.Label "statbuf";
    Asm.Zeros 64;
    Asm.Label "buf";
    Asm.Zeros 4096;
    Asm.Label "nl";
    Asm.Strz "\n";
    Asm.Label "dot";
    Asm.Strz ".";
    Asm.Label "touch_path";
    Asm.Strz "/tmp/touched";
    Asm.Label "cat_path";
    Asm.Strz "/etc/hostname";
    Asm.Label "clear_seq";
    Asm.Strz "\x1b[H\x1b[2J";
    Asm.Label "terminfo";
    Asm.Strz "/usr/share/terminfo/x/xterm";
  ]

(* pwd: 7 unique sites = brk fstat getcwd write munmap close(getdents'
   fd? no) ... exactly: brk, fstat, getcwd, write, munmap, close,
   exit_group *)
let pwd_items =
  [ Asm.Label "main" ] @ prologue
  @ [
      Asm.Mov_sym (Reg.RDI, "buf");
      Asm.I (Insn.Mov_ri (RSI, 4096));
      Asm.Call_sym "getcwd";
      (* write the cwd (we print a fixed-size prefix for simplicity) *)
      Asm.I (Insn.Mov_ri (RDI, 1));
      Asm.Mov_sym (Reg.RSI, "buf");
      Asm.I (Insn.Mov_ri (RDX, 1));
      Asm.Call_sym "write";
      Asm.I (Insn.Mov_ri (RDI, 0x7100_0000));
      Asm.I (Insn.Mov_ri (RSI, 4096));
      Asm.Call_sym "munmap";
      Asm.I (Insn.Mov_ri (RDI, 0));
      Asm.Call_sym "close";
    ]
  @ Appkit.exit_with 0 @ data

(* touch: 9 = brk fstat openat dup chmod close getpid write exit *)
let touch_items =
  [ Asm.Label "main" ] @ prologue
  @ [
      Asm.I (Insn.Mov_ri (RDI, -100));
      Asm.Mov_sym (Reg.RSI, "touch_path");
      Asm.I (Insn.Mov_ri (RDX, 0x40));  (* O_CREAT *)
      Asm.Call_sym "openat";
      Asm.I (Insn.Mov_rr (R14, RAX));
      Asm.I (Insn.Mov_rr (RDI, R14));
      Asm.Call_sym "dup";
      Asm.Mov_sym (Reg.RDI, "touch_path");
      Asm.I (Insn.Mov_ri (RSI, 0o644));
      Asm.Call_sym "chmod";
      Asm.I (Insn.Mov_rr (RDI, R14));
      Asm.Call_sym "close";
      Asm.Call_sym "getpid";
      Asm.I (Insn.Mov_ri (RDI, 1));
      Asm.Mov_sym (Reg.RSI, "nl");
      Asm.I (Insn.Mov_ri (RDX, 0));
      Asm.Call_sym "write";
    ]
  @ Appkit.exit_with 0 @ data

(* ls: 10 = brk fstat openat getdents64 write close stat ioctl mmap
   exit *)
let ls_items =
  [ Asm.Label "main" ] @ prologue
  @ [
      (* ioctl(1, TIOCGWINSZ) *)
      Asm.I (Insn.Mov_ri (RDI, 1));
      Asm.I (Insn.Mov_ri (RSI, 0x5413));
      Asm.Call_sym "ioctl";
      (* stat(".") *)
      Asm.Mov_sym (Reg.RDI, "dot");
      Asm.Mov_sym (Reg.RSI, "statbuf");
      Asm.Call_sym "stat";
      (* scratch arena like glibc's readdir buffer *)
      Asm.I (Insn.Mov_ri (RDI, 0));
      Asm.I (Insn.Mov_ri (RSI, 8192));
      Asm.I (Insn.Mov_ri (RDX, 3));
      Asm.I (Insn.Mov_ri (RCX, 0x20));
      Asm.I (Insn.Mov_ri (R8, -1));
      Asm.I (Insn.Mov_ri (R9, 0));
      Asm.Call_sym "mmap";
      (* opendir(".") + getdents + print *)
      Asm.I (Insn.Mov_ri (RDI, -100));
      Asm.Mov_sym (Reg.RSI, "dot");
      Asm.I (Insn.Mov_ri (RDX, 0));
      Asm.Call_sym "openat";
      Asm.I (Insn.Mov_rr (R14, RAX));
      Asm.I (Insn.Mov_rr (RDI, R14));
      Asm.Mov_sym (Reg.RSI, "buf");
      Asm.I (Insn.Mov_ri (RDX, 4096));
      Asm.Call_sym "getdents64";
      Asm.I (Insn.Mov_rr (RDX, RAX));
      Asm.I (Insn.Mov_ri (RDI, 1));
      Asm.Mov_sym (Reg.RSI, "buf");
      Asm.Call_sym "write";
      Asm.I (Insn.Mov_rr (RDI, R14));
      Asm.Call_sym "close";
    ]
  @ Appkit.exit_with 0 @ data

(* cat: 11 = brk fstat openat read write lseek mmap munmap close ioctl
   exit *)
let cat_items =
  [ Asm.Label "main" ] @ prologue
  @ [
      Asm.I (Insn.Mov_ri (RDI, 1));
      Asm.I (Insn.Mov_ri (RSI, 0x5401));
      Asm.Call_sym "ioctl";
      Asm.I (Insn.Mov_ri (RDI, 0));
      Asm.I (Insn.Mov_ri (RSI, 0x20000));
      Asm.I (Insn.Mov_ri (RDX, 3));
      Asm.I (Insn.Mov_ri (RCX, 0x20));
      Asm.I (Insn.Mov_ri (R8, -1));
      Asm.I (Insn.Mov_ri (R9, 0));
      Asm.Call_sym "mmap";
      Asm.I (Insn.Mov_rr (R12, RAX));
      Asm.I (Insn.Mov_ri (RDI, -100));
      Asm.Mov_sym (Reg.RSI, "cat_path");
      Asm.I (Insn.Mov_ri (RDX, 0));
      Asm.Call_sym "openat";
      Asm.I (Insn.Mov_rr (R14, RAX));
      (* lseek to probe the size, then back *)
      Asm.I (Insn.Mov_rr (RDI, R14));
      Asm.I (Insn.Mov_ri (RSI, 0));
      Asm.I (Insn.Mov_ri (RDX, 2));
      Asm.Call_sym "lseek";
      Asm.I (Insn.Mov_rr (RDI, R14));
      Asm.I (Insn.Mov_ri (RSI, 0));
      Asm.I (Insn.Mov_ri (RDX, 0));
      Asm.Call_sym "lseek";
      Asm.Label "cat_loop";
      Asm.I (Insn.Mov_rr (RDI, R14));
      Asm.I (Insn.Mov_rr (RSI, R12));
      Asm.I (Insn.Mov_ri (RDX, 4096));
      Asm.Call_sym "read";
      Asm.I (Insn.Cmp_ri (RAX, 0));
      Asm.Jc (Insn.LE, "cat_done");
      Asm.I (Insn.Mov_rr (RDX, RAX));
      Asm.I (Insn.Mov_ri (RDI, 1));
      Asm.I (Insn.Mov_rr (RSI, R12));
      Asm.Call_sym "write";
      Asm.J "cat_loop";
      Asm.Label "cat_done";
      Asm.I (Insn.Mov_rr (RDI, R14));
      Asm.Call_sym "close";
      Asm.I (Insn.Mov_rr (RDI, R12));
      Asm.I (Insn.Mov_ri (RSI, 0x20000));
      Asm.Call_sym "munmap";
    ]
  @ Appkit.exit_with 0 @ data

(* clear: 13 = brk fstat openat read write ioctl mmap munmap close
   stat access getpid exit *)
let clear_items =
  [ Asm.Label "main" ] @ prologue
  @ [
      (* terminfo lookup *)
      Asm.Mov_sym (Reg.RDI, "terminfo");
      Asm.I (Insn.Mov_ri (RSI, 4));
      Asm.Call_sym "access";
      Asm.Mov_sym (Reg.RDI, "terminfo");
      Asm.Mov_sym (Reg.RSI, "statbuf");
      Asm.Call_sym "stat";
      Asm.I (Insn.Mov_ri (RDI, -100));
      Asm.Mov_sym (Reg.RSI, "terminfo");
      Asm.I (Insn.Mov_ri (RDX, 0));
      Asm.Call_sym "openat";
      Asm.I (Insn.Mov_rr (R14, RAX));
      Asm.I (Insn.Mov_ri (RDI, 0));
      Asm.I (Insn.Mov_ri (RSI, 4096));
      Asm.I (Insn.Mov_ri (RDX, 3));
      Asm.I (Insn.Mov_ri (RCX, 0x20));
      Asm.I (Insn.Mov_ri (R8, -1));
      Asm.I (Insn.Mov_ri (R9, 0));
      Asm.Call_sym "mmap";
      Asm.I (Insn.Mov_rr (R12, RAX));
      Asm.I (Insn.Mov_rr (RDI, R14));
      Asm.I (Insn.Mov_rr (RSI, R12));
      Asm.I (Insn.Mov_ri (RDX, 4096));
      Asm.Call_sym "read";
      Asm.I (Insn.Mov_rr (RDI, R14));
      Asm.Call_sym "close";
      Asm.I (Insn.Mov_rr (RDI, R12));
      Asm.I (Insn.Mov_ri (RSI, 4096));
      Asm.Call_sym "munmap";
      Asm.Call_sym "getpid";
      Asm.I (Insn.Mov_ri (RDI, 1));
      Asm.I (Insn.Mov_ri (RSI, 0x5401));
      Asm.Call_sym "ioctl";
      Asm.I (Insn.Mov_ri (RDI, 1));
      Asm.Mov_sym (Reg.RSI, "clear_seq");
      Asm.I (Insn.Mov_ri (RDX, 7));
      Asm.Call_sym "write";
    ]
  @ Appkit.exit_with 0 @ data

(* dependency sets mirror the real binaries: ls pulls in
   libselinux/libcap (and transitively libpcre2), which is a large part
   of why it issues >100 syscalls before main (Section 6.1) *)
let all =
  [
    ("pwd", pwd_items, [ Libc.path ]);
    ("touch", touch_items, [ Libc.path ]);
    ("ls", ls_items, [ Libc.path; K23_userland.Stdlibs.libselinux; K23_userland.Stdlibs.libcap ]);
    ("cat", cat_items, [ Libc.path ]);
    ("clear", clear_items, [ Libc.path; K23_userland.Stdlibs.libz ]);
  ]

(** Expected Table 2 counts. *)
let expected_sites = [ ("pwd", 7); ("touch", 9); ("ls", 10); ("cat", 11); ("clear", 13) ]

let path name = "/bin/" ^ name

let register_all w =
  List.iter
    (fun (name, items, needed) ->
      ignore (K23_userland.Sim.register_app w ~path:(path name) ~needed items))
    all;
  (* things the utilities touch *)
  ignore (Vfs.write_file w.Kern.vfs "/usr/share/terminfo/x/xterm" (String.make 600 't'));
  ignore (Vfs.mkdir_p w.Kern.vfs "/home/user")
