(** Stub dependency libraries.

    Real programs pull in more than libc; their presence matters here
    because every extra library adds loader syscalls to the startup
    window that LD_PRELOAD-based interposers cannot see (pitfall P2b).
    Each stub has a tiny constructor that issues a couple of syscalls,
    like real library initialisers do. *)

open K23_isa
open K23_kernel

let stub ~path ?(deps = []) () : Kern.image =
  let items =
    [
      Asm.Label "__stub_init";
      Asm.I (Insn.Mov_ri (RAX, Sysno.brk));
      Asm.I (Insn.Xor_rr (RDI, RDI));
      Asm.I Insn.Syscall;
      Asm.I (Insn.Mov_ri (RAX, Sysno.rt_sigprocmask));
      Asm.I (Insn.Xor_rr (RDI, RDI));
      Asm.I Insn.Syscall;
      Asm.I (Insn.Mov_ri (RAX, Sysno.getpid));
      Asm.I Insn.Syscall;
      Asm.I (Insn.Mov_ri (RAX, Sysno.fcntl));
      Asm.I (Insn.Xor_rr (RDI, RDI));
      Asm.I Insn.Syscall;
      Asm.I Insn.Ret;
    ]
  in
  {
    im_name = path;
    im_prog = Asm.assemble items;
    im_host_fns = [];
    im_init = Some "__stub_init";
    im_entry = None;
    im_needed = deps;
    im_owner = Lib (Filename.basename path);
  }

let libselinux = "/usr/lib/x86_64-linux-gnu/libselinux.so.1"
let libcap = "/usr/lib/x86_64-linux-gnu/libcap.so.2"
let libpcre = "/usr/lib/x86_64-linux-gnu/libpcre2-8.so.0"
let libcrypto = "/usr/lib/x86_64-linux-gnu/libcrypto.so.3"
let libz = "/usr/lib/x86_64-linux-gnu/libz.so.1"

let build () =
  [
    stub ~path:libselinux ~deps:[ libpcre ] ();
    stub ~path:libcap ();
    stub ~path:libpcre ();
    stub ~path:libcrypto ();
    stub ~path:libz ();
  ]

(* Stateless like libc: assembled and split once per domain (DLS),
   not per world. *)
let all_key = Domain.DLS.new_key (fun () -> List.map Mapper.share (build ()))

(** The five stub images, the same records for every world of a
    domain. *)
let all () = Domain.DLS.get all_key
