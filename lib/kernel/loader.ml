(** Program loading: execve and the simulated dynamic linker.

    Fidelity matters here because of pitfall P2b: a real process issues
    {e many} system calls before any LD_PRELOAD-injected library gets a
    chance to initialise (the paper measured over 100 for [ls]).  We
    reproduce that by running an ld.so-like loader {e as simulated
    code}: execve maps the interpreter and hands it a {e plan} of
    loading steps, and the interpreter executes each step by issuing a
    genuine [syscall] instruction from its own text segment (openat /
    read / fstat / mmap / mprotect / close per library, plus the usual
    boilerplate).  LD_PRELOAD-library constructors — where interposers
    bootstrap — only run after all of that, exactly as on Linux. *)

open K23_machine
open K23_isa
open Kern

let at_fdcwd = -100

(* ------------------------------------------------------------------ *)
(* Loader plan                                                         *)

type op =
  | Op_sys of { nr : int; make_args : unit -> int array; post : int -> unit }
      (** issue one system call through the interpreter's syscall
          gadget; [make_args] runs just before (so it can use results
          of earlier steps), [post] receives the return value *)
  | Op_call of (unit -> int)  (** call a constructor at the returned address *)
  | Op_host of (unit -> unit)  (** loader-internal work with no syscall (relocation...) *)
  | Op_enter of (unit -> int * int * int)  (** (entry, argc, argv): transfer to main *)

type ldso_state = { mutable plan : op list; mutable post : (int -> unit) option }

type Kern.pstate += Ldso of ldso_state

let ldso_key = "ldso"

let get_state (p : proc) =
  match Hashtbl.find_opt p.pstates ldso_key with
  | Some (Ldso st) -> st
  | _ -> panic "pid %d: no ld.so state" p.pid

(* ------------------------------------------------------------------ *)
(* The interpreter's code                                              *)

let nosys nr = Op_sys { nr; make_args = (fun () -> [| 0; 0; 0; 0; 0; 0 |]); post = ignore }

(* The interpreter's dispatch registers: a flag ("issue a syscall" /
   "call a ctor" / "enter main") and a branch target.  Callee-saved on
   either ABI: rbx/r12 on x86, x19/x20 on arm64. *)
let dispatch_flag_index = function K23_isa.Isa.X86_64 -> 3 (* rbx *) | K23_isa.Isa.Arm64 -> 19
let dispatch_target_index = function K23_isa.Isa.X86_64 -> 12 (* r12 *) | K23_isa.Isa.Arm64 -> 20

let ldso_step (ctx : ctx) =
  let th = ctx.thread in
  let p = th.t_proc in
  let st = get_state p in
  let isa = ctx.world.isa in
  let seti i v = Regs.seti th.regs i v in
  let args_idx = K23_isa.Isa.arg_indices isa in
  let flag = dispatch_flag_index isa and target = dispatch_target_index isa in
  let rec go () =
    match st.plan with
    | [] -> panic "pid %d: ld.so plan exhausted" p.pid
    | op :: rest -> (
      st.plan <- rest;
      match op with
      | Op_host f ->
        f ();
        go ()
      | Op_sys { nr; make_args; post } ->
        let a = make_args () in
        seti (K23_isa.Isa.nr_index isa) nr;
        Array.iteri (fun i idx -> seti idx a.(i)) args_idx;
        seti flag 0;
        st.post <- Some post
      | Op_call get_addr ->
        seti flag 1;
        seti target (get_addr ())
      | Op_enter f ->
        let entry, argc, argv = f () in
        seti flag 2;
        seti target entry;
        seti args_idx.(0) argc;
        seti args_idx.(1) argv)
  in
  go ()

let ldso_ret (ctx : ctx) =
  let st = get_state ctx.thread.t_proc in
  match st.post with
  | Some f ->
    st.post <- None;
    f (Regs.get ctx.thread.regs RAX)
  | None -> ()

let ldso_path = "/usr/lib/ld-linux-x86-64.so.2"
let ldso_path_arm = "/usr/lib/ld-linux-aarch64.so.1"

let ldso_path_for = function
  | K23_isa.Isa.X86_64 -> ldso_path
  | K23_isa.Isa.Arm64 -> ldso_path_arm

let ldso_image () : image =
  let prog =
    Asm.assemble
      [
        Label "_start";
        Label "loop";
        Vcall_named "ldso_step";
        I (Cmp_ri (RBX, 0));
        Jc (NZ, "not_sys");
        Label "ldso_syscall_gadget";
        I Syscall;
        Vcall_named "ldso_ret";
        J "loop";
        Label "not_sys";
        I (Cmp_ri (RBX, 1));
        Jc (NZ, "enter_main");
        I (Call_reg R12);
        J "loop";
        Label "enter_main";
        I (Jmp_reg R12);
      ]
  in
  {
    im_name = ldso_path;
    im_prog = prog;
    im_host_fns = [ ("ldso_step", ldso_step); ("ldso_ret", ldso_ret) ];
    im_init = None;
    im_entry = Some "_start";
    im_needed = [];
    im_owner = Ldso;
  }

(** The same interpreter loop, compiled for AArch64: dispatch flag in
    x19, branch target in x20, the syscall gadget a real [svc #0] in
    the interpreter's own text (P2b fidelity: all pre-preload startup
    syscalls execute as genuine trapping instructions on ARM too). *)
let ldso_image_arm () : image =
  let open K23_isa_arm in
  let prog =
    Asm_arm.assemble
      [
        Asm_arm.Label "_start";
        Asm_arm.Label "loop";
        Asm_arm.Vcall_named "ldso_step";
        Asm_arm.I (Arm.Subs_imm (31, 19, 0)) (* cmp x19, #0 *);
        Asm_arm.Jc (K23_isa.Insn.NZ, "not_sys");
        Asm_arm.Label "ldso_syscall_gadget";
        Asm_arm.I (Arm.Svc 0);
        Asm_arm.Vcall_named "ldso_ret";
        Asm_arm.J "loop";
        Asm_arm.Label "not_sys";
        Asm_arm.I (Arm.Subs_imm (31, 19, 1)) (* cmp x19, #1 *);
        Asm_arm.Jc (K23_isa.Insn.NZ, "enter_main");
        Asm_arm.I (Arm.Blr 20);
        Asm_arm.J "loop";
        Asm_arm.Label "enter_main";
        Asm_arm.I (Arm.Br 20);
      ]
  in
  {
    im_name = ldso_path_arm;
    im_prog = prog;
    im_host_fns = [ ("ldso_step", ldso_step); ("ldso_ret", ldso_ret) ];
    im_init = None;
    im_entry = Some "_start";
    im_needed = [];
    im_owner = Ldso;
  }

(* ------------------------------------------------------------------ *)
(* vdso                                                                *)

let vdso_name = "[vdso]"

let vdso_clock_gettime (ctx : ctx) =
  let th = ctx.thread in
  let p = th.t_proc in
  (* executes entirely in user space: no kernel entry, invisible to
     every syscall-instruction-based interposer (pitfall P2b) *)
  p.counters.c_vdso <- p.counters.c_vdso + 1;
  ktrace_count ctx.world "sys.vdso";
  ktrace_event ctx.world th (K23_obs.Event.Vdso_call { sym = "clock_gettime" });
  charge ctx.world th 25;
  let ns = now ctx.world * 10 / 32 in
  let arg1 = (K23_isa.Isa.arg_indices ctx.world.isa).(1) in
  (try Memory.write_u64_raw p.mem (Regs.geti th.regs arg1) ns with Memory.Fault _ -> ());
  Regs.set th.regs RAX 0

let vdso_image () : image =
  let prog =
    Asm.assemble
      [ Label "__vdso_clock_gettime"; Vcall_named "vdso_clock_gettime"; I Ret ]
  in
  {
    im_name = vdso_name;
    im_prog = prog;
    im_host_fns = [ ("vdso_clock_gettime", vdso_clock_gettime) ];
    im_init = None;
    im_entry = None;
    im_needed = [];
    im_owner = Vdso;
  }

let vdso_image_arm () : image =
  let open K23_isa_arm in
  let prog =
    Asm_arm.assemble
      [
        Asm_arm.Label "__vdso_clock_gettime";
        Asm_arm.Vcall_named "vdso_clock_gettime";
        Asm_arm.I Arm.Ret;
      ]
  in
  {
    im_name = vdso_name;
    im_prog = prog;
    im_host_fns = [ ("vdso_clock_gettime", vdso_clock_gettime) ];
    im_init = None;
    im_entry = None;
    im_needed = [];
    im_owner = Vdso;
  }

(* ------------------------------------------------------------------ *)
(* Dependency resolution                                               *)

let rec transitive_deps (w : world) seen = function
  | [] -> List.rev seen
  | path :: rest ->
    if List.mem path seen then transitive_deps w seen rest
    else (
      match find_library w path with
      | None -> transitive_deps w seen rest (* missing deps surface at openat time *)
      | Some im -> transitive_deps w (path :: seen) (im.im_needed @ rest))

let split_preload s = String.split_on_char ':' s |> List.filter (fun x -> x <> "")

(* ------------------------------------------------------------------ *)
(* Stack                                                               *)

let stack_top = 0x7fff_8000
let stack_size = 0x10000

let setup_stack (p : proc) ~argv ~envp =
  Memory.map p.mem ~addr:(stack_top - stack_size) ~len:stack_size ~perm:Memory.perm_rw;
  add_region p
    {
      r_start = stack_top - stack_size;
      r_len = stack_size;
      r_perm = Memory.perm_rw;
      r_name = "[stack]";
      r_owner = Stack;
      r_image = None;
      r_sec = `Other;
    };
  (* strings first (top-down), then pointer arrays, then argc *)
  let cursor = ref stack_top in
  let push_str s =
    cursor := !cursor - (String.length s + 1);
    Memory.write_cstr p.mem !cursor s;
    !cursor
  in
  let argv_ptrs = List.map push_str argv in
  let env_ptrs = List.map push_str envp in
  cursor := !cursor land lnot 15;
  let push_u64 v =
    cursor := !cursor - 8;
    Memory.write_u64_raw p.mem !cursor v
  in
  push_u64 0;
  List.iter push_u64 (List.rev env_ptrs);
  let envv = !cursor in
  push_u64 0;
  List.iter push_u64 (List.rev argv_ptrs);
  let argvv = !cursor in
  push_u64 (List.length argv);
  ignore envv;
  (* leave headroom *)
  let rsp = (!cursor - 256) land lnot 15 in
  (rsp, argvv)

(* ------------------------------------------------------------------ *)
(* Plan construction                                                   *)

(** The per-library loading sequence.  [im] may be [None] (missing
    library): the openat simply fails, mirroring ld.so's search. *)
let lib_ops (w : world) (p : proc) ~buf path =
  let fd = ref (-1) in
  let path_addr = scratch_write_cstr p path in
  let hwcaps_addr =
    scratch_write_cstr p ("/usr/lib/glibc-hwcaps/x86-64-v3/" ^ Filename.basename path)
  in
  let sys nr make_args post = Op_sys { nr; make_args; post } in
  let lib = find_library w path in
  let text_len =
    match lib with Some i -> max 1 (Bytes.length i.im_prog.Asm.text) | None -> 0
  in
  let data_len =
    match lib with Some i -> Bytes.length i.im_prog.Asm.data | None -> 0
  in
  [
    (* glibc-hwcaps probes: fail with ENOENT like on a real system *)
    sys Sysno.openat (fun () -> [| at_fdcwd; hwcaps_addr; 0; 0; 0; 0 |]) ignore;
    sys Sysno.access (fun () -> [| hwcaps_addr; 4; 0; 0; 0; 0 |]) ignore;
    sys Sysno.stat (fun () -> [| path_addr; buf; 0; 0; 0; 0 |]) ignore;
    sys Sysno.openat
      (fun () -> [| at_fdcwd; path_addr; 0; 0; 0; 0 |])
      (fun r -> fd := r);
    sys Sysno.read (fun () -> [| !fd; buf; 832; 0; 0; 0 |]) ignore;
    sys Sysno.read (fun () -> [| !fd; buf; 784; 0; 0; 0 |]) ignore;
    sys Sysno.fstat (fun () -> [| !fd; buf; 0; 0; 0; 0 |]) ignore;
    sys Sysno.lseek (fun () -> [| !fd; 0; 0; 0; 0; 0 |]) ignore;
    sys Sysno.mmap (fun () -> [| 0; text_len; 5; 2; !fd; 0 |]) ignore;
  ]
  @ (if data_len > 0 then
       [ sys Sysno.mmap (fun () -> [| 0; data_len; 3; 2; !fd; 1 |]) ignore ]
     else [])
  @ [
      (* RELRO-style mprotect on the freshly mapped data page *)
      sys Sysno.mprotect
        (fun () ->
          match Hashtbl.find_opt p.image_bases path with
          | Some (_, d) when d <> 0 -> [| d; 4096; 3; 0; 0; 0 |]
          | _ -> [| 0; 0; 0; 0; 0; 0 |])
        ignore;
      sys Sysno.close (fun () -> [| !fd; 0; 0; 0; 0; 0 |]) ignore;
    ]

let boilerplate_ops (p : proc) ~buf =
  let preload_path = scratch_write_cstr p "/etc/ld.so.preload" in
  let cache_path = scratch_write_cstr p "/etc/ld.so.cache" in
  let fd = ref (-1) in
  let sys nr make_args post = Op_sys { nr; make_args; post } in
  [
    sys Sysno.access (fun () -> [| preload_path; 4; 0; 0; 0; 0 |]) ignore;
    sys Sysno.openat (fun () -> [| at_fdcwd; cache_path; 0; 0; 0; 0 |]) (fun r -> fd := r);
    sys Sysno.fstat (fun () -> [| !fd; buf; 0; 0; 0; 0 |]) ignore;
    sys Sysno.mmap (fun () -> [| 0; 4096; 1; 2; !fd; 0 |]) ignore;
    sys Sysno.close (fun () -> [| !fd; 0; 0; 0; 0; 0 |]) ignore;
    nosys Sysno.arch_prctl;
    nosys Sysno.ioctl;
    nosys Sysno.getpid;
    sys Sysno.brk (fun () -> [| 0; 0; 0; 0; 0; 0 |]) ignore;
    sys Sysno.brk (fun () -> [| p.brk_cur + 0x21000; 0; 0; 0; 0; 0 |]) ignore;
    sys Sysno.mprotect (fun () -> [| stack_top - stack_size; 4096; 3; 0; 0; 0 |]) ignore;
    nosys Sysno.rt_sigprocmask;
    nosys Sysno.rt_sigaction;
    nosys Sysno.sched_yield;
    nosys Sysno.gettid;
    nosys Sysno.gettimeofday;
    nosys Sysno.fcntl;
  ]

(* ------------------------------------------------------------------ *)
(* execve                                                              *)

let env_assoc envp =
  List.filter_map
    (fun kv ->
      match String.index_opt kv '=' with
      | Some i -> Some (String.sub kv 0 i, String.sub kv (i + 1) (String.length kv - i - 1))
      | None -> None)
    envp

let do_execve (ctx : ctx) ~path ~argv ~envp : int =
  let w = ctx.world and th = ctx.thread in
  let p = th.t_proc in
  let main_im =
    match find_library w path with
    | Some im when im.im_entry <> None -> Some im
    | _ -> None
  in
  match main_im with
  | None -> Errno.ret Errno.enoent
  | Some main_im ->
    charge w th 5000;
    (* the per-proc counter registry resets with the record below, so
       the trace marks the boundary for consumers summing counters *)
    ktrace_count w "exec";
    ktrace_event w th (K23_obs.Event.Exec { path });
    (* wipe the old address space and per-exec state *)
    p.mem <- Memory.create ();
    p.regions <- [];
    p.globals <- Hashtbl.create 64;
    p.pstates <- Hashtbl.create 8;
    p.image_bases <- Hashtbl.create 8;
    p.counters <- fresh_counters ();
    p.sig_handlers <- Hashtbl.create 8;
    p.startup_done <- false;
    p.scratch_cursor <- 0;
    p.brk_cur <- 0x0060_0000;
    (* library-area ASLR: up to 1024 pages of slide keeps the mmap
       area clear of the scratch region (0x7ffd0000) and the stack *)
    p.aslr_slide <- (if w.aslr then K23_util.Rng.int w.rng 1024 else 0);
    p.mmap_cursor <- 0x7f00_0000 + (p.aslr_slide * Memory.page_size);
    p.cmd <- path;
    p.argv <- argv;
    p.env <- env_assoc envp;
    List.iter (fun t -> if t != th then t.state <- Dead) p.threads;
    p.threads <- [ th ];
    th.sud <- None;
    th.frames <- [];
    th.pending <- None;
    w.core_resident.(th.core) <- -1;
    (* map interpreter, main binary and (unless disabled) the vdso *)
    let ldso =
      match find_library w (ldso_path_for w.isa) with Some i -> i | None -> panic "no ld.so"
    in
    ignore (Mapper.map_image w p ldso);
    ignore (Mapper.map_image w p main_im);
    if p.vdso_enabled then begin
      match find_library w vdso_name with
      | Some v -> ignore (Mapper.map_image w p v)
      | None -> ()
    end;
    ensure_scratch p;
    let rsp, argvv = setup_stack p ~argv ~envp in
    (* build the loading plan *)
    let buf = scratch_alloc p 1024 in
    let env = env_assoc envp in
    let preloads =
      match List.assoc_opt "LD_PRELOAD" env with Some s -> split_preload s | None -> []
    in
    let deps = transitive_deps w [] main_im.im_needed in
    let load_order = preloads @ List.filter (fun d -> not (List.mem d preloads)) deps in
    let per_lib = List.concat_map (fun lp -> lib_ops w p ~buf lp) load_order in
    let images_loaded () =
      (* every image with a recorded base, for relocation *)
      List.filter_map (find_library w) (ldso_path_for w.isa :: path :: load_order)
    in
    let ctor_of im_path =
      match find_library w im_path with
      | Some im when im.im_init <> None ->
        [ Op_call
            (fun () ->
              match Mapper.image_sym p im (Option.get im.im_init) with
              | Some a -> a
              | None -> panic "missing init symbol in %s" im_path) ]
      | _ -> []
    in
    (* constructor order: dependencies first (libc before the rest),
       preloads last among libraries, then main *)
    let libc_first =
      List.stable_sort
        (fun a b ->
          let rank x =
            if Filename.basename x |> fun n -> String.length n >= 4 && String.sub n 0 4 = "libc"
            then 0
            else if List.mem x preloads then 2
            else 1
          in
          compare (rank a) (rank b))
        load_order
    in
    let ctors = List.concat_map ctor_of libc_first in
    let plan =
      boilerplate_ops p ~buf
      @ per_lib
      @ [ Op_host (fun () -> List.iter (Mapper.apply_relocs p) (images_loaded ())) ]
      @ ctors
      @ [
          Op_host (fun () -> p.startup_done <- true);
          Op_enter
            (fun () ->
              match Mapper.image_sym p main_im (Option.get main_im.im_entry) with
              | Some e -> (e, List.length argv, argvv)
              | None -> panic "missing entry symbol in %s" path);
        ]
    in
    Hashtbl.replace p.pstates ldso_key (Ldso { plan; post = None });
    (* reset registers; start in the interpreter *)
    Array.fill th.regs.gpr 0 Regs.width 0;
    th.regs.pkru <- 0;
    Regs.seti th.regs (K23_isa.Isa.sp_index w.isa) rsp;
    th.regs.rip <-
      (match Mapper.image_sym p ldso "_start" with Some a -> a | None -> panic "ld.so entry");
    (* ptrace exec event *)
    (match p.tracer with
    | Some tr -> ( match tr.tr_on_exec with Some f -> f { world = w; thread = th } | None -> ())
    | None -> ());
    Regs.get th.regs RAX
