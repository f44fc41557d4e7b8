(** K23's ptrace components (Sections 5.2 and 5.3).

    Two tracers are built here:

    + {!preload_enforcer} — the offline phase's companion: it only
      ensures the logging library stays in LD_PRELOAD across execve.
    + {!online_tracer} — the online phase's ptracer: it interposes
      every system call from the program's first instruction (covering
      the startup window no in-process mechanism can see), disables
      the vdso, enforces LD_PRELOAD=libK23 on execve (P1a), services
      K23's fake system calls for the state handoff, and detaches once
      libK23 takes over. *)

open K23_machine
open K23_kernel
open Kern
open K23_interpose.Interpose

(** Rewrite the envp argument of an in-flight execve so that
    LD_PRELOAD includes [lib_path].  The new environment block is
    written into the tracee's address space with
    process_vm_writev-style remote accesses. *)
let rewrite_envp (ctx : ctx) ~args ~lib_path =
  let p = ctx.thread.t_proc in
  let w = ctx.world in
  let envp_ptr = args.(2) in
  let env =
    if envp_ptr = 0 then []
    else match Syscalls.read_user_strv p envp_ptr with Ok l -> l | Error _ -> []
  in
  let has_lib =
    List.exists
      (fun kv ->
        String.length kv >= 11 && String.sub kv 0 11 = "LD_PRELOAD="
        &&
        let v = String.sub kv 11 (String.length kv - 11) in
        List.mem lib_path (String.split_on_char ':' v))
      env
  in
  if not has_lib then begin
    let env' = add_preload env lib_path in
    let ptrs = List.map (scratch_write_cstr p) env' in
    let arr = scratch_alloc p (8 * (List.length ptrs + 1)) in
    List.iteri (fun i a -> Memory.write_u64_raw p.mem (arr + (8 * i)) a) ptrs;
    Memory.write_u64_raw p.mem (arr + (8 * List.length ptrs)) 0;
    Regs.set ctx.thread.regs RDX arr;
    charge w ctx.thread (w.cost.ptrace_mem_op * (1 + List.length env'))
  end

(** Offline companion: guarantees libLogger injection, records
    nothing. *)
let preload_enforcer ~lib_path () : tracer =
  {
    tr_name = "preload-enforcer";
    tr_trace_syscalls = true;
    tr_on_entry =
      Some
        (fun ctx ~nr ~site:_ ~args ->
          if nr = Sysno.execve then rewrite_envp ctx ~args ~lib_path;
          `Continue);
    tr_on_exit = None;
    tr_on_exec = None;
    tr_on_exit_proc = None;
  }

(** The online ptracer. *)
let online_tracer w ~(stats : stats) ~(handler : handler) ~lib_path () : tracer =
  let startup_seen = ref 0 in
  {
    tr_name = "k23-ptracer";
    tr_trace_syscalls = true;
    tr_on_entry =
      Some
        (fun ctx ~nr ~site ~args ->
          let p = ctx.thread.t_proc in
          let owner = region_owner p site in
          if nr = Sysno.k23_handoff then
            (* the fake syscall must originate from libK23 itself, not
               from potentially compromised code such as the dynamic
               loader (Section 5.3) *)
            if owner <> Interposer then begin
              stats.aborts <- stats.aborts + 1;
              abort ctx;
              `Skip (Errno.ret Errno.eperm)
            end
            else begin
              Memory.write_u64_raw p.mem args.(0) !startup_seen;
              charge w ctx.thread w.cost.ptrace_mem_op;
              `Skip 0
            end
          else if nr = Sysno.k23_detach then
            (* likewise for the fake detach syscall *)
            if owner <> Interposer then begin
              stats.aborts <- stats.aborts + 1;
              abort ctx;
              `Skip (Errno.ret Errno.eperm)
            end
            else begin
              p.tracer <- None;
              `Skip 0
            end
          else begin
            if nr = Sysno.execve then begin
              (* keep libK23 injected (P1a) and the vdso disabled for
                 the post-exec image *)
              rewrite_envp ctx ~args ~lib_path;
              p.vdso_enabled <- false
            end;
            match owner with
            | Interposer | Trampoline -> `Continue (* re-issues, not app syscalls *)
            | App | Libc | Ldso | Vdso | Lib _ | Anon | Stack -> (
              incr startup_seen;
              stats.via_ptrace <- stats.via_ptrace + 1;
              match handler ctx ~nr ~args ~site with
              | Forward -> `Continue
              | Emulate v -> `Skip v)
          end);
    tr_on_exit = None;
    tr_on_exec = None;
    tr_on_exit_proc = None;
  }
