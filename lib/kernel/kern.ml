(** Kernel core: processes, threads, scheduling, trap handling, SUD,
    ptrace and signals.

    This module holds the mutually-recursive heart of the simulated
    OS.  System call {e semantics} live in {!Syscalls} and program
    loading in {!Loader}; both are wired in through the [syscall_impl]
    / [execve_impl] hooks so the dependency graph stays acyclic. *)

open K23_machine
module Rng = K23_util.Rng

(* ------------------------------------------------------------------ *)
(* Types                                                               *)

(** Who owns a mapped region; used for ground-truth accounting (an
    interposer's re-issued system calls must not be confused with the
    application's own). *)
type owner =
  | App  (** the main executable *)
  | Libc
  | Ldso  (** the dynamic linker *)
  | Vdso
  | Lib of string  (** other shared library *)
  | Interposer  (** an interposition library's own code *)
  | Trampoline  (** the page-0 trampoline *)
  | Anon
  | Stack

let owner_to_string = function
  | App -> "app"
  | Libc -> "libc"
  | Ldso -> "ld.so"
  | Vdso -> "vdso"
  | Lib s -> s
  | Interposer -> "interposer"
  | Trampoline -> "trampoline"
  | Anon -> "anon"
  | Stack -> "stack"

type region = {
  r_start : int;
  r_len : int;
  mutable r_perm : Memory.perm;
  r_name : string;  (** path-like name shown in /proc/PID/maps *)
  r_owner : owner;
  r_image : image option;
  r_sec : [ `Text | `Data | `Other ];
}

and image = {
  im_name : string;  (** full path, e.g. "/usr/lib/x86_64-linux-gnu/libc.so.6" *)
  im_prog : K23_isa.Asm.program;
  im_host_fns : (string * hostfn) list;
  im_init : string option;  (** constructor symbol run by the loader *)
  im_entry : string option;  (** entry symbol (executables) *)
  im_needed : string list;  (** dependency library paths *)
  im_owner : owner;
}

and hostfn = ctx -> unit
(** A host (OCaml) function reachable from simulated code via the
    [Vcall] instruction.  Host functions implement application logic
    and interposer internals; they may manipulate registers, memory
    and kernel state but can never enter the kernel's syscall path —
    that always requires executing a real [syscall] instruction. *)

and ctx = { world : world; thread : thread }

and pstate = ..
(** Extensible per-process state bag: interposers and the loader stash
    their private state here (keyed by name in [proc.pstates]). *)

and sud_state = {
  mutable sel_addr : int;  (** userspace selector byte address *)
  mutable allow_lo : int;
  mutable allow_hi : int;  (** [allow_lo, allow_hi): always-allowed range *)
}

and sigframe = {
  fr_regs : Regs.t;  (** saved context; handlers mutate it, sigreturn restores it *)
  fr_signo : int;
  fr_sysno : int;  (** SIGSYS: attempted syscall number *)
  fr_site : int;  (** SIGSYS: address of the trapping syscall instruction *)
  fr_args : int array;  (** SIGSYS: the attempted syscall's six arguments *)
}

and tstate =
  | Runnable
  | Blocked of { why : string; ready : unit -> bool; deadline : int option }
  | Dead

and thread = {
  tid : int;
  t_proc : proc;
  regs : Regs.t;
  core : int;
  mutable state : tstate;
  mutable sud : sud_state option;
  mutable frames : sigframe list;
  mutable pending : (int * int array) option;  (** blocked syscall to retry *)
  mutable sc_site : int;  (** address of the syscall insn now dispatching *)
  mutable fault_key : int;  (** fault-schedule key of the in-flight call; 0 = none *)
  mutable fault_retry : bool;  (** re-dispatch of a parked call: don't re-tick *)
  mutable fault_restart : bool;  (** re-execution of a restarted call: don't re-tick *)
  fault_divq : int Queue.t;
      (** syscall numbers diverted to the interposer (SUD/seccomp-trap)
          whose re-issue from interposer code must tick the schedule as
          the application call it stands for — FIFO, mirroring the
          oracle projection's attempt-matching *)
}

and fdesc =
  | Fd_file of { file : Vfs.file; mutable pos : int; path : string }
  | Fd_console of Buffer.t  (** process stdout/stderr capture *)
  | Fd_listener of Net.listener
  | Fd_conn of Net.conn * Net.endpoint
  | Fd_pipe_r of Net.Byteq.t
  | Fd_pipe_w of Net.Byteq.t
  | Fd_devnull

and counters = {
  mutable c_app : int;  (** application syscalls (ground truth) *)
  mutable c_interposer : int;  (** syscalls re-issued from interposer code *)
  mutable c_startup : int;  (** app syscalls before the preload library initialised *)
  mutable c_vdso : int;  (** vdso fast-path calls that bypassed the kernel *)
  mutable c_sigsys : int;  (** SIGSYS deliveries *)
}

and tracer = ctx -> nr:int -> site:int -> args:int array -> [ `Continue | `Skip of int ]
(** A ptrace tracer, modelled as a host agent: its syscall-entry
    callback runs while the tracee is stopped, which is semantically
    what a real tracer process does.  [`Skip ret] completes the call
    with [ret] without entering the kernel.  Every entry and exit stop
    round trip is charged to the tracee's core. *)

and proc = {
  pid : int;
  mutable parent : proc option;
  mutable mem : Memory.t;
  mutable regions : region list;
  mutable threads : thread list;
  mutable fds : (int, fdesc) Hashtbl.t;
  mutable next_fd : int;
  mutable env : (string * string) list;
  mutable cwd : string;
  mutable sig_handlers : (int, int) Hashtbl.t;  (** signo -> handler code address *)
  mutable exit_status : int option;
  mutable term_signal : int option;
  mutable reaped : bool;
  mutable tracer : tracer option;
  mutable vdso_enabled : bool;
  mutable globals : (string, int) Hashtbl.t;  (** dynamic symbol table *)
  mutable brk_cur : int;
  mutable mmap_cursor : int;
  mutable next_pkey : int;
  mutable cmd : string;
  mutable argv : string list;
  mutable pstates : (string, pstate) Hashtbl.t;
  mutable image_bases : (string, int * int) Hashtbl.t;
      (** image name -> (text base, data base) in this address space *)
  mutable counters : counters;
  mutable children : proc list;
  mutable startup_done : bool;
  mutable scratch_cursor : int;  (** bump allocator inside the scratch region *)
  mutable aslr_slide : int;
  mutable seccomp : Bpf.filter list;
      (** installed seccomp filters, most recent first; inherited on
          fork, preserved across execve (Linux semantics) *)
  w : world;
}

and world = {
  mutable cost : Cost.model;
      (** immutable in spirit; mutable only so {!World.reset} can
          replay the per-run skew draw of [create_world] in place *)
  isa : K23_isa.Isa.t;
      (** the machine's instruction set.  A world is single-ISA: every
          image it loads (ld.so, vdso, interposers, apps) targets this
          ISA, and the fetch/step path, syscall register convention and
          signal-frame register assignment all dispatch on it *)
  ncores : int;
  icaches : Icache.t array;
  core_cycles : int array;
  core_resident : int array;  (** pid whose code each core's icache holds *)
  mutable procs : proc list;
  mutable next_pid : int;
  mutable next_tid : int;
  vfs : Vfs.t;
  net : Net.t;
  libraries : (string, image) Hashtbl.t;  (** path -> image *)
  mutable syscall_impl : (ctx -> nr:int -> args:int array -> int) option;
  mutable execve_impl : (ctx -> path:string -> argv:string list -> envp:string list -> int) option;
  rng : Rng.t;
  quantum : int;
  mutable steps : int;
  mutable aslr : bool;
  mutable sud_ever_armed : bool;
  mutable ktrace : K23_obs.Trace.t option;
      (** the observability sink.  [None] (the default) is the
          zero-overhead mode: every emission site is guarded by a
          single match on this field, so nothing is allocated or
          recorded.  Enable with {!ktrace_enable}. *)
  ktrace_last_tid : int array;  (** per-core last-run tid, for sched-switch events *)
  mutable faults : K23_faults.Faults.plan option;
      (** the fault-injection plane.  [None] (the default) is the
          zero-overhead mode, same discipline as [ktrace]: every
          injection site is guarded by a single match on this field.
          Set from {!World.Config.faults} by [World.wire]. *)
  fault_ticks : (int, int) Hashtbl.t;
      (** nr -> count of fault-eligible dispatches so far; the
          schedule's per-nr clock *)
  mutable replay_exit : (thread -> nr:int -> ret:int -> int) option;
      (** replay substitution hook (lib/replay): called in
          [complete_syscall] with the live result, returns the value to
          actually store in RAX.  The replayer installs a function that
          substitutes the recorded result for this thread's next
          matching syscall, so a replayed world re-observes the
          recorded inputs even where the live implementation would
          diverge.  [None] (the default) is the zero-overhead mode,
          same single-match discipline as [ktrace] and [faults]. *)
}

exception Would_block of { why : string; ready : unit -> bool; deadline : int option }
(** Raised by syscall implementations that must wait; the scheduler
    parks the thread and retries when [ready ()] turns true.
    [deadline] is the cycle at which a timed wait (nanosleep) fires on
    its own: when every thread is blocked, the scheduler jumps virtual
    time straight to the earliest deadline instead of declaring
    deadlock.  [None] for waits that only external events satisfy. *)

exception Kernel_panic of string

let panic fmt = Printf.ksprintf (fun s -> raise (Kernel_panic s)) fmt

(* Signal numbers *)
let sigill = 4
let sigtrap = 5
let sigsegv = 11
let sigsys = 31

(* ------------------------------------------------------------------ *)
(* World construction                                                  *)

let create_world ~isa ~ncores ~quantum ~seed ~aslr ~(cost : Cost.model) ~predecode =
  let rng = Rng.create ~seed in
  (* per-run machine-state skew (~±0.7% on the kernel path): repeated
     runs with different seeds show realistic standard deviations *)
  let cost = { cost with syscall_base = cost.syscall_base + Rng.int rng 3 - 1 } in
  {
    cost;
    isa;
    ncores;
    icaches = Array.init ncores (fun _ -> Icache.create ~predecode ());
    core_cycles = Array.make ncores 0;
    core_resident = Array.make ncores (-1);
    procs = [];
    next_pid = 1;
    next_tid = 1;
    vfs = Vfs.create ();
    net = Net.create ();
    libraries = Hashtbl.create 16;
    syscall_impl = None;
    execve_impl = None;
    rng;
    quantum;
    steps = 0;
    aslr;
    sud_ever_armed = false;
    ktrace = None;
    ktrace_last_tid = Array.make ncores (-1);
    faults = None;
    fault_ticks = Hashtbl.create 16;
    replay_exit = None;
  }

let register_library w (im : image) =
  Hashtbl.replace w.libraries im.im_name im;
  (* make the file visible in the VFS so openat() works on it *)
  ignore (Vfs.write_file w.vfs im.im_name (Printf.sprintf "<image:%s>" im.im_name))

let find_library w path = Hashtbl.find_opt w.libraries path

let fresh_counters () =
  {
    c_app = 0;
    c_interposer = 0;
    c_startup = 0;
    c_vdso = 0;
    c_sigsys = 0;
  }

let new_proc w ~parent ~cmd =
  let pid = w.next_pid in
  w.next_pid <- pid + 1;
  let p =
    {
      pid;
      parent;
      mem = Memory.create ();
      regions = [];
      threads = [];
      fds = Hashtbl.create 16;
      next_fd = 3;
      env = [];
      cwd = "/";
      sig_handlers = Hashtbl.create 8;
      exit_status = None;
      term_signal = None;
      reaped = false;
      tracer = None;
      vdso_enabled = true;
      globals = Hashtbl.create 64;
      brk_cur = 0x0060_0000;
      mmap_cursor = 0x7100_0000;
      next_pkey = 1;
      cmd;
      argv = [];
      pstates = Hashtbl.create 8;
      image_bases = Hashtbl.create 8;
      counters = fresh_counters ();
      children = [];
      startup_done = false;
      scratch_cursor = 0;
      aslr_slide = 0;
      seccomp = [];
      w;
    }
  in
  (* fd 0/1/2: console *)
  let console = Buffer.create 256 in
  Hashtbl.replace p.fds 0 Fd_devnull;
  Hashtbl.replace p.fds 1 (Fd_console console);
  Hashtbl.replace p.fds 2 (Fd_console console);
  w.procs <- w.procs @ [ p ];
  (match parent with Some pp -> pp.children <- p :: pp.children | None -> ());
  p

let new_thread w (p : proc) =
  let tid = w.next_tid in
  w.next_tid <- tid + 1;
  (* place the thread on the least-loaded core (live threads only):
     deterministic and balanced, like a kernel scheduler at steady
     state *)
  let load = Array.make w.ncores 0 in
  List.iter
    (fun q ->
      if q.exit_status = None && q.term_signal = None then
        List.iter
          (fun t -> if t.state <> Dead then load.(t.core) <- load.(t.core) + 1)
          q.threads)
    w.procs;
  let core = ref 0 in
  Array.iteri (fun i l -> if l < load.(!core) then core := i) load;
  let core = !core in
  let th =
    {
      tid;
      t_proc = p;
      regs = Regs.create ();
      core;
      state = Runnable;
      sud = None;
      frames = [];
      pending = None;
      sc_site = 0;
      fault_key = 0;
      fault_retry = false;
      fault_restart = false;
      fault_divq = Queue.create ();
    }
  in
  p.threads <- p.threads @ [ th ];
  th

let console_output p =
  match Hashtbl.find_opt p.fds 1 with
  | Some (Fd_console b) -> Buffer.contents b
  | _ -> ""

(* ------------------------------------------------------------------ *)
(* Regions                                                             *)

let add_region (p : proc) r = p.regions <- r :: p.regions

let remove_region (p : proc) ~start =
  p.regions <- List.filter (fun r -> r.r_start <> start) p.regions

let find_region (p : proc) addr =
  List.find_opt (fun r -> addr >= r.r_start && addr < r.r_start + r.r_len) p.regions

let region_owner p addr =
  match find_region p addr with Some r -> r.r_owner | None -> Anon

(** /proc/PID/maps content, parsed by K23's libLogger. *)
let maps_string (p : proc) =
  p.regions
  |> List.sort (fun a b -> compare a.r_start b.r_start)
  |> List.map (fun r ->
         Printf.sprintf "%012x-%012x %sp %08x 00:00 0 %s" r.r_start (r.r_start + r.r_len)
           (Memory.perm_to_string r.r_perm) 0 r.r_name)
  |> String.concat "\n"

(** Bump-allocate kernel scratch space in a process (used to inject
    strings, e.g. when ptracer rewrites LD_PRELOAD in the tracee). *)
let scratch_base = 0x7ffd_0000
let scratch_size = 0x10000

let ensure_scratch (p : proc) =
  if not (Memory.is_mapped p.mem scratch_base) then begin
    Memory.map p.mem ~addr:scratch_base ~len:scratch_size ~perm:Memory.perm_rw;
    add_region p
      {
        r_start = scratch_base;
        r_len = scratch_size;
        r_perm = Memory.perm_rw;
        r_name = "[scratch]";
        r_owner = Anon;
        r_image = None;
        r_sec = `Other;
      }
  end

let scratch_alloc (p : proc) len =
  ensure_scratch p;
  let addr = scratch_base + p.scratch_cursor in
  p.scratch_cursor <- p.scratch_cursor + ((len + 15) land lnot 15);
  if p.scratch_cursor > scratch_size then panic "scratch exhausted in pid %d" p.pid;
  addr

let scratch_write_cstr (p : proc) s =
  let addr = scratch_alloc p (String.length s + 1) in
  Memory.write_cstr p.mem addr s;
  addr

(* ------------------------------------------------------------------ *)
(* Cycle accounting                                                    *)

let charge (w : world) (th : thread) cycles = w.core_cycles.(th.core) <- w.core_cycles.(th.core) + cycles

(* ------------------------------------------------------------------ *)
(* ktrace: structured event recording (lib/obs)                        *)

(** Turn recording on; returns the sink for direct inspection.  The
    kernel emits cycle-stamped events (syscall enter/exit with owner,
    signals, SUD, seccomp, ptrace stops, code-write barriers, faults,
    scheduler switches) into a bounded overwrite-oldest ring, and
    counts them in the sink's world-level lifetime registry.
    [~unbounded:true] swaps the ring for a growing one that never
    drops — required by the recorder, which cannot replay a log with
    holes in it. *)
let ktrace_enable ?capacity ?unbounded (w : world) =
  let t = K23_obs.Trace.create ?capacity ?unbounded () in
  w.ktrace <- Some t;
  t

(** Bump a named counter in the world registry.  No-op (one branch)
    when tracing is off. *)
let ktrace_count (w : world) name =
  match w.ktrace with None -> () | Some t -> K23_obs.Counters.incr t.counters name

(** Record a thread-context event.  Callers on hot paths should match
    on [w.ktrace] themselves so the payload is never allocated while
    tracing is off; this helper is for cold paths. *)
let ktrace_event (w : world) (th : thread) payload =
  match w.ktrace with
  | None -> ()
  | Some t ->
    K23_obs.Trace.emit t ~cycles:w.core_cycles.(th.core) ~pid:th.t_proc.pid ~tid:th.tid payload

(** Free-form annotation with no thread context (mechanism launches
    tag their runs with ["mech:<name>"]). *)
let ktrace_annot (w : world) msg =
  match w.ktrace with
  | None -> ()
  | Some t ->
    K23_obs.Trace.emit t
      ~cycles:(Array.fold_left max 0 w.core_cycles)
      ~pid:0 ~tid:0 (K23_obs.Event.Annot msg)

(** Cache-coherent code write: invalidate the written lines in every
    core's I-cache.  x86 caches are coherent, so a store to code
    becomes fetchable by other cores immediately — which is exactly
    why a {e non-atomic} two-byte rewrite exposes a torn instruction
    to concurrently executing threads (pitfall P5).  What coherence
    does NOT give you is atomicity of multi-byte cross-modifying
    writes; that requires stopping the other cores or an
    instruction-stream serialisation protocol, which lazypoline
    lacks.

    The per-line invalidation also drops each line's predecode memo
    (the memo lives inside the line, see {!Icache.fetch_decode}), so a
    barriered code write is re-decoded by every core on its next fetch
    — the predecode layer snoops on exactly the same events as the
    byte cache. *)
let code_write_barrier (w : world) ~addr ~len =
  Array.iter (fun ic -> Icache.invalidate_range ic ~addr ~len) w.icaches;
  match w.ktrace with
  | None -> ()
  | Some t ->
    K23_obs.Counters.incr t.counters "code_write_barrier";
    K23_obs.Trace.emit t
      ~cycles:(Array.fold_left max 0 w.core_cycles)
      ~pid:0 ~tid:0
      (K23_obs.Event.Code_write { addr; len })

let now (w : world) = Array.fold_left max 0 w.core_cycles

(** Bring every core to the current wall-clock maximum.  Measurements
    call this at phase boundaries: wall time elapses on idle cores
    too, and per-phase deltas must not be polluted by how far ahead a
    previous phase pushed some other core. *)
let sync_cores (w : world) =
  let t = now w in
  Array.iteri (fun i _ -> w.core_cycles.(i) <- t) w.core_cycles

(** Simulated clock: 3.2 GHz, matching the paper's Xeon w5-3425. *)
let cycles_per_sec = 3_200_000_000

(* ------------------------------------------------------------------ *)
(* Request latency stamps                                              *)

(* Load generators stamp request boundaries in *global* simulated time
   ([now w], not the issuing core's counter): a latency sample must be
   comparable against the open-loop arrival schedule, which is itself
   global — a core-local stamp would stand still while the thread sat
   blocked in [read] and hide exactly the queueing delay the campaign
   exists to measure.  Both hooks return the stamp so the caller
   records the same value the event stream shows. *)

(** Request [req] was written to connection fd [conn]; [sched] is the
    arrival process' intended send time (= the stamp itself for
    closed-loop or un-backlogged sends). *)
let note_req_send (w : world) (th : thread) ~conn ~req ~sched =
  let stamp = now w in
  ktrace_count w "req.send";
  (match w.ktrace with
  | None -> ()
  | Some t ->
    K23_obs.Trace.emit t ~cycles:stamp ~pid:th.t_proc.pid ~tid:th.tid
      (K23_obs.Event.Req_send { conn; req; sched }));
  stamp

(** The matching response was fully received (framing complete). *)
let note_req_recv (w : world) (th : thread) ~conn ~req =
  let stamp = now w in
  ktrace_count w "req.recv";
  (match w.ktrace with
  | None -> ()
  | Some t ->
    K23_obs.Trace.emit t ~cycles:stamp ~pid:th.t_proc.pid ~tid:th.tid
      (K23_obs.Event.Req_recv { conn; req }));
  stamp

(* ------------------------------------------------------------------ *)
(* Process exit / signals                                              *)

(** On process death the kernel releases its descriptors: connections
    get a FIN (peers' reads return 0) and listeners disappear — but
    fork duplicates descriptors, so a resource is only released when
    the last live process holding it dies (refcount semantics). *)
let cleanup_fds (p : proc) =
  let held_elsewhere probe =
    List.exists
      (fun q ->
        q != p && q.exit_status = None && q.term_signal = None
        && Hashtbl.fold (fun _ fd acc -> acc || probe fd) q.fds false)
      p.w.procs
  in
  (* ascending fd order, matching the kernel's exit_files() table walk:
     release order (and hence FIN/unlisten and ktrace event order) must
     not depend on hash-table layout *)
  Hashtbl.fold (fun n fd acc -> (n, fd) :: acc) p.fds []
  |> List.sort (fun (a, _) (b, _) -> compare a b)
  |> List.iter (fun (_, fd) ->
         match fd with
         | Fd_conn (c, ep) ->
           if
             not
               (held_elsewhere (function
                 | Fd_conn (c', ep') -> c' == c && ep' = ep
                 | _ -> false))
           then Net.close c ep
         | Fd_listener l ->
           if not (held_elsewhere (function Fd_listener l' -> l' == l | _ -> false)) then
             Net.unlisten p.w.net l.port
         | Fd_file _ | Fd_console _ | Fd_pipe_r _ | Fd_pipe_w _ | Fd_devnull -> ())

let kill_proc (p : proc) ~signal =
  if p.exit_status = None && p.term_signal = None then begin
    p.term_signal <- Some signal;
    List.iter (fun th -> th.state <- Dead) p.threads;
    cleanup_fds p
  end

let exit_proc (p : proc) ~status =
  if p.exit_status = None && p.term_signal = None then begin
    p.exit_status <- Some status;
    List.iter (fun th -> th.state <- Dead) p.threads;
    cleanup_fds p
  end

let proc_dead (p : proc) = p.exit_status <> None || p.term_signal <> None

(** Deliver a signal to [th].  With no registered handler the process
    dies (all the signals we model are fatal by default). *)
let deliver_signal (w : world) (th : thread) ~signo ~sysno ~site ~args =
  let p = th.t_proc in
  ktrace_count w "signal.deliver";
  (match w.ktrace with
  | None -> ()
  | Some t ->
    K23_obs.Trace.emit t ~cycles:w.core_cycles.(th.core) ~pid:p.pid ~tid:th.tid
      (K23_obs.Event.Signal_deliver { signo; sysno; site }));
  match Hashtbl.find_opt p.sig_handlers signo with
  | None -> kill_proc p ~signal:signo
  | Some handler_addr ->
    (* A signal wakes a thread parked in a blocking syscall before its
       deadline: the wait is torn down and completes with -EINTR {e
       now}, so the frame saved below restores to "syscall returned
       EINTR" when the handler sigreturns.  (Before this, a parked
       thread slept through signals until its ready/deadline fired —
       the latent bug test_faults pins.) *)
    (match th.state with
    | Blocked _ ->
      th.state <- Runnable;
      (match th.pending with
      | Some (pnr, _) ->
        th.pending <- None;
        th.fault_key <- 0;
        Regs.set th.regs RAX (-Errno.eintr);
        (match w.ktrace with
        | None -> ()
        | Some t ->
          K23_obs.Trace.emit t ~cycles:w.core_cycles.(th.core) ~pid:p.pid ~tid:th.tid
            (K23_obs.Event.Syscall_exit { nr = pnr; ret = -Errno.eintr }))
      | None -> ())
    | Runnable | Dead -> ());
    (* Signal delivery serialises against the rest of the thread group
       (sighand lock, task-list walks): in multi-threaded processes the
       per-delivery cost grows with the number of live threads.  This
       is what collapses SUD's throughput on redis with 6 I/O threads
       (Table 6) even below its single-threaded figure. *)
    let live = List.length (List.filter (fun t -> t.state <> Dead) p.threads) in
    charge w th (w.cost.sigsys_delivery * max 1 ((3 * live) - 2));
    let frame = { fr_regs = Regs.copy th.regs; fr_signo = signo; fr_sysno = sysno; fr_site = site; fr_args = args } in
    th.frames <- frame :: th.frames;
    (* Enter the handler: mimic the kernel building a signal frame on
       an offset stack; rdi/rsi/rdx (x0/x1/x2 on arm64) carry
       (signo, site, sysno) — the moral equivalent of siginfo +
       ucontext, which handlers access through kernel helpers in this
       model. *)
    let sp = K23_isa.Isa.sp_index w.isa and sig_args = K23_isa.Isa.sig_arg_indices w.isa in
    Regs.seti th.regs sp (Regs.geti th.regs sp - 512);
    Regs.seti th.regs sig_args.(0) signo;
    Regs.seti th.regs sig_args.(1) site;
    Regs.seti th.regs sig_args.(2) sysno;
    th.regs.rip <- handler_addr

(** rt_sigreturn: restore the (possibly handler-mutated) saved
    context. *)
let do_sigreturn (w : world) (th : thread) =
  match th.frames with
  | [] -> kill_proc th.t_proc ~signal:sigsegv
  | frame :: rest ->
    charge w th w.cost.sigreturn_extra;
    th.frames <- rest;
    ktrace_count w "sigreturn";
    (match w.ktrace with
    | None -> ()
    | Some t ->
      K23_obs.Trace.emit t ~cycles:w.core_cycles.(th.core) ~pid:th.t_proc.pid ~tid:th.tid
        (K23_obs.Event.Sigreturn { depth = List.length rest }));
    Regs.restore th.regs ~from:frame.fr_regs

(* ------------------------------------------------------------------ *)
(* Fault-injection plane (DESIGN.md §4i)                               *)

module Faults = K23_faults.Faults

(** The syscalls the fault schedule ever considers.  Everything else
    (getpid, prctl, the mechanisms' housekeeping...) never ticks the
    per-nr clock, so a mechanism's extra calls cannot skew the
    schedule relative to a native run. *)
let faultable nr =
  nr = Sysno.read || nr = Sysno.write || nr = Sysno.mmap || nr = Sysno.nanosleep
  || nr = Sysno.socket || nr = Sysno.connect || nr = Sysno.accept || nr = Sysno.sendto
  || nr = Sysno.recvfrom || nr = Sysno.wait4 || nr = Sysno.open_ || nr = Sysno.openat
  || nr = Sysno.dup

let is_rw nr = nr = Sysno.read || nr = Sysno.write || nr = Sysno.sendto || nr = Sysno.recvfrom

(** Forget all fault-schedule progress: per-nr ticks and per-thread
    in-flight state.  {!K23_eval.Session} calls this between K23's
    offline phase and the measured launch, so native and mechanism
    runs start the schedule from tick 0 (the offline phase consumes
    app syscalls a native run never makes). *)
let fault_reset (w : world) =
  Hashtbl.reset w.fault_ticks;
  List.iter
    (fun p ->
      List.iter
        (fun th ->
          th.fault_key <- 0;
          th.fault_retry <- false;
          th.fault_restart <- false;
          Queue.clear th.fault_divq)
        p.threads)
    w.procs

let fault_event (w : world) (th : thread) ~nr ~kind =
  ktrace_count w "fault.inject";
  match w.ktrace with
  | None -> ()
  | Some t ->
    K23_obs.Trace.emit t ~cycles:w.core_cycles.(th.core) ~pid:th.t_proc.pid ~tid:th.tid
      (K23_obs.Event.Fault_injected { nr; site = th.sc_site; kind })

(** Advance the fault schedule for one dispatch of [nr]; returns true
    when this dispatch is a {e logically new, fault-eligible}
    application call (a fresh arm).  The schedule's alignment contract
    — native and every mechanism roll the same dice for the same
    logical call — rests on which dispatches tick:
    - retries of a parked call ([fault_retry]) and restarted
      re-executions ([fault_restart]) reuse the in-flight key;
    - interposer-owner dispatches tick only when they re-issue a
      diverted application call (FIFO head of [fault_divq] — the
      kernel-side mirror of the oracle projection's attempt matching);
      interposer housekeeping never ticks;
    - ld.so/vdso-owner dispatches never tick (the oracle projection
      drops those owners). *)
let fault_arm (w : world) (th : thread) ~nr =
  match w.faults with
  | None -> false
  | Some plan ->
    if th.fault_restart then begin
      th.fault_restart <- false;
      false
    end
    else if th.fault_retry then begin
      th.fault_retry <- false;
      false
    end
    else begin
      th.fault_key <- 0;
      (if faultable nr then
         let eligible =
           match region_owner th.t_proc th.sc_site with
           | Interposer -> (
             match Queue.peek_opt th.fault_divq with
             | Some n when n = nr ->
               ignore (Queue.pop th.fault_divq);
               true
             | _ -> false)
           | Ldso | Vdso -> false
           | App | Libc | Trampoline | Lib _ | Anon | Stack -> true
         in
         if eligible then begin
           let tick = Option.value ~default:0 (Hashtbl.find_opt w.fault_ticks nr) in
           Hashtbl.replace w.fault_ticks nr (tick + 1);
           th.fault_key <- Faults.key plan ~nr ~tick
         end);
      th.fault_key <> 0
    end

(* ------------------------------------------------------------------ *)
(* Syscall entry                                                       *)

let note_syscall (w : world) (th : thread) ~nr ~site ~args =
  let p = th.t_proc in
  let c = p.counters in
  let owner = region_owner p site in
  (match owner with
  | Interposer ->
    (* a re-issue from an interposer's SIGSYS gadget: the application's
       original attempt was already counted when SUD diverted it *)
    c.c_interposer <- c.c_interposer + 1;
    ktrace_count w "sys.interposer"
  | Trampoline | App | Libc | Ldso | Vdso | Lib _ | Anon | Stack ->
    (* trampoline-gadget syscalls ARE application syscalls: after a
       site is rewritten, its calls reach the kernel only through the
       trampoline, exactly one kernel entry per application attempt *)
    c.c_app <- c.c_app + 1;
    ktrace_count w "sys.app";
    if not p.startup_done then begin
      c.c_startup <- c.c_startup + 1;
      ktrace_count w "sys.startup"
    end;
    (* the key is built only while tracing: this runs on every syscall *)
    match w.ktrace with
    | None -> ()
    | Some t -> K23_obs.Counters.incr t.counters ("sys.nr." ^ string_of_int nr));
  match w.ktrace with
  | None -> ()
  | Some t ->
    K23_obs.Trace.push t
      (K23_obs.Event.make ~cycles:w.core_cycles.(th.core) ~pid:p.pid ~tid:th.tid
         (K23_obs.Event.Syscall_enter
            { nr; site; owner = owner_to_string owner; args = Array.copy args }))

(** Per-thread selector slot.  Real interposers keep the SUD selector
    byte in TLS so each thread toggles its own; we model TLS with a
    64-slot array indexed by tid (documented limit: tids aliasing
    mod 64 would share a slot). *)
let selector_slot (th : thread) base = base + (th.tid land 63)

let sud_blocks (th : thread) ~site =
  match th.sud with
  | None -> false
  | Some s ->
    if site >= s.allow_lo && site < s.allow_hi then false
    else begin
      match Memory.read_u8_raw th.t_proc.mem (selector_slot th s.sel_addr) with
      | sel -> sel = Sysno.syscall_dispatch_filter_block
      | exception Memory.Fault _ -> false
    end

(** Install a seccomp filter (SECCOMP_SET_MODE_FILTER).  Filters are
    irrevocable: there is no uninstall, exactly as on Linux. *)
let seccomp_install (p : proc) (f : Bpf.filter) = p.seccomp <- f :: p.seccomp

let syscall_args (th : thread) =
  let idx = K23_isa.Isa.arg_indices th.t_proc.w.isa in
  Array.map (fun i -> Regs.geti th.regs i) idx

let exec_syscall (w : world) (th : thread) ~nr ~args =
  match w.syscall_impl with
  | None -> panic "no syscall implementation installed"
  | Some f -> f { world = w; thread = th } ~nr ~args

(** One ptrace stop round trip, entry or exit, charged to the tracee's
    core. *)
let ptrace_stop (w : world) (th : thread) kind ~nr =
  charge w th w.cost.ptrace_stop;
  ktrace_count w "ptrace.stop";
  match w.ktrace with
  | None -> ()
  | Some t ->
    K23_obs.Trace.emit t ~cycles:w.core_cycles.(th.core) ~pid:th.t_proc.pid ~tid:th.tid
      (K23_obs.Event.Ptrace_stop { kind; nr })

(* The completion half of a syscall: store the result, emit the exit
   event, take the ptrace exit stop.  Shared by the normal path and
   the fault plane's hard-EINTR injection. *)
let complete_syscall (w : world) (th : thread) ~nr ~ret =
  (* replay substitution point: a replaying world stores the recorded
     result instead of the live one (see lib/replay/replayer.ml) *)
  let ret =
    match w.replay_exit with None -> ret | Some f -> f th ~nr ~ret
  in
  (* implementations that rewrite the register file (rt_sigreturn,
     execve) return the post-rewrite rax, making this a no-op *)
  Regs.set th.regs RAX ret;
  (match w.ktrace with
  | None -> ()
  | Some t ->
    K23_obs.Trace.emit t ~cycles:w.core_cycles.(th.core) ~pid:th.t_proc.pid ~tid:th.tid
      (K23_obs.Event.Syscall_exit { nr; ret }));
  match th.t_proc.tracer with
  | Some _ when not (proc_dead th.t_proc) -> ptrace_stop w th Exit ~nr
  | _ -> ()

(** Complete a syscall: run the implementation (handling blocking),
    store the result, fire the ptrace exit stop. *)
let finish_syscall (w : world) (th : thread) ~nr ~args =
  (* fault plane: tick the schedule on logically-new eligible calls,
     and truncate fresh reads/writes chosen for short I/O (mutating
     [args] keeps retries of a parked call consistently truncated) *)
  let fresh = fault_arm w th ~nr in
  (match w.faults with
  | Some plan
    when fresh && is_rw nr && args.(2) > 1 && Faults.roll_short plan ~key:th.fault_key ->
    fault_event w th ~nr ~kind:"short";
    args.(2) <- Faults.short_len ~key:th.fault_key args.(2)
  | _ -> ());
  match exec_syscall w th ~nr ~args with
  | ret ->
    complete_syscall w th ~nr ~ret;
    true
  | exception Would_block { why; ready; deadline } -> (
    (* delivery point: a blocking wait is where a pending signal would
       interrupt the call.  The schedule either completes it with a
       visible -EINTR, or restarts it ERESTARTSYS-style: rip rewinds
       to the syscall instruction, so the very next step re-executes
       it from scratch — re-entering the interposer under SUD/seccomp
       diversion and re-stopping the tracer under ptrace (the paper's
       P4 shadow).  wait4 only ever restarts: a visible EINTR there
       would reorder fork-join programs by mechanism timing. *)
    let injected =
      match w.faults with
      | Some plan when th.fault_key <> 0 && Faults.roll_eintr plan ~key:th.fault_key ->
        let key = th.fault_key in
        th.fault_key <- 0;
        if nr <> Sysno.wait4 && Faults.flip ~key then begin
          fault_event w th ~nr ~kind:"eintr";
          complete_syscall w th ~nr ~ret:(-Errno.eintr);
          true
        end
        else begin
          ktrace_count w "fault.restart";
          (match w.ktrace with
          | None -> ()
          | Some t ->
            K23_obs.Trace.emit t ~cycles:w.core_cycles.(th.core) ~pid:th.t_proc.pid
              ~tid:th.tid (K23_obs.Event.Syscall_restarted { nr; site = th.sc_site }));
          th.fault_restart <- true;
          th.regs.rip <- th.sc_site;
          true
        end
      | _ -> false
    in
    injected
    ||
    begin
      th.state <- Blocked { why; ready; deadline };
      th.pending <- Some (nr, args);
      false
    end)

(** Kernel entry for a trapping [syscall]/[sysenter] instruction. *)
let handle_syscall (w : world) (th : thread) ~site =
  let p = th.t_proc in
  let nr = Regs.geti th.regs (K23_isa.Isa.nr_index w.isa) in
  let args = syscall_args th in
  th.sc_site <- site;
  (* SUD: divert to SIGSYS when armed, outside the allowlisted range
     and with the selector set to BLOCK. *)
  if sud_blocks th ~site then begin
    note_syscall w th ~nr ~site ~args;
    charge w th w.cost.syscall_base;
    p.counters.c_sigsys <- p.counters.c_sigsys + 1;
    ktrace_count w "sigsys";
    ktrace_count w "sud.block";
    (* the diverted attempt's re-issue from interposer code must tick
       the fault schedule as the application call it stands for *)
    if w.faults <> None && faultable nr then Queue.push nr th.fault_divq;
    (match w.ktrace with
    | None -> ()
    | Some t ->
      K23_obs.Trace.emit t ~cycles:w.core_cycles.(th.core) ~pid:p.pid ~tid:th.tid
        (K23_obs.Event.Sud_block { nr; site }));
    if Hashtbl.mem p.sig_handlers sigsys then deliver_signal w th ~signo:sigsys ~sysno:nr ~site ~args
    else kill_proc p ~signal:sigsys
  end
  else begin
    note_syscall w th ~nr ~site ~args;
    (* Once SUD is initialised every kernel entry of that thread takes
       the slow path, even with interposition toggled off — the
       "SUD-no-interposition" overhead of Table 5. *)
    if th.sud <> None then charge w th w.cost.sud_armed_extra;
    (* base cost plus ~1% deterministic jitter, so repeated runs show
       realistic (non-zero) standard deviations *)
    charge w th (w.cost.syscall_base + Rng.int w.rng 3);
    (* seccomp filters run before ptrace and before execution *)
    let seccomp_verdict =
      match p.seccomp with
      | [] -> Bpf.Allow
      | filters ->
        charge w th (25 * List.length filters);
        let v =
          Bpf.eval_all filters
            { Bpf.nr; arch = K23_isa.Isa.audit_arch w.isa; ip = site; args = Array.copy args }
        in
        ktrace_count w "seccomp.eval";
        (match w.ktrace with
        | None -> ()
        | Some t ->
          let verdict =
            match v with
            | Bpf.Allow -> "allow"
            | Bpf.Log -> "log"
            | Bpf.Kill -> "kill"
            | Bpf.Trap -> "trap"
            | Bpf.Errno e -> "errno:" ^ string_of_int e
          in
          K23_obs.Trace.emit t ~cycles:w.core_cycles.(th.core) ~pid:p.pid ~tid:th.tid
            (K23_obs.Event.Seccomp { nr; verdict }));
        v
    in
    match seccomp_verdict with
    | Bpf.Kill -> kill_proc p ~signal:sigsys
    | Bpf.Errno e -> Regs.set th.regs RAX (-e)
    | Bpf.Trap ->
      p.counters.c_sigsys <- p.counters.c_sigsys + 1;
      ktrace_count w "sigsys";
      if w.faults <> None && faultable nr then Queue.push nr th.fault_divq;
      if Hashtbl.mem p.sig_handlers sigsys then
        deliver_signal w th ~signo:sigsys ~sysno:nr ~site ~args
      else kill_proc p ~signal:sigsys
    | Bpf.Allow | Bpf.Log -> (
      match p.tracer with
      | None -> ignore (finish_syscall w th ~nr ~args)
      | Some tr -> (
        ptrace_stop w th Entry ~nr;
        match tr { world = w; thread = th } ~nr ~site ~args with
        | `Skip ret ->
          Regs.set th.regs RAX ret;
          ptrace_stop w th Exit ~nr
        | `Continue ->
          (* args may have been rewritten by the tracer *)
          ignore (finish_syscall w th ~nr ~args:(syscall_args th))))
  end

(* ------------------------------------------------------------------ *)
(* Vcall resolution                                                    *)

let resolve_vcall (p : proc) ~rip_after ~index =
  (* the Vcall instruction is 6 bytes on x86 and one word on arm64;
     its first byte locates the owning region *)
  match find_region p (rip_after - K23_isa.Isa.vcall_len p.w.isa) with
  | None -> None
  | Some r -> (
    match r.r_image with
    | None -> None
    | Some im -> (
      match List.nth_opt im.im_prog.vcalls index with
      | None -> None
      | Some name -> (
        match List.assoc_opt name im.im_host_fns with
        | None -> None
        | Some f -> Some (name, f))))

(* ------------------------------------------------------------------ *)
(* Stepping                                                            *)

let switch_address_space (w : world) (th : thread) =
  if w.core_resident.(th.core) <> th.t_proc.pid then begin
    Icache.flush w.icaches.(th.core);
    w.core_resident.(th.core) <- th.t_proc.pid
  end

(** Record a fault-class trap ({!Cpu.trap_name} keys the counter). *)
let emit_trap_event (w : world) (th : thread) trap payload =
  match w.ktrace with
  | None -> ()
  | Some t ->
    K23_obs.Counters.incr t.counters ("trap." ^ Cpu.trap_name trap);
    K23_obs.Trace.push t
      (K23_obs.Event.make ~cycles:w.core_cycles.(th.core) ~pid:th.t_proc.pid ~tid:th.tid payload)

(** A memory fault at rip: the [Fault] event, then SIGSEGV. *)
let memory_fault (w : world) (th : thread) (f : Memory.fault) =
  let access = match f.access with `Read -> "R" | `Write -> "W" | `Exec -> "X" in
  emit_trap_event w th (Cpu.Fault_trap f)
    (K23_obs.Event.Fault { access; addr = f.fault_addr; rip = th.regs.rip });
  deliver_signal w th ~signo:sigsegv ~sysno:0 ~site:th.regs.rip ~args:[||]

let step_thread (w : world) (th : thread) =
  switch_address_space w th;
  w.steps <- w.steps + 1;
  let step =
    match w.isa with K23_isa.Isa.X86_64 -> Cpu.step | K23_isa.Isa.Arm64 -> Cpu.step_arm
  in
  match step ~cost:w.cost th.regs th.t_proc.mem w.icaches.(th.core) with
  | Cpu.Stepped c -> charge w th c
  | Cpu.Trapped (trap, c) -> (
    charge w th c;
    match trap with
    | Cpu.Syscall_trap { site; kind = _ } -> handle_syscall w th ~site
    | Cpu.Vcall_trap idx -> (
      let at = th.regs.rip - K23_isa.Isa.vcall_len w.isa in
      match resolve_vcall th.t_proc ~rip_after:th.regs.rip ~index:idx with
      | Some (_name, f) -> (
        (* a host function's access to guest memory (a trampoline
           reading the return slot) faults as the vcall itself *)
        try f { world = w; thread = th }
        with Memory.Fault fault ->
          th.regs.rip <- at;
          memory_fault w th fault)
      | None -> panic "pid %d: unresolvable vcall %d at %x" th.t_proc.pid idx at)
    | Cpu.Fault_trap f -> memory_fault w th f
    | Cpu.Ud_trap addr ->
      emit_trap_event w th trap (K23_obs.Event.Fault { access = "ILL"; addr; rip = th.regs.rip });
      deliver_signal w th ~signo:sigill ~sysno:0 ~site:addr ~args:[||]
    | Cpu.Int3_trap addr ->
      emit_trap_event w th trap (K23_obs.Event.Fault { access = "BP"; addr; rip = th.regs.rip });
      deliver_signal w th ~signo:sigtrap ~sysno:0 ~site:addr ~args:[||]
    | Cpu.Hlt_trap addr -> panic "pid %d: hlt at %x" th.t_proc.pid addr)

(* ------------------------------------------------------------------ *)
(* Scheduler                                                           *)

let runnable_threads (w : world) =
  List.concat_map
    (fun p -> if proc_dead p then [] else List.filter (fun t -> t.state = Runnable) p.threads)
    w.procs

let blocked_threads (w : world) =
  List.concat_map
    (fun p ->
      if proc_dead p then []
      else List.filter (fun t -> match t.state with Blocked _ -> true | _ -> false) p.threads)
    w.procs

let wake_ready (w : world) =
  List.iter
    (fun th ->
      match th.state with
      | Blocked { ready; _ } when ready () -> th.state <- Runnable
      | _ -> ())
    (blocked_threads w)

(** Run one quantum of a thread; completes a pending blocked syscall
    first if there is one. *)
let run_slice (w : world) (th : thread) =
  (match w.ktrace with
  | None -> ()
  | Some t ->
    (* a different thread starts running on this core: a context
       switch in real-kernel terms (same-thread quantum renewals are
       not events) *)
    if w.ktrace_last_tid.(th.core) <> th.tid then begin
      w.ktrace_last_tid.(th.core) <- th.tid;
      K23_obs.Counters.incr t.counters "sched.switch";
      K23_obs.Trace.emit t ~cycles:w.core_cycles.(th.core) ~pid:th.t_proc.pid ~tid:th.tid
        (K23_obs.Event.Sched_switch { core = th.core })
    end);
  (match th.pending with
  | Some (nr, args) when th.state = Runnable ->
    th.pending <- None;
    (* a retry of the parked call, not a new one: keep its fault key
       and don't tick the schedule again *)
    if w.faults <> None then th.fault_retry <- true;
    if not (finish_syscall w th ~nr ~args) then () (* re-blocked *)
  | _ -> ());
  let budget = ref w.quantum in
  while !budget > 0 && th.state = Runnable && not (proc_dead th.t_proc) do
    step_thread w th;
    decr budget
  done

exception Deadlock of string

(** Cooperative round-robin run loop.  Returns when every process has
    terminated, [max_steps] is exhausted, or [until] turns true. *)
let run ?(max_steps = 200_000_000) ?(until = fun () -> false) (w : world) =
  let start_steps = w.steps in
  let continue_ = ref true in
  while !continue_ do
    wake_ready w;
    let run_now = runnable_threads w in
    if run_now = [] then begin
      let blocked = blocked_threads w in
      if blocked = [] then continue_ := false
      else begin
        (* everything is waiting: advance virtual time so time-based
           waits can fire — straight to the earliest timed-wait
           deadline when one exists (an open-loop client sleeping out
           a long inter-arrival gap must not read as a deadlock), one
           bump otherwise; if nothing wakes, the world is deadlocked *)
        let deadlines =
          List.filter_map
            (fun th -> match th.state with Blocked { deadline; _ } -> deadline | _ -> None)
            blocked
        in
        let t =
          match deadlines with
          | [] -> now w + 10_000
          | ds -> List.fold_left min max_int ds
        in
        Array.iteri (fun i _ -> w.core_cycles.(i) <- max w.core_cycles.(i) t) w.core_cycles;
        wake_ready w;
        if runnable_threads w = [] then
          raise
            (Deadlock
               (String.concat ", "
                  (List.map
                     (fun th ->
                       match th.state with
                       | Blocked { why; _ } -> Printf.sprintf "tid %d: %s" th.tid why
                       | _ -> "?")
                     blocked)))
      end
    end
    else
      List.iter
        (fun th ->
          if !continue_ && th.state = Runnable then begin
            run_slice w th;
            if until () || w.steps - start_steps > max_steps then continue_ := false
          end)
        run_now
  done
