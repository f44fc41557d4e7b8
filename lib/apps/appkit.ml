(** Shared building blocks for the workload applications. *)

open K23_isa
open K23_kernel

(** Generate [n] distinct inlined syscall sites, executed once each.

    Real servers contain dozens of statically distinct syscall call
    sites that fire during initialisation (sigaction batteries,
    setsockopt runs, rlimit probes, ...).  Table 2's per-application
    unique-site counts (43 for nginx, 92 for redis, ...) come mostly
    from this diversity, so we synthesise it: each generated site is a
    separate [syscall] instruction in the binary, executed once at
    startup. *)
let init_sites n =
  let benign = [| Sysno.getpid; Sysno.gettid; Sysno.ioctl; Sysno.fcntl; Sysno.rt_sigprocmask; Sysno.sched_yield |] in
  List.concat
    (List.init n (fun i ->
         [
           Asm.I (Insn.Mov_ri (RAX, benign.(i mod Array.length benign)));
           Asm.I (Insn.Xor_rr (RDI, RDI));
           Asm.I Insn.Syscall;
         ]))

(** exit(code) *)
let exit_with code =
  [ Asm.I (Insn.Mov_ri (RDI, code)); Asm.Call_sym "exit" ]

(** The resilient servers' retry snippets.  Backoff before a retry is
    nanosleep(200); RSI must be 0, since the kernel stashes the wake
    deadline in arg 1. *)
let backoff_items =
  [
    Asm.I (Insn.Mov_ri (RDI, 200));
    Asm.I (Insn.Mov_ri (RSI, 0));
    Asm.Call_sym "nanosleep";
  ]

(** rax <= 0 after a read/write: jump to [retry] on EINTR/EAGAIN, give
    the connection up (label [close_conn]) otherwise.  ECONNRESET also
    retries: the fault plane injects it as errno noise on an intact
    connection, so closing would orphan every later request the client
    sends on it. *)
let retry_or_close ~retry =
  [
    Asm.I (Insn.Cmp_ri (RAX, -Errno.eintr));
    Asm.Jc (Insn.Z, retry);
    Asm.I (Insn.Cmp_ri (RAX, -Errno.eagain));
    Asm.Jc (Insn.Z, retry);
    Asm.I (Insn.Cmp_ri (RAX, -Errno.econnreset));
    Asm.Jc (Insn.Z, retry);
    Asm.J "close_conn";
  ]

(** The accept loop over the listening socket in rbx: each accepted
    connection goes to r14 and runs [conn_body] until that jumps to
    [close_conn].  [resilient]: an accept error (an injected
    EMFILE/EAGAIN) re-accepts instead of serving a garbage fd. *)
let serve ~resilient conn_body =
  [ Asm.Label "accept_loop"; Asm.I (Insn.Mov_rr (RDI, RBX)); Asm.Call_sym "accept" ]
  @ (if resilient then [ Asm.I (Insn.Cmp_ri (RAX, 0)); Asm.Jc (Insn.LT, "accept_loop") ] else [])
  @ [ Asm.I (Insn.Mov_rr (R14, RAX)); Asm.Label "conn_loop" ]
  @ conn_body
  @ [
      Asm.J "conn_loop";
      Asm.Label "close_conn";
      Asm.I (Insn.Mov_rr (RDI, R14));
      Asm.Call_sym "close";
      Asm.J "accept_loop";
    ]

(** Read one fixed 64-byte request frame from the connection in r14
    into [buf]; a read of 0 or less closes the connection.
    [resilient]: accumulate the frame in r13, retrying EINTR/EAGAIN
    (budget in r15) with a short backoff — a short read must not
    desynchronize the framing. *)
let read_request ~resilient =
  if resilient then
    [
      Asm.I (Insn.Mov_ri (R13, 0));
      Asm.I (Insn.Mov_ri (R15, 8));
      Asm.Label "rq_read";
      Asm.I (Insn.Mov_rr (RDI, R14));
      Asm.Mov_sym (Reg.RSI, "buf");
      Asm.I (Insn.Add_rr (RSI, R13));
      Asm.I (Insn.Mov_ri (RDX, 64));
      Asm.I (Insn.Sub_rr (RDX, R13));
      Asm.Call_sym "read";
      Asm.I (Insn.Cmp_ri (RAX, 0));
      Asm.Jc (Insn.GT, "rq_got");
    ]
    @ retry_or_close ~retry:"rq_retry"
    @ [ Asm.Label "rq_retry"; Asm.I (Insn.Sub_ri (R15, 1)); Asm.Jc (Insn.LE, "close_conn") ]
    @ backoff_items
    @ [
        Asm.J "rq_read";
        Asm.Label "rq_got";
        Asm.I (Insn.Add_rr (R13, RAX));
        Asm.I (Insn.Cmp_ri (R13, 64));
        Asm.Jc (Insn.LT, "rq_read");
      ]
  else
    [
      Asm.I (Insn.Mov_rr (RDI, R14));
      Asm.Mov_sym (Reg.RSI, "buf");
      Asm.I (Insn.Mov_ri (RDX, 64));
      Asm.Call_sym "read";
      Asm.I (Insn.Cmp_ri (RAX, 0));
      Asm.Jc (Insn.LE, "close_conn");
    ]

(** Write the [len]-byte response at [resp] to the connection in r14.
    [resilient]: resume partial writes, r13 counting the bytes still
    owed (a countdown, so [len] is never a Cmp_ri imm8 operand), and
    retry EINTR/EAGAIN until the frame is out — abandoning a
    half-written response would desynchronize the client. *)
let write_response ~resilient len =
  if resilient then
    [
      Asm.I (Insn.Mov_ri (R13, len));
      Asm.Label "wr_loop";
      Asm.I (Insn.Mov_rr (RDI, R14));
      Asm.Mov_sym (Reg.RSI, "resp");
      Asm.I (Insn.Mov_ri (RDX, len));
      Asm.I (Insn.Add_rr (RSI, RDX));
      Asm.I (Insn.Sub_rr (RSI, R13));
      Asm.I (Insn.Mov_rr (RDX, R13));
      Asm.Call_sym "write";
      Asm.I (Insn.Cmp_ri (RAX, 0));
      Asm.Jc (Insn.GT, "wr_ok");
    ]
    @ retry_or_close ~retry:"wr_retry"
    @ [ Asm.Label "wr_retry" ]
    @ backoff_items
    @ [
        Asm.J "wr_loop";
        Asm.Label "wr_ok";
        Asm.I (Insn.Sub_rr (R13, RAX));
        Asm.I (Insn.Cmp_ri (R13, 0));
        Asm.Jc (Insn.GT, "wr_loop");
      ]
  else
    [
      Asm.I (Insn.Mov_rr (RDI, R14));
      Asm.Mov_sym (Reg.RSI, "resp");
      Asm.I (Insn.Mov_ri (RDX, len));
      Asm.Call_sym "write";
    ]

(** Charge an application-logic cost with ~1% deterministic jitter
    (models microarchitectural run-to-run noise so the benchmark's
    standard deviations are non-degenerate). *)
let charge_work (ctx : Kern.ctx) base =
  let jitter = if base >= 100 then K23_util.Rng.int ctx.world.rng (base / 100 * 2 + 1) else 0 in
  Kern.charge ctx.world ctx.thread (base + jitter)

(** A serialised critical section, modelled analytically: the caller
    stalls until the previous holder's window ends, then occupies it
    for [cost] cycles.  Used for redis' single command-execution
    thread. *)
type serial = { mutable until : int }

let serial_create () = { until = 0 }

let serial_enter (ctx : Kern.ctx) s ~cost =
  let w = ctx.world in
  let busy = w.core_cycles.(ctx.thread.core) in
  let start = max busy s.until in
  s.until <- start + cost;
  Kern.charge w ctx.thread (start - busy + cost)

(** Variant for critical sections that contain simulated code whose
    cost is only known after it ran (e.g. a notification syscall under
    an unknown interposer): the measured extra time extends the chain
    reservation but is not re-charged to the core (it already paid). *)
let serial_enter_measured (ctx : Kern.ctx) s ~cost ~measured_extra =
  let w = ctx.world in
  let busy = w.core_cycles.(ctx.thread.core) in
  let start = max busy s.until in
  s.until <- start + cost + measured_extra;
  Kern.charge w ctx.thread (start - busy);
  charge_work ctx cost
