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

(** Host-function helpers. *)
let ret (ctx : Kern.ctx) v = K23_machine.Regs.set ctx.thread.regs RAX v

let arg (ctx : Kern.ctx) r = K23_machine.Regs.get ctx.thread.regs r

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
