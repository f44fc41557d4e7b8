(** ptrace-based interposition (Section 2.1).

    The tracer attaches before the first instruction of the target, so
    it is the only mechanism that sees {e every} system call —
    including those issued by the dynamic loader before any library
    constructor runs, which is why K23 uses it during startup.  Each
    interposed call costs two stop/round-trips (syscall-entry and
    -exit), the paper's "prohibitive overhead". *)

open K23_kernel.Kern
open K23_interpose.Interpose

(** A tracer wired to the handler ABI. *)
let tracer ~handler ~(stats : stats) : tracer =
 fun ctx ~nr ~site ~args ->
  stats.via_ptrace <- stats.via_ptrace + 1;
  match handler ctx ~nr ~args ~site with Forward -> `Continue | Emulate v -> `Skip v
