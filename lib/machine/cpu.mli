(** Single-instruction execution engine.

    [step] fetches through the core's I-cache, decodes and executes one
    instruction.  The CPU knows nothing about processes or the kernel;
    anything privileged surfaces as a {!trap} for the kernel to
    handle. *)

type trap =
  | Syscall_trap of { site : int; kind : [ `Syscall | `Sysenter | `Svc ] }
      (** [site] is the trapping instruction's address; rip has already
          been advanced past it and rcx/r11 clobbered (x86 syscall
          semantics — the clobber K23's trampoline exploits). *)
  | Vcall_trap of int  (** host-function escape; rip advanced *)
  | Fault_trap of Memory.fault  (** rip NOT advanced *)
  | Ud_trap of int  (** undecodable bytes / ud2; rip not advanced *)
  | Int3_trap of int
  | Hlt_trap of int

type outcome = Stepped of int | Trapped of trap * int
(** The [int] is the cycle cost charged for the step. *)

val trap_name : trap -> string
(** Stable short name for a trap ("syscall", "fault", "ud", "int3",
    "hlt", "vcall") — the machine-level key used by the kernel's
    ktrace event/counter hooks. *)

val step : cost:Cost.model -> Regs.t -> Memory.t -> Icache.t -> outcome

val step_arm : cost:Cost.model -> Regs.t -> Memory.t -> Icache.t -> outcome
(** One AArch64 instruction: aligned 4-byte word fetch
    ({!Icache.fetch_u32}), mask-compare decode, direct execution.
    [svc] raises [Syscall_trap] with kind [`Svc] and clobbers no
    registers. *)
