(** Cycle-cost model.

    The simulation measures time in deterministic "cycles".  The
    constants below are calibrated so that the *relative* overheads of
    the interposition mechanisms land where the paper's testbed
    measured them (Table 5); see EXPERIMENTS.md for the calibration
    notes.  Absolute cycle values are meaningless — only ratios are
    reported, exactly as in the paper.

    The model is a record so ablation benchmarks can vary individual
    costs. *)

type model = {
  insn : int;  (** ordinary instruction *)
  nop : int;  (** nop-sled entries are effectively free on real hardware *)
  syscall_base : int;  (** kernel entry + dispatch + exit for a fast syscall *)
  sud_armed_extra : int;
      (** extra kernel-path cost for every syscall once SUD is
          initialised, even with interposition toggled off via the
          selector ("SUD-no-interposition" in Table 5) *)
  sigsys_delivery : int;  (** building + delivering a SIGSYS signal frame *)
  sigreturn_extra : int;  (** rt_sigreturn beyond its own syscall cost *)
  ptrace_stop : int;  (** one tracee stop + tracer round trip *)
  ptrace_mem_op : int;  (** one PTRACE_PEEK/POKE-style remote access *)
}

let default =
  {
    insn = 1;
    nop = 0;
    syscall_base = 150;
    sud_armed_extra = 35;
    sigsys_delivery = 905;
    sigreturn_extra = 705;
    ptrace_stop = 3000;
    ptrace_mem_op = 400;
  }

(** The comma form [insn,nop,syscall_base,...], in field order: the
    model's wire spelling ([World.Config.to_fields]). *)
let to_string m =
  Printf.sprintf "%d,%d,%d,%d,%d,%d,%d,%d" m.insn m.nop m.syscall_base m.sud_armed_extra
    m.sigsys_delivery m.sigreturn_extra m.ptrace_stop m.ptrace_mem_op

(** Inverse of {!to_string}; [None] on malformed input. *)
let of_string s =
  match String.split_on_char ',' s |> List.map int_of_string_opt with
  | [
   Some insn; Some nop; Some syscall_base; Some sud_armed_extra; Some sigsys_delivery;
   Some sigreturn_extra; Some ptrace_stop; Some ptrace_mem_op;
  ] ->
    Some
      {
        insn; nop; syscall_base; sud_armed_extra; sigsys_delivery; sigreturn_extra; ptrace_stop;
        ptrace_mem_op;
      }
  | _ -> None

(** Per-instruction execution cost (kernel-side trap costs are added by
    the kernel, not here). *)
let insn_cost m (i : K23_isa.Insn.t) =
  match i with
  | Nop -> m.nop
  | Cpuid | Mfence -> 30  (* serialising instructions drain the pipeline *)
  | Wrpkru | Rdpkru -> 20  (* measured ~20-60 cycles on real parts *)
  | _ -> m.insn
