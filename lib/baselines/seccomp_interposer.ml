(** seccomp-based interposition (Sections 1 and 8).

    Two deployment styles, mirroring how seccomp is used in practice:

    + {!image} — SECCOMP_RET_TRAP interposition: every syscall outside
      the handler's own code range raises SIGSYS, the handler runs the
      user handler and re-issues the call.  Exhaustive (after load) and
      expressive, but it pays the full signal round trip like SUD —
      "comparable performance overheads" (Section 1).
    + {!launch_filter_only} — a pure in-kernel policy (ALLOW / ERRNO /
      KILL per syscall number, register-argument predicates).  Nearly
      free, but the interposer's expressiveness collapses: a cBPF
      filter can never dereference pointer arguments
      ("restricts the interposer's expressiveness", Section 1) and no
      user code runs per call. *)

open K23_isa
open K23_kernel
open Kern
open K23_interpose.Interpose

let lib_path = "/usr/lib/libseccomp-interposer.so"

(** TRAP-style interposition (signal-based, expressive): the SIGSYS
    skeleton, armed by a filter that traps every syscall whose
    instruction pointer is outside the library's own text (so the
    handler's re-issued syscalls pass). *)
let image ?(isa = Isa.X86_64) ~handler ~stats () : image =
  let prog = sigsys_program isa ~ctor:("__seccomp_init", "sc_init") [] in
  let sym = Mapper.prog_sym ~name:lib_path prog in
  let cfg = config "seccomp-trap" ~pre_cost:120 ~post_cost:60 ~handler ~stats in
  let init (ctx : ctx) =
    let p = ctx.thread.t_proc in
    let text = install_sigsys_handler p ~sym in
    seccomp_install p (Bpf.trap_outside_ip_range ~lo:text.r_start ~hi:(text.r_start + text.r_len));
    charge ctx.world ctx.thread 600
  in
  library ~name:lib_path ~init:"__seccomp_init" prog (("sc_init", init) :: sigsys_host_fns cfg ~sym ())

(** Pure-filter policy: install [filters] right before main runs via a
    minimal preload whose constructor does only that.  No user handler
    ever runs — that is the point being demonstrated. *)
let launch_filter_only w ~filters ~path ?argv ?env () =
  let init ctx =
    List.iter (seccomp_install ctx.thread.t_proc) filters;
    charge ctx.world ctx.thread (600 * List.length filters)
  in
  let policy =
    library ~name:"/usr/lib/libseccomp-policy.so" ~init:"__policy_init"
      (x86.assemble (ctor_items x86 "__policy_init" "pol_init"))
      [ ("pol_init", init) ]
  in
  spawn w ~tag:"seccomp-filter" ~preload:[ policy ] ~path ?argv ?env ()
