(** Plain Syscall User Dispatch interposition (Section 2.1).

    Exhaustive (after its library loads) and fully expressive, but
    every interposed system call pays signal delivery + handler +
    re-issued syscall + rt_sigreturn — the ~15x microbenchmark
    overhead of Table 5 and the throughput collapse of Table 6. *)

open K23_isa
open K23_kernel
open Kern
open K23_interpose.Interpose

let lib_path = "/usr/lib/libsud.so"

let image ?(interpose_on = true) ?(isa = Isa.X86_64) ~handler ~stats () : image =
  let prog = sigsys_program isa ~ctor:("__sud_init", "sud_init") [ "sud_selector" ] in
  let sym = Mapper.prog_sym ~name:lib_path prog in
  (* handler prologue/epilogue work measured on real SUD *)
  let cfg =
    {
      (config "sud" ~pre_cost:120 ~post_cost:60 ~handler ~stats) with
      sud_selector = (fun p -> sym p "sud_selector");
    }
  in
  let init (ctx : ctx) =
    let sel_addr = arm_sud ctx cfg ~sym in
    (* [interpose_on = false] gives the paper's "SUD-no-interposition"
       configuration: SUD initialised, selector left on ALLOW, so only
       the kernel slow path is measured *)
    set_selector_all_slots ctx.thread.t_proc ~sel_addr
      (if interpose_on then selector_block else selector_allow)
  in
  library ~name:lib_path ~init:"__sud_init" prog (("sud_init", init) :: sigsys_host_fns cfg ~sym ())
