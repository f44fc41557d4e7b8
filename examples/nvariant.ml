(* N-variant execution on K23 (the paper's Bunshin motivation for
   exhaustive interposition, Section 4.2): run two variants of the same
   program and cross-check their system call streams in lockstep; any
   divergence signals memory corruption or compromise of one variant.

   This only works if *every* system call of both variants is
   observed: a missed call desynchronises the monitor.  K23's
   exhaustiveness (ptrace startup + rewriting + SUD fallback) is what
   makes the check sound without Bunshin's kernel modifications.

   Run with:  dune exec examples/nvariant.exe *)

open K23_isa
open K23_kernel
open K23_userland
module K23 = K23_core.K23
module I = K23_interpose.Interpose

let app =
  [
    Asm.Label "main";
    Asm.I (Insn.Mov_ri (R13, 5));
    Asm.Label "loop";
    Asm.Call_sym "getpid";
    Asm.I (Insn.Mov_ri (RDI, 1));
    Asm.Mov_sym (Reg.RSI, "msg");
    Asm.I (Insn.Mov_ri (RDX, 6));
    Asm.Call_sym "write";
    Asm.I (Insn.Sub_ri (R13, 1));
    Asm.Jc (Insn.NZ, "loop");
    Asm.I (Insn.Xor_rr (RDI, RDI));
    Asm.Call_sym "exit";
    Asm.Section `Data;
    Asm.Label "msg";
    Asm.Strz "tick\n";
  ]

(* The lockstep monitor: each variant appends (nr, arg-digest) events
   to its stream; a divergence check compares the streams index by
   index.  Events that legitimately differ across variants (addresses
   under ASLR) are digested by syscall number + buffer contents, not
   raw pointer values — standard MVX practice. *)
type event = { nr : int; digest : string }

let monitor streams idx : I.handler =
 fun ctx ~nr ~args ~site:_ ->
  let p = ctx.thread.t_proc in
  (* digest policy: compare what is semantically observable.  Write
     buffers are compared by content; pointer-valued arguments vary
     legitimately under ASLR and are normalised away; fd-valued
     arguments are compared directly. *)
  let digest =
    if nr = Sysno.write then
      Printf.sprintf "fd%d:%s" args.(0) (K23_machine.Memory.read_cstr p.mem args.(1))
    else if nr = Sysno.read || nr = Sysno.close then string_of_int args.(0)
    else "-"
  in
  streams.(idx) <- { nr; digest } :: streams.(idx);
  Forward

let () =
  let streams = [| []; [] |] in
  let run idx ~seed =
    let w = Sim.create_world ~seed () in
    ignore (Sim.register_app w ~path:"/bin/variant" app);
    ignore (K23.offline_run w ~path:"/bin/variant" ());
    K23.seal_logs w;
    match K23.launch w ~variant:K23.Ultra ~inner:(monitor streams idx) ~path:"/bin/variant" () with
    | Error e -> failwith (Printf.sprintf "variant %d failed: %d" idx e)
    | Ok (p, stats) ->
      World.run_until_exit w p;
      Printf.printf "variant %d (seed %d, ASLR slide %#x): %d syscalls, exhaustive=%b\n" idx seed
        p.aslr_slide stats.interposed
        (stats.interposed = p.counters.c_app)
  in
  (* two variants: different ASLR layouts, same program *)
  run 0 ~seed:101;
  run 1 ~seed:202;
  let a = List.rev streams.(0) and b = List.rev streams.(1) in
  Printf.printf "\nlockstep check over %d / %d events: " (List.length a) (List.length b);
  if List.length a <> List.length b then print_endline "DIVERGENCE (length)"
  else begin
    let diverged =
      List.exists2 (fun x y -> x.nr <> y.nr || x.digest <> y.digest) a b
    in
    print_endline (if diverged then "DIVERGENCE" else "variants agree — no corruption detected")
  end
