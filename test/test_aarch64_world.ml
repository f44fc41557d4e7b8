(* End-to-end tests of the AArch64 backend as a machine target: worlds
   created with [~isa:Arm64] boot through the ARM ld.so, run apps to
   completion, and support the ARM mechanism set (ASC-Hook, SUD,
   seccomp, ptrace) with the same observable behaviour as native —
   except where a pitfall is structurally present (P3a aliasing). *)

module Arm = K23_isa_arm.Arm
module A = K23_isa_arm.Asm_arm
open K23_kernel
open K23_userland

let isa = K23_isa.Isa.Arm64
let i l = List.map (fun x -> A.I x) l

let hello_text = "hello from arm\n"

let hello_items =
  [ A.Label "main" ]
  @ i (Arm.li 0 1)
  @ [ A.Mov_sym (1, "msg") ]
  @ i (Arm.li 2 (String.length hello_text))
  @ i (Arm.li 8 Sysno.write)
  @ [ A.I (Arm.Svc 0) ]
  @ i (Arm.li 0 0)
  @ i (Arm.li 8 Sysno.exit_group)
  @ [ A.I (Arm.Svc 0); A.Section `Data; A.Label "msg"; A.Strz hello_text ]

let boot ?(mech = K23_eval.Mech.Native) items =
  let w = Sim.create_world ~isa () in
  ignore (Sim.register_app_prog w ~path:"/bin/app" (A.assemble items));
  match K23_eval.Mech.launch mech w ~path:"/bin/app" () with
  | Error e -> Alcotest.failf "launch failed: %d" e
  | Ok (p, stats) ->
    World.run_until_exit w p;
    (p, stats)

let test_hello_native () =
  let p, _ = boot hello_items in
  Alcotest.(check (option int)) "exit 0" (Some 0) p.Kern.exit_status;
  Alcotest.(check string) "stdout" hello_text (World.stdout_of p)

(* every ARM mechanism must be observably identical to native on a
   well-behaved program (the oracle's core claim, in miniature) *)
let test_mech_parity () =
  let native, _ = boot hello_items in
  List.iter
    (fun mech ->
      let p, stats = boot ~mech hello_items in
      let name = K23_eval.Mech.to_string mech in
      Alcotest.(check (option int)) (name ^ " exit") native.Kern.exit_status p.Kern.exit_status;
      Alcotest.(check string) (name ^ " stdout") (World.stdout_of native) (World.stdout_of p);
      match stats with
      | Some s ->
        Alcotest.(check bool) (name ^ " interposed something") true (s.K23_interpose.Interpose.interposed > 0)
      | None -> ())
    [ K23_eval.Mech.Asc_hook; K23_eval.Mech.Sud; K23_eval.Mech.Seccomp; K23_eval.Mech.Ptrace ]

(* ASC-Hook transparency: svc clobbers nothing on ARM and the slot is
   entered by [b], so a program that checks its registers around a
   syscall sees no difference *)
let clobber_items =
  [ A.Label "main" ]
  @ i (Arm.li 9 0x1234)
  @ i (Arm.li 30 0x5678) (* the link register: a call-based rewrite would trash it *)
  @ i (Arm.li 8 Sysno.getpid)
  @ [ A.I (Arm.Svc 0) ]
  @ i (Arm.li 10 0x1234)
  @ [ A.I (Arm.Subs_rr (31, 9, 10)); A.Jc (K23_isa.Insn.NZ, "bad") ]
  @ i (Arm.li 10 0x5678)
  @ [ A.I (Arm.Subs_rr (31, 30, 10)); A.Jc (K23_isa.Insn.NZ, "bad") ]
  @ i (Arm.li 0 0)
  @ i (Arm.li 8 Sysno.exit_group)
  @ [ A.I (Arm.Svc 0); A.Label "bad" ]
  @ i (Arm.li 0 1)
  @ i (Arm.li 8 Sysno.exit_group)
  @ [ A.I (Arm.Svc 0) ]

let test_asc_transparent () =
  let p, _ = boot ~mech:K23_eval.Mech.Asc_hook clobber_items in
  Alcotest.(check (option int)) "registers preserved" (Some 0) p.Kern.exit_status

(* P3a is structural under ASC-Hook: a data word in text whose value
   aliases [svc] is patched, so a program reading its own literal pool
   observes the rewrite.  Native and ASC-Hook runs diverge — exactly
   the residual the ISSUE's fuzz shape hunts. *)
let alias_items =
  let alias = Arm.encode (Arm.Svc 7) in
  [
    A.Label "main";
    A.I (Arm.Ldr_lit (3, 2)) (* x3 := the quad 8 bytes below *);
    A.J "cont";
    A.Quad alias (* low word aliases svc: indistinguishable from code *);
    A.Label "cont";
  ]
  @ i (Arm.li 4 alias)
  @ [ A.I (Arm.Subs_rr (31, 3, 4)); A.Jc (K23_isa.Insn.NZ, "patched") ]
  @ i (Arm.li 0 0)
  @ i (Arm.li 8 Sysno.exit_group)
  @ [ A.I (Arm.Svc 0); A.Label "patched" ]
  @ i (Arm.li 0 1)
  @ i (Arm.li 8 Sysno.exit_group)
  @ [ A.I (Arm.Svc 0) ]

let test_asc_p3a_residual () =
  let native, _ = boot alias_items in
  let asc, _ = boot ~mech:K23_eval.Mech.Asc_hook alias_items in
  Alcotest.(check (option int)) "native sees its literal" (Some 0) native.Kern.exit_status;
  Alcotest.(check (option int)) "asc-hook patched the literal" (Some 1) asc.Kern.exit_status

(* x86-only mechanisms are rejected up front on ARM worlds *)
let test_mech_availability () =
  let avail = K23_eval.Mech.available ~isa in
  Alcotest.(check bool) "no zpoline on arm" false (List.mem K23_eval.Mech.Zpoline_default avail);
  Alcotest.(check bool) "no k23 on arm" false (List.mem K23_eval.Mech.K23_default avail);
  Alcotest.(check bool) "asc-hook on arm" true (List.mem K23_eval.Mech.Asc_hook avail);
  Alcotest.(check bool) "asc-hook not on x86" false
    (List.mem K23_eval.Mech.Asc_hook (K23_eval.Mech.available ~isa:K23_isa.Isa.X86_64));
  (* every mechanism is available somewhere: nothing falls through the
     availability partition *)
  List.iter
    (fun m ->
      Alcotest.(check bool)
        (K23_eval.Mech.to_string m ^ " reachable")
        true
        (List.mem m (K23_eval.Mech.available ~isa)
        || List.mem m (K23_eval.Mech.available ~isa:K23_isa.Isa.X86_64)))
    K23_eval.Mech.all;
  (* and launching outside the partition is refused up front, naming
     the mechanism, the ISA and the available set — never a launch
     that runs and dies *)
  List.iter
    (fun isa ->
      let avail = K23_eval.Mech.available ~isa in
      let w = Sim.create_world ~isa () in
      List.iter
        (fun m ->
          if not (List.mem m avail) then
            Alcotest.check_raises
              (K23_eval.Mech.to_string m ^ " refused on " ^ K23_isa.Isa.to_string isa)
              (Invalid_argument
                 (Printf.sprintf "mechanism %s is not available on %s (available: %s)"
                    (K23_eval.Mech.to_string m) (K23_isa.Isa.to_string isa)
                    (String.concat ", " (List.map K23_eval.Mech.to_string avail))))
              (fun () -> ignore (K23_eval.Mech.launch m w ~path:"/bin/app" ())))
        K23_eval.Mech.all)
    K23_isa.Isa.all

(* an unresolvable host-function escape panics naming the vcall
   instruction's own address: one 4-byte word on ARM, so the address
   is the entry point itself (text is fixed at 0x400000) *)
let test_vcall_panic_address () =
  match boot [ A.Label "main"; A.Vcall_named "missing" ] with
  | _ -> Alcotest.fail "expected a kernel panic"
  | exception Kern.Kernel_panic msg ->
    let suffix = "unresolvable vcall 0 at 400000" in
    Alcotest.(check string) "names the vcall" suffix
      (String.sub msg (String.length msg - String.length suffix) (String.length suffix))

(* a world is single-ISA: resetting under a different ISA must refuse *)
let test_reset_isa_mismatch () =
  let w = Sim.create_world ~isa () in
  Alcotest.check_raises "reset refuses isa change"
    (Invalid_argument "World.reset: isa/ncores/quantum differ from the world being reset")
    (fun () -> ignore (World.reset w (World.Config.make ())))

let tests =
  ( "arm world (AArch64 backend)",
    [
      Alcotest.test_case "hello boots natively" `Quick test_hello_native;
      Alcotest.test_case "mech parity on well-behaved app" `Quick test_mech_parity;
      Alcotest.test_case "asc-hook is register-transparent" `Quick test_asc_transparent;
      Alcotest.test_case "asc-hook P3a residual (alias word patched)" `Quick test_asc_p3a_residual;
      Alcotest.test_case "mech availability partitions by isa" `Quick test_mech_availability;
      Alcotest.test_case "reset refuses isa mismatch" `Quick test_reset_isa_mismatch;
      Alcotest.test_case "vcall panic names the vcall's address" `Quick test_vcall_panic_address;
    ] )
