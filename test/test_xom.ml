(* The permission-restore half of pitfall P5: lazypoline "restores"
   page permissions to an assumed r-x, silently stripping eXecute-Only
   Memory; zpoline/K23 save and restore the real permissions. *)

open K23_isa
open K23_kernel
open K23_userland
module I = K23_interpose.Interpose
module Lp = K23_baselines.Lazypoline

(* a process with an XOM page holding a syscall instruction *)
let xom_fixture () =
  let w = Sim.create_world () in
  ignore
    (Sim.register_app w ~path:"/bin/x"
       [ Asm.Label "main"; Asm.I (Insn.Xor_rr (RDI, RDI)); Asm.Call_sym "exit" ]);
  let p = Sim.run_to_exit w ~path:"/bin/x" () in
  let th = List.hd p.threads in
  K23_machine.Memory.map p.mem ~addr:0x5_0000 ~len:4096 ~perm:K23_machine.Memory.perm_x;
  K23_machine.Memory.write_bytes_raw p.mem 0x5_0000 (Bytes.of_string "\x0f\x05");
  (w, p, th)

let perm_at p addr =
  match K23_machine.Memory.get_perm p addr with
  | Some perm -> K23_machine.Memory.perm_to_string perm
  | None -> "(unmapped)"

let test_lazypoline_strips_xom () =
  let w, p, th = xom_fixture () in
  (* simulate lazypoline's SIGSYS-driven rewrite of the XOM site: push
     the frame its handler would see, then run its two store steps *)
  th.frames <-
    [
      {
        Kern.fr_regs = K23_machine.Regs.copy th.regs;
        fr_signo = 31;
        fr_sysno = 39;
        fr_site = 0x5_0000;
        fr_args = [| 0; 0; 0; 0; 0; 0 |];
      };
    ];
  let states : Lp.states = K23_machine.Inttbl.create 4 in
  let ctx = { Kern.world = w; thread = th } in
  Lp.rw_step1 states ctx;
  Lp.rw_step2 states ctx;
  Alcotest.(check string) "rewritten" "ff d0"
    (K23_util.Hexdump.of_bytes (K23_machine.Memory.read_bytes_raw p.mem 0x5_0000 2));
  (* the flaw: execute-only became readable *)
  Alcotest.(check string) "XOM silently stripped to r-x" "r-x" (perm_at p.mem 0x5_0000)

let test_k23_preserves_xom () =
  let w, p, th = xom_fixture () in
  ignore p;
  I.rewrite_site_atomic { Kern.world = w; thread = th } ~site:0x5_0000;
  Alcotest.(check string) "XOM preserved" "--x" (perm_at th.Kern.t_proc.mem 0x5_0000)

let tests =
  ( "XOM restore (P5 permissions)",
    [
      Alcotest.test_case "lazypoline strips XOM" `Quick test_lazypoline_strips_xom;
      Alcotest.test_case "K23-style rewrite preserves XOM" `Quick test_k23_preserves_xom;
    ] )
