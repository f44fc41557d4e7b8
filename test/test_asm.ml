(* Assembler DSL: labels, sections, relocations, vcall numbering. *)

open K23_isa

let test_label_branches () =
  let prog =
    Asm.assemble
      [
        Asm.Label "start";
        Asm.I (Insn.Mov_ri (RAX, 1));
        Asm.J "end";
        Asm.I (Insn.Mov_ri (RAX, 2));
        Asm.Label "end";
        Asm.I Insn.Ret;
      ]
  in
  (* decode the jmp at offset 10; it must skip the second 10-byte mov *)
  match Decode.decode_bytes prog.Asm.text 10 with
  | Ok (Insn.Jmp_rel d, len) -> Alcotest.(check int) "skips mov" 10 (d + len - len)
  | _ -> Alcotest.fail "expected jmp"

let test_backward_branch () =
  let prog =
    Asm.assemble [ Asm.Label "top"; Asm.I Insn.Nop; Asm.J "top" ]
  in
  match Decode.decode_bytes prog.Asm.text 1 with
  | Ok (Insn.Jmp_rel d, _) -> Alcotest.(check int) "back to top" (-6) d
  | _ -> Alcotest.fail "expected jmp"

let test_sections_and_symbols () =
  let prog =
    Asm.assemble
      [
        Asm.Label "code";
        Asm.I Insn.Ret;
        Asm.Section `Data;
        Asm.Label "d1";
        Asm.Quad 0x1122334455;
        Asm.Label "d2";
        Asm.Strz "xy";
      ]
  in
  Alcotest.(check int) "text size" 1 (Bytes.length prog.Asm.text);
  Alcotest.(check int) "data size" 11 (Bytes.length prog.Asm.data);
  (match List.assoc "d2" prog.Asm.symbols with
  | `Data, 8 -> ()
  | _ -> Alcotest.fail "d2 at data+8");
  Alcotest.(check char) "strz content" 'x' (Bytes.get prog.Asm.data 8)

let test_relocs_recorded () =
  let prog =
    Asm.assemble [ Asm.Label "main"; Asm.Call_sym "write"; Asm.Mov_sym (Reg.RDI, "msg"); Asm.I Insn.Ret ]
  in
  Alcotest.(check int) "two relocs" 2 (List.length prog.Asm.relocs);
  let r = List.hd prog.Asm.relocs in
  Alcotest.(check string) "first reloc symbol" "write" r.Asm.reloc_symbol;
  (* imm64 slot of mov r11 is 2 bytes into the pseudo-instruction *)
  Alcotest.(check int) "slot offset" 2 r.Asm.reloc_offset

let test_vcall_indices () =
  let prog =
    Asm.assemble
      [
        Asm.Vcall_named "alpha";
        Asm.Vcall_named "beta";
        Asm.Vcall_named "alpha";  (* repeated name reuses the index *)
      ]
  in
  Alcotest.(check (list string)) "table" [ "alpha"; "beta" ] prog.Asm.vcalls;
  (match Decode.decode_bytes prog.Asm.text 0 with
  | Ok (Insn.Vcall 0, _) -> ()
  | _ -> Alcotest.fail "alpha=0");
  (match Decode.decode_bytes prog.Asm.text 6 with
  | Ok (Insn.Vcall 1, _) -> ()
  | _ -> Alcotest.fail "beta=1");
  match Decode.decode_bytes prog.Asm.text 12 with
  | Ok (Insn.Vcall 0, _) -> ()
  | _ -> Alcotest.fail "alpha reused"

let test_undefined_label_raises () =
  match Asm.assemble [ Asm.J "nowhere" ] with
  | exception Asm.Asm_error _ -> ()
  | _ -> Alcotest.fail "must reject undefined label"

let test_blob_and_zeros_layout () =
  let prog =
    Asm.assemble
      [ Asm.Blob (Bytes.of_string "\x0f\x05"); Asm.Zeros 3; Asm.Label "after"; Asm.I Insn.Ret ]
  in
  (match List.assoc "after" prog.Asm.symbols with
  | `Text, 5 -> ()
  | _ -> Alcotest.fail "label after blob+zeros");
  Alcotest.(check char) "blob bytes" '\x0f' (Bytes.get prog.Asm.text 0)

(* ---------------- the AArch64 backend ---------------- *)

module A = K23_isa_arm.Asm_arm
module Arm = K23_isa_arm.Arm

let arm_word (prog : Asm.program) off = Arm.decode (Arm.word_of_bytes prog.text off)

let arm_insn =
  Alcotest.testable (fun fmt i -> Format.pp_print_string fmt (Arm.to_string i)) ( = )

let test_aarch64_branches () =
  let prog =
    A.assemble
      [ A.Label "start"; A.I (Arm.Movz (0, 1)); A.J "end"; A.I (Arm.Movz (0, 2)); A.Label "end"; A.J "start" ]
  in
  (* AArch64 branches count words from the branch itself *)
  Alcotest.(check (option arm_insn)) "forward over one word" (Some (Arm.B 2)) (arm_word prog 4);
  Alcotest.(check (option arm_insn)) "back to start" (Some (Arm.B (-3))) (arm_word prog 12)

let test_aarch64_relocs () =
  let prog = A.assemble [ A.Label "main"; A.Call_sym "write"; A.Mov_sym (0, "msg"); A.I Arm.Ret ] in
  (* the slot is the literal-pool quad after [ldr; b]: 8 bytes into
     each 20-byte call and 16-byte load *)
  Alcotest.(check (list (pair string int)))
    "symbols at their slots" [ ("write", 8); ("msg", 28) ]
    (List.map (fun (r : Asm.reloc) -> (r.reloc_symbol, r.reloc_offset)) prog.relocs);
  Alcotest.(check (option arm_insn)) "ldr x0, the literal" (Some (Arm.Ldr_lit (0, 2))) (arm_word prog 20);
  Alcotest.(check (option arm_insn)) "blr x17" (Some (Arm.Blr 17)) (arm_word prog 16)

let test_aarch64_vcall_indices () =
  let prog = A.assemble [ A.Vcall_named "alpha"; A.Vcall_named "beta"; A.Vcall_named "alpha" ] in
  Alcotest.(check (list string)) "table" [ "alpha"; "beta" ] prog.vcalls;
  Alcotest.(check (list (option arm_insn)))
    "indices" [ Some (Arm.Vcall 0); Some (Arm.Vcall 1); Some (Arm.Vcall 0) ]
    (List.map (arm_word prog) [ 0; 4; 8 ])

let rejects name items () =
  match A.assemble items with
  | exception Asm.Asm_error _ -> ()
  | _ -> Alcotest.failf "must reject %s" name

let tests =
  ( "asm",
    [
      Alcotest.test_case "forward branch" `Quick test_label_branches;
      Alcotest.test_case "backward branch" `Quick test_backward_branch;
      Alcotest.test_case "sections and symbols" `Quick test_sections_and_symbols;
      Alcotest.test_case "relocations" `Quick test_relocs_recorded;
      Alcotest.test_case "vcall numbering" `Quick test_vcall_indices;
      Alcotest.test_case "undefined label" `Quick test_undefined_label_raises;
      Alcotest.test_case "blob/zeros layout" `Quick test_blob_and_zeros_layout;
      Alcotest.test_case "arm: branches" `Quick test_aarch64_branches;
      Alcotest.test_case "arm: relocation slots" `Quick test_aarch64_relocs;
      Alcotest.test_case "arm: vcall numbering" `Quick test_aarch64_vcall_indices;
      Alcotest.test_case "arm: unaligned instruction" `Quick
        (rejects "an unaligned instruction" [ A.Blob (Bytes.make 2 '\000'); A.I Arm.Nop ]);
      Alcotest.test_case "arm: unaligned branch target" `Quick
        (rejects "an unaligned branch target" [ A.J "t"; A.Blob (Bytes.make 2 '\000'); A.Label "t" ]);
      Alcotest.test_case "arm: cross-section branch" `Quick
        (rejects "a cross-section branch" [ A.J "d"; A.Section `Data; A.Label "d"; A.Quad 0 ]);
    ] )
