(* Encoder/decoder/disassembler unit + property tests. *)

open K23_isa

let some_insns : Insn.t list =
  [
    Nop;
    Ret;
    Int3;
    Hlt;
    Syscall;
    Sysenter;
    Ud2;
    Cpuid;
    Mfence;
    Wrpkru;
    Rdpkru;
    Vcall 7;
    Push RAX;
    Push R12;
    Pop RDI;
    Pop R9;
    Mov_ri (RAX, 0x1234_5678_9abc);
    Mov_ri (R10, 500);
    Mov_ri32 (RDI, 0xdead);
    Mov_rr (RSI, RBP);
    Add_rr (RAX, RBX);
    Sub_rr (RDX, RCX);
    Xor_rr (RDI, RDI);
    Test_rr (R11, R11);
    Cmp_rr (RAX, RSI);
    Add_ri (RSP, 16);
    Sub_ri (RSP, -8);
    Cmp_ri (RAX, 0);
    Load (RAX, RSP, 0);
    Store (RSP, 8, RDI);
    Load8 (RCX, RBX, 100);
    Store8 (RBX, -4, RDX);
    Lea (RSI, RSP, 128);
    Jmp_rel 10;
    Call_rel (-20);
    Jcc (Z, 5);
    Jcc (GT, -6);
    Jmp_reg RAX;
    Call_reg RAX;
    Call_reg R11;
    Jmp_reg R12;
  ]

let check_roundtrip insn () =
  let b = Encode.to_bytes insn in
  match Decode.decode_bytes b 0 with
  | Ok (i, len) ->
    Alcotest.(check string) "insn" (Insn.to_string insn) (Insn.to_string i);
    Alcotest.(check int) "len" (Bytes.length b) len
  | Error `Invalid -> Alcotest.failf "did not decode: %s" (Insn.to_string insn)

let test_syscall_bytes () =
  Alcotest.(check string) "syscall is 0f 05" "0f 05" (K23_util.Hexdump.of_bytes (Encode.to_bytes Syscall));
  Alcotest.(check string) "sysenter is 0f 34" "0f 34"
    (K23_util.Hexdump.of_bytes (Encode.to_bytes Sysenter));
  Alcotest.(check string) "callq *rax is ff d0" "ff d0"
    (K23_util.Hexdump.of_bytes (Encode.to_bytes (Call_reg RAX)))

let test_rewrite_size_match () =
  (* the fundamental zpoline property: syscall and callq *rax are both
     2 bytes, so in-place rewriting is possible *)
  Alcotest.(check int) "same length" (Encode.length Syscall) (Encode.length (Call_reg RAX))

(* linear sweep finds plain syscall sites *)
let test_sweep_finds_sites () =
  let prog =
    Encode.assemble [ Nop; Syscall; Mov_ri32 (RAX, 42); Sysenter; Ret ]
  in
  let sites = Disasm.find_syscall_sites prog ~base:0x1000 in
  Alcotest.(check (list int)) "sites" [ 0x1001; 0x1008 ] sites

(* embedded data that contains 0f 05 is misidentified (pitfall P3a) *)
let test_sweep_misidentifies_data () =
  let data = Bytes.of_string "\x0f\x05\x0f\x05" in
  let prog = Bytes.cat (Encode.assemble [ Ret ]) data in
  let sites = Disasm.find_syscall_sites prog ~base:0 in
  Alcotest.(check bool) "false positives in data" true (List.length sites > 0)

(* a syscall hidden inside an immediate is overlooked (pitfall P2a):
   mov eax, imm32 where the immediate bytes are 0f 05 xx xx *)
let test_sweep_overlooks_embedded () =
  let imm = 0x0000_050f in
  let prog = Encode.assemble [ Mov_ri32 (RAX, imm); Ret ] in
  (* raw pattern scan sees the bytes, linear sweep does not *)
  let raw = Disasm.raw_pattern_sites prog ~base:0 in
  let sweep = Disasm.find_syscall_sites prog ~base:0 in
  Alcotest.(check bool) "raw finds the pattern" true (raw <> []);
  Alcotest.(check (list int)) "sweep sees no site" [] sweep

(* desynchronisation: decoding from a misaligned start yields different
   instructions *)
let test_desync () =
  let prog = Encode.assemble [ Mov_ri32 (RAX, 0x0000_050f); Ret ] in
  match Decode.decode_bytes prog 1 with
  | Ok (i, _) ->
    Alcotest.(check bool) "decodes to something else" true (i <> Mov_ri32 (RAX, 0x0000_050f))
  | Error `Invalid -> ()

let prop_roundtrip =
  let open QCheck in
  let reg = Gen.map Reg.of_index (Gen.int_range 0 15) in
  let low_reg = Gen.map Reg.of_index (Gen.int_range 0 7) in
  let imm8 = Gen.int_range (-128) 127 in
  let imm32 = Gen.int_range 0 0xffff_ffff in
  let rel = Gen.int_range (-100000) 100000 in
  let gen : Insn.t Gen.t =
    Gen.oneof
      [
        Gen.map (fun r -> Insn.Push r) reg;
        Gen.map (fun r -> Insn.Pop r) reg;
        Gen.map2 (fun r v -> Insn.Mov_ri (r, v)) reg (Gen.int_range 0 0x3fff_ffff_ffff);
        Gen.map2 (fun r v -> Insn.Mov_ri32 (r, v)) low_reg imm32;
        Gen.map2 (fun a b -> Insn.Mov_rr (a, b)) reg reg;
        Gen.map2 (fun a b -> Insn.Add_rr (a, b)) reg reg;
        Gen.map2 (fun a b -> Insn.Cmp_rr (a, b)) reg reg;
        Gen.map2 (fun r v -> Insn.Add_ri (r, v)) reg imm8;
        Gen.map2 (fun r v -> Insn.Sub_ri (r, v)) reg imm8;
        Gen.map3 (fun a b d -> Insn.Load (a, b, d)) reg reg rel;
        Gen.map3 (fun a d b -> Insn.Store (a, d, b)) reg rel reg;
        Gen.map3 (fun a b d -> Insn.Load8 (a, b, d)) reg reg rel;
        Gen.map3 (fun a b d -> Insn.Lea (a, b, d)) reg reg rel;
        Gen.map (fun d -> Insn.Jmp_rel d) rel;
        Gen.map (fun d -> Insn.Call_rel d) rel;
        Gen.map (fun r -> Insn.Jmp_reg r) reg;
        Gen.map (fun r -> Insn.Call_reg r) reg;
        Gen.map (fun n -> Insn.Vcall n) (Gen.int_range 0 1000);
      ]
  in
  Test.make ~name:"encode/decode roundtrip" ~count:2000
    (make ~print:Insn.to_string gen)
    (fun insn ->
      let b = Encode.to_bytes insn in
      match Decode.decode_bytes b 0 with
      | Ok (i, len) -> i = insn && len = Bytes.length b
      | Error `Invalid -> false)

(* assembling N instructions then sweeping from offset 0 re-finds every
   boundary (sweep is exact when there is no embedded data) *)
let prop_sweep_clean =
  let open QCheck in
  let gen_clean =
    Gen.list_size (Gen.int_range 1 50)
      (Gen.oneofl
         [
           Insn.Nop;
           Insn.Ret;
           Insn.Syscall;
           Insn.Mov_rr (RAX, RBX);
           Insn.Add_ri (RSP, 8);
           Insn.Push RBP;
           Insn.Pop RBP;
         ])
  in
  Test.make ~name:"linear sweep is exact on data-free code" ~count:500 (make gen_clean)
    (fun insns ->
      let b = Encode.assemble insns in
      let items = Disasm.sweep b ~base:0 in
      List.length items = List.length insns
      && List.for_all2 (fun it i -> it.Disasm.insn = Some i) items insns)

(* encode→decode round-trip over the *fuzzer generator's* instruction
   distribution (hazard immediates, boundary displacements, full-width
   Mov_ri), each insn additionally decoded from a placement that
   straddles a 4096-byte page boundary — the straddle shape's decode
   path, minus the MMU *)
let prop_fuzz_gen_roundtrip =
  let open QCheck in
  let page = 4096 in
  let gen_case =
    Gen.map2
      (fun seed overhang -> (seed, overhang))
      (Gen.int_range 0 1_000_000) (Gen.int_range 1 9)
  in
  let print_case (seed, overhang) =
    let insn = K23_fuzz.Gen.random_insn (K23_util.Rng.create ~seed) in
    Printf.sprintf "seed=%d overhang=%d insn=%s" seed overhang (Insn.to_string insn)
  in
  Test.make ~name:"fuzz-gen distribution roundtrips (incl. page straddle)" ~count:2000
    (make ~print:print_case gen_case)
    (fun (seed, overhang) ->
      let insn = K23_fuzz.Gen.random_insn (K23_util.Rng.create ~seed) in
      let b = Encode.to_bytes insn in
      let flat =
        match Decode.decode_bytes b 0 with
        | Ok (i, len) -> i = insn && len = Bytes.length b
        | Error `Invalid -> false
      in
      (* place the insn so its first byte sits [overhang'] bytes before
         a page boundary: bytes split across the 4096 line *)
      let overhang' = min overhang (Bytes.length b) in
      let pos = page - overhang' in
      let buf = Bytes.make (page + Bytes.length b) '\x90' in
      Bytes.blit b 0 buf pos (Bytes.length b);
      let straddled =
        match Decode.decode_bytes buf pos with
        | Ok (i, len) -> i = insn && len = Bytes.length b
        | Error `Invalid -> false
      in
      flat && straddled)

(* The sweep memo returns exactly what a fresh sweep would, through
   hits, one-byte edits (same length, new content) and truncations. *)
let prop_sweep_memo =
  let open QCheck in
  let gen_byte = Gen.(map Char.chr (oneof [ int_range 0 255; oneofl [ 0x0f; 0x05; 0x34 ] ])) in
  let gen_case =
    Gen.(
      pair
        (string_size ~gen:gen_byte (int_range 0 300))
        (list_size (int_range 1 6) (pair (int_range 0 2) (pair nat gen_byte))))
  in
  Test.make ~name:"sweep memo == fresh sweep (hits, edits, truncations)" ~count:300
    (make ~print:(fun (s, edits) -> Printf.sprintf "%S + %d edits" s (List.length edits)) gen_case)
    (fun (s, edits) ->
      let b = Bytes.of_string s in
      let check b =
        Disasm.find_syscall_sites_memo b ~base:0x1000 = Disasm.find_syscall_sites b ~base:0x1000
      in
      check b
      && List.for_all
           (fun (kind, (pos, c)) ->
             let n = Bytes.length b in
             match kind with
             | 0 -> check b
             | 1 when n > 0 ->
               let e = Bytes.copy b in
               Bytes.set e (pos mod n) c;
               check e
             | _ -> check (Bytes.sub b 0 (if n = 0 then 0 else pos mod n)))
           edits)

let tests =
  ( "isa",
    List.map
      (fun i -> Alcotest.test_case ("roundtrip " ^ Insn.to_string i) `Quick (check_roundtrip i))
      some_insns
    @ [
        Alcotest.test_case "syscall opcode bytes" `Quick test_syscall_bytes;
        Alcotest.test_case "rewrite size match" `Quick test_rewrite_size_match;
        Alcotest.test_case "sweep finds sites" `Quick test_sweep_finds_sites;
        Alcotest.test_case "sweep misidentifies data (P3a)" `Quick test_sweep_misidentifies_data;
        Alcotest.test_case "sweep overlooks embedded (P2a)" `Quick test_sweep_overlooks_embedded;
        Alcotest.test_case "desync decode" `Quick test_desync;
        QCheck_alcotest.to_alcotest prop_roundtrip;
        QCheck_alcotest.to_alcotest prop_sweep_clean;
        QCheck_alcotest.to_alcotest prop_fuzz_gen_roundtrip;
        QCheck_alcotest.to_alcotest prop_sweep_memo;
      ] )
