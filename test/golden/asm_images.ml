(* Prints one line per assembled program: name, text and data sizes,
   and the MD5 of the text, data, symbol table, relocations and vcall
   table.  Covers every image a world registers on each ISA, the
   interposer images, both execve children, and a digest of 1,000
   generated fuzz programs per ISA (with their corpus lines).  The
   listing is diffed against asm-images.txt, so any change to an
   assembled byte fails `dune runtest`. *)

open K23_isa
module Gen = K23_fuzz.Gen
module Corpus = K23_fuzz.Corpus
module I = K23_interpose.Interpose

let md5 s = Digest.to_hex (Digest.string s)

let symbols_text (p : Asm.program) =
  String.concat ";"
    (List.map
       (fun (name, (sec, off)) -> Printf.sprintf "%s:%s:%d" name (if sec = `Text then "t" else "d") off)
       p.symbols)

let relocs_text (p : Asm.program) =
  String.concat ";"
    (List.map
       (fun (r : Asm.reloc) ->
         Printf.sprintf "%s:%d:%s" (if r.reloc_section = `Text then "t" else "d") r.reloc_offset r.reloc_symbol)
       p.relocs)

let program_text (p : Asm.program) =
  String.concat "\n"
    [ Bytes.to_string p.text; Bytes.to_string p.data; symbols_text p; relocs_text p; String.concat ";" p.vcalls ]

let line name (p : Asm.program) =
  Printf.printf "%s %d %d text=%s data=%s symbols=%s relocs=%s vcalls=%s\n" name (Bytes.length p.text)
    (Bytes.length p.data) (md5 (Bytes.to_string p.text)) (md5 (Bytes.to_string p.data)) (md5 (symbols_text p))
    (md5 (relocs_text p)) (md5 (String.concat ";" p.vcalls))

let world_images isa =
  let w = K23_userland.Sim.create_world ~isa () in
  Hashtbl.fold (fun name (im : K23_kernel.Kern.image) acc -> (name, im.im_prog) :: acc) w.K23_kernel.Kern.libraries []
  |> List.sort compare
  |> List.iter (fun (name, prog) -> line (Printf.sprintf "world:%s:%s" (Isa.to_string isa) name) prog)

let interposer_images () =
  let handler _ ~nr:_ ~args:_ ~site:_ = I.Forward in
  let stats = I.fresh_stats () in
  let prog (im : K23_kernel.Kern.image) = im.im_prog in
  let module Z = K23_baselines.Zpoline in
  List.iter
    (fun (name, p) -> line ("interposer:x86-64:" ^ name) p)
    [
      ("zpoline-default", prog (Z.image ~variant:Z.Default ~handler ~stats ()));
      ("zpoline-ultra", prog (Z.image ~variant:Z.Ultra ~handler ~stats ()));
      ("lazypoline", prog (K23_baselines.Lazypoline.image ~handler ~stats ()));
      ("sud", prog (K23_baselines.Sud_interposer.image ~handler ~stats ()));
      ("seccomp", prog (K23_baselines.Seccomp_interposer.image ~handler ~stats ()));
      ("k23", prog (K23_core.Libk23.image ~variant:K23_core.Libk23.Default ~handler ~stats ()));
      ("liblogger", prog (K23_core.Offline.image ~stats ()));
      ("trampoline", prog (I.trampoline_image (Z.make_config ~variant:Z.Default ~handler ~stats)));
    ];
  List.iter
    (fun (name, p) -> line ("interposer:arm64:" ^ name) p)
    [
      ("sud", prog (K23_baselines.Sud_interposer.image ~isa:Isa.Arm64 ~handler ~stats ()));
      ("seccomp", prog (K23_baselines.Seccomp_interposer.image ~isa:Isa.Arm64 ~handler ~stats ()));
      ("asc-hook", prog (K23_interpose.Asc_hook.image ~handler ~stats ()));
    ]

(* 1,000 programs per ISA over every shape it has: each program's
   shapes, syscall numbers, assembled image and corpus file feed one
   digest *)
let generated isa =
  let buf = Buffer.create (1 lsl 20) in
  let shapes = Gen.all_shapes_for isa in
  let text = ref 0 in
  for seed = 0 to 999 do
    let p = Gen.generate ~shapes ~isa (K23_util.Rng.create ~seed) in
    let prog = Gen.assemble p.Gen.items in
    text := !text + Bytes.length prog.text;
    Buffer.add_string buf (String.concat "," (List.map Gen.shape_to_string p.Gen.shapes));
    Buffer.add_string buf (String.concat "," (List.map string_of_int p.Gen.nrs));
    Buffer.add_string buf (program_text prog);
    Buffer.add_string buf
      (Corpus.to_string
         {
           Corpus.e_mech = K23_eval.Mech.Native;
           e_seed = seed;
           e_expect = "";
           e_faults = None;
           e_items = p.Gen.items;
         })
  done;
  Printf.printf "generated:%s 1000 programs, %d text bytes, digest=%s\n" (Isa.to_string isa) !text
    (md5 (Buffer.contents buf))

let () =
  List.iter world_images Isa.all;
  interposer_images ();
  List.iter
    (fun isa -> line ("exec-child:" ^ Isa.to_string isa) (Gen.assemble (Gen.exec_child_for isa)))
    Isa.all;
  List.iter generated Isa.all
