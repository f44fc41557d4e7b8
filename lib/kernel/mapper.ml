(** Image mapping: placing a program's text/data sections in a process
    address space, exporting its dynamic symbols and applying
    relocations.

    Layout conventions (mirroring a non-PIE Linux binary):
    - main executable: text at 0x400000, data at 0x500000 (fixed);
    - shared libraries: placed at the mmap cursor, whose starting value
      is randomised per exec when ASLR is on — so absolute library
      addresses change between runs but {e offsets within a region are
      stable}, the property K23's offline logs rely on (Section 5.1). *)

open K23_machine
open Kern

let align = Memory.align_up

(* The page buffers of the images built once per domain, keyed on the
   physical identity of each section's bytes (nothing writes an
   assembled program's bytes).  Filled by {!share}. *)
let split_key : (Bytes.t * Memory.frames) list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

(** [share im] splits [im]'s sections into page buffers that every
    later mapping of [im] on this domain shares copy-on-write, and
    returns [im].  For an image built once per domain and shared by
    all its worlds; run it once per such image.  Any other image is
    split afresh each time it is mapped.

    It runs inside those images' [Domain.DLS] initialisers and reads
    [split_key], which is created before any of their keys.  That order
    matters: [Domain.DLS.get] stores an initialiser's result into the
    key array it read before running it, so an initialiser that reads
    a key created after its own may grow the array and lose its own
    value. *)
let share (im : image) =
  let split = Domain.DLS.get split_key in
  List.iter
    (fun b -> split := (b, Memory.frames_of_bytes b) :: !split)
    [ im.im_prog.K23_isa.Asm.text; im.im_prog.K23_isa.Asm.data ];
  im

(** The page buffers that a section's [bytes] are mapped from: those
    {!share} made for it, or a fresh split. *)
let frames_of bytes =
  match List.assq_opt bytes !(Domain.DLS.get split_key) with
  | Some frames -> frames
  | None -> Memory.frames_of_bytes bytes

(** Map one section of [im] into [p]; returns the section base.
    Idempotent per (image, section).  The pages share the section's
    page buffers copy-on-write ({!Memory.map_frames}): those {!share}
    made, or ones split for this mapping. *)
let map_image_section (w : world) (p : proc) (im : image) ~section =
  let prog = im.im_prog in
  let existing = Hashtbl.find_opt p.image_bases im.im_name in
  let pick_base len =
    if im.im_owner = App then
      match section with `Text -> 0x0040_0000 | `Data -> 0x0050_0000
    else begin
      let b = p.mmap_cursor in
      p.mmap_cursor <- p.mmap_cursor + align len + 0x10000;
      b
    end
  in
  let bytes, perm, sec =
    match section with
    | `Text -> (prog.K23_isa.Asm.text, Memory.perm_rx, `Text)
    | `Data -> (prog.K23_isa.Asm.data, Memory.perm_rw, `Data)
  in
  let len = max 1 (Bytes.length bytes) in
  let already =
    match (existing, section) with
    | Some (t, _), `Text when t <> 0 || im.im_owner = App -> Some t
    | Some (_, d), `Data when d <> 0 -> Some d
    | _ -> None
  in
  match already with
  | Some b -> b
  | None ->
    let base = pick_base len in
    Memory.map_frames p.mem ~addr:base ~perm (frames_of bytes);
    add_region p
      {
        r_start = base;
        r_len = align len;
        r_perm = perm;
        r_name = im.im_name;
        r_owner = im.im_owner;
        r_image = Some im;
        r_sec = sec;
      };
    (* record the base *)
    let t0, d0 = Option.value existing ~default:(0, 0) in
    let entry = match section with `Text -> (base, d0) | `Data -> (t0, base) in
    Hashtbl.replace p.image_bases im.im_name entry;
    (* export symbols of this section *)
    List.iter
      (fun (name, (ssec, off)) ->
        match (ssec, section) with
        | `Text, `Text | `Data, `Data -> Hashtbl.replace p.globals name (base + off)
        | _ -> ())
      prog.K23_isa.Asm.symbols;
    ignore w;
    base

(** Map both sections. *)
let map_image (w : world) (p : proc) (im : image) =
  let t = map_image_section w p im ~section:`Text in
  let d =
    if Bytes.length im.im_prog.K23_isa.Asm.data > 0 then
      map_image_section w p im ~section:`Data
    else 0
  in
  (t, d)

(** Address of [label] in [p]'s address space, for the image [name]
    assembled as [prog].  A host function finds its own image's labels
    this way, before the image record exists. *)
let section_base (t, d) = function `Text -> t | `Data -> d

let prog_sym ~name (prog : K23_isa.Asm.program) (p : proc) label =
  match (Hashtbl.find_opt p.image_bases name, List.assoc_opt label prog.symbols) with
  | Some bases, Some (sec, off) -> Some (section_base bases sec + off)
  | _ -> None

(** [prog_sym_memo ~name prog label] is [fun p -> prog_sym ~name prog p
    label], resolved once per address space: a process's answer is
    kept, by pid, with the [image_bases] table it was read from, and
    reused while the process still has that very table.  Exec replaces
    the table and fork copies it, so neither can see a stale address.
    Within one table a section's base, once non-zero, never changes, so
    only answers from a mapped section are kept. *)
let prog_sym_memo ~name (prog : K23_isa.Asm.program) label =
  let sym = List.assoc_opt label prog.symbols in
  let memo = Inttbl.create 8 in
  fun (p : proc) ->
    match Inttbl.find_opt memo p.pid with
    | Some (bases, addr) when bases == p.image_bases -> addr
    | _ -> (
      match (Hashtbl.find_opt p.image_bases name, sym) with
      | Some bases, Some (sec, off) ->
        let base = section_base bases sec in
        let addr = Some (base + off) in
        if base <> 0 then Inttbl.replace memo p.pid (p.image_bases, addr);
        addr
      | _ -> None)

(** Address of a symbol defined by [im] in [p]'s address space. *)
let image_sym (p : proc) (im : image) = prog_sym ~name:im.im_name im.im_prog p

let lookup_sym (p : proc) name = Hashtbl.find_opt p.globals name

(** Apply [im]'s relocations: patch each 8-byte slot with the absolute
    address of the referenced symbol, resolved through the process-wide
    dynamic symbol table (ld.so semantics). *)
let apply_relocs (p : proc) (im : image) =
  match Hashtbl.find_opt p.image_bases im.im_name with
  | None -> ()
  | Some (t, d) ->
    List.iter
      (fun { K23_isa.Asm.reloc_section; reloc_offset; reloc_symbol } ->
        let slot = (match reloc_section with `Text -> t | `Data -> d) + reloc_offset in
        match lookup_sym p reloc_symbol with
        | Some addr -> Memory.write_u64_raw p.mem slot addr
        | None ->
          (* vdso symbols are weak: absent when the vdso is disabled
             (K23's ptracer does exactly that); everything else is a
             hard error *)
          if String.length reloc_symbol >= 6 && String.sub reloc_symbol 0 6 = "__vdso" then
            Memory.write_u64_raw p.mem slot 0
          else panic "pid %d: unresolved symbol %S in %s" p.pid reloc_symbol im.im_name)
      im.im_prog.K23_isa.Asm.relocs
