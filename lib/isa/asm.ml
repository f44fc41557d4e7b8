(** Two-pass assembler DSL, shared by both ISAs.

    Programs for the simulated machine are written as lists of items
    mixing instructions, labels, raw data blobs (the "embedded data in
    code pages" of pitfall P3), and host-function escapes.  The
    assembler resolves local labels to pc-relative branches and records
    {e relocations} for external symbols; the dynamic loader patches
    those at load time, exactly like ELF R_X86_64_64 relocations.

    The item vocabulary and the layout (section offsets, symbol table,
    relocation list, vcall numbering) are ISA-neutral; an ISA supplies
    a {!backend}: the sizes and encodings of its instruction-bearing
    items and its text padding.  {!assemble} is the x86-64 backend;
    [K23_isa_arm.Asm_arm] is the AArch64 one.  Next to each assembler
    sits the ISA's {!kit}, the spelling that lets a program be written
    once for both ISAs.

    Sections: [`Text] (mapped r-x) and [`Data] (mapped rw-).  Placing
    [Blob]s in [`Text] is how test programs embed data in executable
    pages. *)

type section = [ `Text | `Data ]

type ('insn, 'reg) t =
  | I of 'insn  (** a literal instruction *)
  | Label of string  (** local label; also exported as a symbol *)
  | Blob of bytes  (** raw bytes (data, jump tables, shellcode...) *)
  | Zeros of int  (** reserve n zero bytes *)
  | Strz of string  (** NUL-terminated string *)
  | Quad of int  (** 8-byte little-endian literal *)
  | J of string  (** jump to label *)
  | Jc of Insn.cond * string  (** conditional jump to label *)
  | Calll of string  (** call to local label *)
  | Call_sym of string  (** call external symbol: load its reloc slot, call through the register *)
  | Jmp_sym of string  (** tail-jump to external symbol, like [Call_sym] *)
  | Mov_sym of 'reg * string  (** reg := absolute address of symbol (reloc) *)
  | Vcall_named of string  (** host-function escape, resolved per-image *)
  | Section of section  (** switch emission section *)
  | Align of int  (** pad current section to a multiple *)

type item = (Insn.t, Reg.t) t

type reloc = { reloc_section : section; reloc_offset : int; reloc_symbol : string }
(** An 8-byte absolute slot at [reloc_offset] to be patched with the
    address of [reloc_symbol] at load time. *)

type program = {
  text : Bytes.t;
  data : Bytes.t;
  symbols : (string * (section * int)) list;  (** label -> (section, offset) *)
  relocs : reloc list;
  vcalls : string list;  (** host-function names in local-index order *)
}

exception Asm_error of string

let err fmt = Printf.ksprintf (fun s -> raise (Asm_error s)) fmt

type ('insn, 'reg) backend = {
  size : ('insn, 'reg) t -> int;
  slot : int;
  encode : Bytes.t -> section -> int -> int -> ('insn, 'reg) t -> unit;
  pad : Bytes.t -> int -> int -> unit;
}

(* Every item has a constant size (two passes with constant sizes keep
   the assembler simple and the layout predictable); [Align] is
   variable and handled in the layout itself. *)
let size b = function
  | Label _ | Section _ | Align _ -> 0
  | Blob bs -> Bytes.length bs
  | Zeros n -> n
  | Strz s -> String.length s + 1
  | Quad _ -> 8
  | item -> b.size item

let assemble_with b items =
  (* Pass 1: compute per-section offsets for every item and the symbol
     table. *)
  let text_len = ref 0 and data_len = ref 0 in
  let symbols = ref [] in
  let sec = ref `Text in
  let off_of = function `Text -> text_len | `Data -> data_len in
  let layout =
    List.map
      (fun item ->
        (match item with Section s -> sec := s | _ -> ());
        let here = !(off_of !sec) in
        (match item with
        | Align n ->
          let pad = (n - (here mod n)) mod n in
          (off_of !sec) := here + pad
        | Label name -> symbols := (name, (!sec, here)) :: !symbols
        | other -> (off_of !sec) := here + size b other);
        (item, !sec, here))
      items
  in
  let label_off name sec =
    match List.assoc_opt name !symbols with
    | Some (tsec, toff) ->
      if tsec <> sec then err "cross-section branch to %S" name;
      toff
    | None -> err "undefined label %S" name
  in
  (* Pass 2: emit. *)
  let text = Bytes.make !text_len '\000'
  and data = Bytes.make !data_len '\000' in
  let relocs = ref [] in
  let vcalls = ref [] in
  let vcall_index name =
    match List.find_index (String.equal name) !vcalls with
    | Some i -> i
    | None ->
      vcalls := !vcalls @ [ name ];
      List.length !vcalls - 1
  in
  List.iter
    (fun (item, sec, here) ->
      let buf = match sec with `Text -> text | `Data -> data in
      match item with
      | Section _ | Label _ | Zeros _ -> ()
      | Align n -> if sec = `Text then b.pad text here ((n - (here mod n)) mod n)
      | Blob bs -> Bytes.blit bs 0 buf here (Bytes.length bs)
      | Strz s -> Bytes.blit_string s 0 buf here (String.length s) (* trailing NUL already zero *)
      | Quad v ->
        for i = 0 to 7 do
          Bytes.set buf (here + i) (Char.chr ((v lsr (8 * i)) land 0xff))
        done
      | J name | Jc (_, name) | Calll name -> b.encode buf sec here (label_off name sec) item
      | Vcall_named name -> b.encode buf sec here (vcall_index name) item
      | Call_sym name | Jmp_sym name | Mov_sym (_, name) ->
        b.encode buf sec here 0 item;
        relocs := { reloc_section = sec; reloc_offset = here + b.slot; reloc_symbol = name } :: !relocs
      | I _ -> b.encode buf sec here 0 item)
    layout;
  { text; data; symbols = List.rev !symbols; relocs = List.rev !relocs; vcalls = !vcalls }

(* x86-64: rel32 branches, measured from the end of the branch; symbol
   loads are [mov r, imm64] with the reloc slot as the immediate. *)
let put buf here insn =
  let bs = Encode.to_bytes insn in
  Bytes.blit bs 0 buf here (Bytes.length bs)

let x86 =
  {
    size =
      (function
      | I i -> Encode.length i
      | J _ | Calll _ -> 5
      | Jc _ -> 6
      | Call_sym _ | Jmp_sym _ -> 10 + 3 (* mov r11, imm64 ; call/jmp *r11 (0x41 prefix) *)
      | Mov_sym _ -> 10
      | Vcall_named _ -> 6
      | _ -> 0);
    slot = 2 (* mov r, imm64 is always 2 bytes of prefix+opcode, then imm *);
    encode =
      (fun buf _ here arg -> function
        | I i -> put buf here i
        | J _ -> put buf here (Jmp_rel (arg - (here + 5)))
        | Jc (c, _) -> put buf here (Jcc (c, arg - (here + 6)))
        | Calll _ -> put buf here (Call_rel (arg - (here + 5)))
        | Call_sym _ ->
          put buf here (Mov_ri (R11, 0));
          put buf (here + 10) (Call_reg R11)
        | Jmp_sym _ ->
          put buf here (Mov_ri (R11, 0));
          put buf (here + 10) (Jmp_reg R11)
        | Mov_sym (r, _) -> put buf here (Mov_ri (r, 0))
        | Vcall_named _ -> put buf here (Vcall arg)
        | _ -> ());
    pad = (fun buf off len -> Bytes.fill buf off len '\x90');
  }

let assemble items = assemble_with x86 items

type ('insn, 'reg) kit = {
  reg : int -> 'reg;
  args : 'reg array;
  nr : 'reg;
  result : 'reg;
  li : 'reg -> int -> 'insn list;
  trap : 'insn;
  ret : 'insn;
  cmp_ri : 'reg -> int -> 'insn;
  mov_rr : 'reg -> 'reg -> 'insn;
  call_reg : 'reg -> 'insn;
  jmp_reg : 'reg -> 'insn;
  assemble : ('insn, 'reg) t list -> program;
}

let kit =
  {
    reg = Reg.of_index;
    args = Array.map Reg.of_index (Isa.arg_indices Isa.X86_64);
    nr = Reg.of_index (Isa.nr_index Isa.X86_64);
    result = RAX;
    li = (fun r v -> [ Insn.Mov_ri (r, v) ]);
    trap = Syscall;
    ret = Ret;
    cmp_ri = (fun r v -> Cmp_ri (r, v));
    mov_rr = (fun d s -> Mov_rr (d, s));
    call_reg = (fun r -> Call_reg r);
    jmp_reg = (fun r -> Jmp_reg r);
    assemble;
  }
