(** Static linear-sweep disassembler.

    This is the disassembly strategy zpoline-style rewriters rely on
    (the zpoline prototype uses a linear disassembler from GNU binutils).
    Linear sweep decodes from the start of a code region and, like real
    tools, has the two documented failure modes on variable-length ISAs
    (Andriesse et al., USENIX Sec'16; Pang et al., S&P'21):

    - {b misidentification} — embedded data, or the tail bytes of a
      longer instruction reached after desynchronisation, may decode as
      a spurious [syscall]/[sysenter] (pitfall P3a);
    - {b overlook} — a genuine [syscall] can be swallowed inside a
      misdecoded longer instruction and never reported (pitfall P2a).

    On invalid bytes the sweep resynchronises by skipping one byte,
    which is what objdump-style tools do. *)

type item = {
  addr : int;  (** absolute address of the first byte *)
  insn : Insn.t option;  (** [None] when the byte did not decode *)
  len : int;  (** bytes consumed (1 for undecodable bytes) *)
}

(** [sweep bytes ~base] decodes the whole buffer, resynchronising on
    invalid encodings. [base] is the virtual address of [bytes.(0)]. *)
let sweep (bytes : Bytes.t) ~base =
  let n = Bytes.length bytes in
  let rec go pos acc =
    if pos >= n then List.rev acc
    else
      match Decode.decode_bytes bytes pos with
      | Ok (insn, len) when pos + len <= n ->
        go (pos + len) ({ addr = base + pos; insn = Some insn; len } :: acc)
      | Ok _ | Error `Invalid ->
        go (pos + 1) ({ addr = base + pos; insn = None; len = 1 } :: acc)
  in
  go 0 []

(** Buffer-relative offsets at which the sweep believes a [syscall] or
    [sysenter] starts.  Exactly the decode walk of {!sweep} — same
    lengths, same byte-by-byte resynchronisation — but run as a tight
    loop that materialises nothing per position: the full [item] list
    costs an allocation per byte on desynchronised data, which made a
    libc-sized sweep the single hottest call in a zpoline launch.
    Offsets are base-independent (the sweep never looks at [base]),
    which is what makes the result cacheable across ASLR slides. *)
let find_syscall_offsets bytes =
  let n = Bytes.length bytes in
  let acc = ref [] in
  let pos = ref 0 in
  while !pos < n do
    match Decode.decode_bytes bytes !pos with
    | Ok (insn, len) when !pos + len <= n ->
      (match insn with
      | Insn.Syscall | Insn.Sysenter -> acc := !pos :: !acc
      | _ -> ());
      pos := !pos + len
    | Ok _ | Error `Invalid -> incr pos
  done;
  List.rev !acc

(** Addresses at which the sweep believes a [syscall] or [sysenter]
    instruction starts.  This is the site list a zpoline-style rewriter
    uses — complete with its false positives and false negatives. *)
let find_syscall_sites bytes ~base = List.map (fun off -> base + off) (find_syscall_offsets bytes)

(* ------------------------------------------------------------------ *)
(* Content-addressed sweep memo                                        *)

(* One memo table per domain (Domain.DLS): rewriters on different
   domains never share it, so no synchronisation and no cross-domain
   mutable state (DESIGN.md §4f audit).  Keyed by length; a length can
   hold several buffers, each told apart by [Bytes.equal]. *)
let memo_key : (int, Bytes.t * int list) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 8)

(* library images in one world: a handful; bound keeps a pathological
   caller (many distinct JIT buffers) from growing the table forever *)
let memo_capacity = 64

(** {!find_syscall_sites} with a per-domain content-addressed memo.
    The sweep is a pure function of the bytes, so a hit (a stored
    buffer of the same length that is [Bytes.equal] to this one)
    returns the identical site list; rewriters scanning the same
    library text in run after run — libc is ~200 KiB and never
    changes — pay the sweep once per domain and one compare per
    launch.  Misses (fresh application text, JIT pages) fall through
    to the plain sweep and are cached in turn. *)
let find_syscall_sites_memo bytes ~base =
  let tbl = Domain.DLS.get memo_key in
  let len = Bytes.length bytes in
  let offs =
    match List.find_opt (fun (stored, _) -> Bytes.equal stored bytes) (Hashtbl.find_all tbl len) with
    | Some (_, offs) -> offs
    | None ->
      let offs = find_syscall_offsets bytes in
      if Hashtbl.length tbl >= memo_capacity then Hashtbl.reset tbl;
      Hashtbl.add tbl len (Bytes.copy bytes, offs);
      offs
  in
  List.map (fun off -> base + off) offs

(** Ground truth used by tests: all offsets where the literal 2-byte
    [0f 05]/[0f 34] pattern occurs, regardless of instruction
    boundaries. *)
let raw_pattern_sites bytes ~base =
  let n = Bytes.length bytes in
  let out = ref [] in
  for i = 0 to n - 2 do
    let b0 = Char.code (Bytes.get bytes i) and b1 = Char.code (Bytes.get bytes (i + 1)) in
    if b0 = 0x0f && (b1 = 0x05 || b1 = 0x34) then out := (base + i) :: !out
  done;
  List.rev !out

let listing bytes ~base =
  sweep bytes ~base
  |> List.map (fun { addr; insn; len = _ } ->
         match insn with
         | Some i -> Printf.sprintf "%08x: %s" addr (Insn.to_string i)
         | None -> Printf.sprintf "%08x: (bad)" addr)
  |> String.concat "\n"
