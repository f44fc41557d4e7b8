(* Machine-layer tests: memory, PKU/XOM, I-cache, CPU semantics. *)

open K23_machine
open K23_isa

(* ---------------- memory ---------------- *)

let test_map_read_write () =
  let m = Memory.create () in
  Memory.map m ~addr:0x1000 ~len:4096 ~perm:Memory.perm_rw;
  Memory.write_u8_raw m 0x1234 0xab;
  Alcotest.(check int) "byte" 0xab (Memory.read_u8_raw m 0x1234);
  Memory.write_u64_raw m 0x1100 0xdeadbeef;
  Alcotest.(check int) "u64" 0xdeadbeef (Memory.read_u64_raw m 0x1100)

let test_unmapped_faults () =
  let m = Memory.create () in
  Alcotest.check_raises "read fault"
    (Memory.Fault { fault_addr = 0x9000; access = `Read })
    (fun () -> ignore (Memory.read_u8_raw m 0x9000))

let test_perm_checks () =
  let m = Memory.create () in
  Memory.map m ~addr:0x1000 ~len:4096 ~perm:Memory.perm_r;
  Alcotest.(check int) "read ok" 0 (Memory.read_u8 m ~pkru:0 0x1000);
  Alcotest.check_raises "write faults"
    (Memory.Fault { fault_addr = 0x1000; access = `Write })
    (fun () -> Memory.write_u8 m ~pkru:0 0x1000 1);
  Memory.set_perm m ~addr:0x1000 ~len:4096 ~perm:Memory.perm_rw;
  Memory.write_u8 m ~pkru:0 0x1000 1;
  Alcotest.(check int) "after mprotect" 1 (Memory.read_u8 m ~pkru:0 0x1000)

(* XOM via PKU: data reads blocked, instruction fetch allowed — the
   property both trampolines rely on (and the hole of P4a). *)
let test_pku_xom () =
  let m = Memory.create () in
  Memory.map m ~addr:0 ~len:4096 ~perm:Memory.perm_rx ~pkey:1;
  let pkru = 1 lsl 2 (* AD for key 1 *) in
  Alcotest.check_raises "PKU blocks data read"
    (Memory.Fault { fault_addr = 0; access = `Read })
    (fun () -> ignore (Memory.read_u8 m ~pkru 0));
  (* fetch is NOT blocked by PKU *)
  Alcotest.(check int) "fetch allowed" 0 (Memory.fetch_u8 m 0)

let test_fetch_needs_exec () =
  let m = Memory.create () in
  Memory.map m ~addr:0x1000 ~len:4096 ~perm:Memory.perm_rw;
  Alcotest.check_raises "NX fetch faults"
    (Memory.Fault { fault_addr = 0x1000; access = `Exec })
    (fun () -> ignore (Memory.fetch_u8 m 0x1000))

(* Stores on either side after a fork stay on that side, whichever
   side writes a shared page first. *)
let test_clone_is_deep () =
  let m = Memory.create () in
  Memory.map m ~addr:0x1000 ~len:8192 ~perm:Memory.perm_rw;
  Memory.write_u8_raw m 0x1000 7;
  let c = Memory.clone m in
  Memory.write_u8_raw m 0x1000 9;
  Alcotest.(check int) "clone unaffected" 7 (Memory.read_u8_raw c 0x1000);
  Memory.write_u8_raw c 0x1001 5;
  Alcotest.(check int) "parent unaffected" 0 (Memory.read_u8_raw m 0x1001);
  Alcotest.(check int) "parent keeps its store" 9 (Memory.read_u8_raw m 0x1000);
  Memory.write_u64 c ~pkru:0 0x2008 0x1234;
  Alcotest.(check int) "child writes first: parent unaffected" 0 (Memory.read_u64_raw m 0x2008);
  Memory.write_u64 m ~pkru:0 0x2008 0x5678;
  Alcotest.(check int) "child keeps its store" 0x1234 (Memory.read_u64_raw c 0x2008);
  Alcotest.(check int) "parent sees its store" 0x5678 (Memory.read_u64_raw m 0x2008)

let test_cstr_roundtrip () =
  let m = Memory.create () in
  Memory.map m ~addr:0x1000 ~len:4096 ~perm:Memory.perm_rw;
  Memory.write_cstr m 0x1500 "hello";
  Alcotest.(check string) "cstr" "hello" (Memory.read_cstr m 0x1500)

let test_reservation_accounting () =
  let m = Memory.create () in
  Memory.reserve m ~len:(1 lsl 45);
  Alcotest.(check int) "reserved" (1 lsl 45) m.reserved_bytes;
  Alcotest.(check int) "not committed" 0 m.committed_bytes

let prop_memory_bytes =
  QCheck.Test.make ~name:"memory: write/read byte roundtrip" ~count:500
    QCheck.(pair (int_range 0 4095) (int_range 0 255))
    (fun (off, v) ->
      let m = Memory.create () in
      Memory.map m ~addr:0x2000 ~len:4096 ~perm:Memory.perm_rw;
      Memory.write_u8_raw m (0x2000 + off) v;
      Memory.read_u8_raw m (0x2000 + off) = v)

(* The single-lookup word fast path must leave the same byte image and
   read back the same value as the definitional little-endian byte
   loop, at every offset including page straddles. *)
let prop_memory_u64 =
  QCheck.Test.make ~name:"memory: u64 word path == byte loop" ~count:500
    QCheck.(pair (int_range 0 8184) int)
    (fun (off, v) ->
      let m = Memory.create () in
      Memory.map m ~addr:0x2000 ~len:8192 ~perm:Memory.perm_rw;
      let addr = 0x2000 + off in
      Memory.write_u64 m ~pkru:0 addr v;
      let byte i = Memory.read_u8_raw m (addr + i) in
      let bytes_ok = ref true in
      for i = 0 to 7 do
        if byte i <> (v lsr (8 * i)) land 0xff then bytes_ok := false
      done;
      !bytes_ok && Memory.read_u64 m ~pkru:0 addr = v && Memory.read_u64_raw m addr = v)

let test_unmap_accounting () =
  let m = Memory.create () in
  Memory.map m ~addr:0x1000 ~len:8192 ~perm:Memory.perm_rw;
  Alcotest.(check int) "committed" 8192 m.committed_bytes;
  Alcotest.(check int) "reserved" 8192 m.reserved_bytes;
  (* the range covers two mapped and two unmapped pages: only the
     mapped ones may be deducted *)
  Memory.unmap m ~addr:0x0 ~len:16384;
  Alcotest.(check int) "committed after unmap" 0 m.committed_bytes;
  Alcotest.(check int) "reserved after unmap" 0 m.reserved_bytes;
  (* unmapping an already-unmapped range must be a no-op, not drive
     the counters negative *)
  Memory.unmap m ~addr:0x0 ~len:16384;
  Alcotest.(check int) "committed stays 0" 0 m.committed_bytes;
  Alcotest.(check int) "reserved stays 0" 0 m.reserved_bytes

(* libc's malloc remaps its trailing page together with the new ones:
   a remapped page is neither committed nor reserved a second time *)
let test_remap_accounting () =
  let m = Memory.create () in
  Memory.map m ~addr:0x1000 ~len:8192 ~perm:Memory.perm_rw;
  Memory.map m ~addr:0x2000 ~len:8192 ~perm:Memory.perm_rw;
  Alcotest.(check int) "committed" 12288 m.committed_bytes;
  Alcotest.(check int) "reserved" 12288 m.reserved_bytes;
  Memory.unmap m ~addr:0x1000 ~len:12288;
  Alcotest.(check int) "committed after unmap" 0 m.committed_bytes;
  Alcotest.(check int) "reserved after unmap" 0 m.reserved_bytes

(* ---------------- pages on demand ---------------- *)

(* Words [f ()] allocates in the major heap, with its result.  The
   minor heap is emptied first, so nothing is promoted while [f] runs:
   what is counted is what [f] allocates there directly, which every
   page buffer is (4 KiB is over the minor heap's object limit), and
   the few-word page records are not. *)
let major_words f =
  Gc.minor ();
  let _, _, before = Gc.counters () in
  let r = f () in
  let _, _, after = Gc.counters () in
  (after -. before, r)

(* Seen through the allocator: mapping and cloning allocate no page
   buffer, the first store to a shared page copies exactly that page,
   a second store copies nothing, and the other side keeps its bytes. *)
let test_pages_on_demand () =
  let buffer = float_of_int ((Memory.page_size / 8) + 1) in
  let no_buffer what w = if w >= buffer then Alcotest.failf "%s allocated %.0f words" what w in
  let one_buffer what w =
    if w < buffer || w >= 2. *. buffer then
      Alcotest.failf "%s allocated %.0f words, not one page buffer" what w
  in
  let len = 64 * Memory.page_size in
  let m = Memory.create () in
  let w, () = major_words (fun () -> Memory.map m ~addr:0x10_0000 ~len ~perm:Memory.perm_rw) in
  no_buffer "map" w;
  Alcotest.(check int) "zero page reads zero" 0 (Memory.read_u64_raw m 0x10_0ff8);
  let w, () = major_words (fun () -> Memory.write_u8_raw m 0x10_0010 0x11) in
  one_buffer "first store after map" w;
  let w, c = major_words (fun () -> Memory.clone m) in
  no_buffer "clone" w;
  let w, () = major_words (fun () -> Memory.write_u8_raw c 0x10_0010 0x5a) in
  one_buffer "child's first store" w;
  let w, () = major_words (fun () -> Memory.write_u8 c ~pkru:0 0x10_0011 0x5b) in
  no_buffer "second store" w;
  Alcotest.(check int) "parent keeps the old byte" 0x11 (Memory.read_u8_raw m 0x10_0010);
  let w, () = major_words (fun () -> Memory.write_u64_raw m 0x10_0010 0x77) in
  one_buffer "parent's first store after the fork" w;
  Alcotest.(check int) "child keeps its byte" 0x5a (Memory.read_u8_raw c 0x10_0010);
  let text = Bytes.init (3 * Memory.page_size) (fun i -> Char.chr (i land 0xff)) in
  let frames = Memory.frames_of_bytes text in
  let w, () =
    major_words (fun () -> Memory.map_frames m ~addr:0x20_0000 ~perm:Memory.perm_rx frames)
  in
  no_buffer "map_frames" w;
  Alcotest.(check string) "frames read back" (Bytes.to_string text)
    (Bytes.to_string (Memory.read_bytes_raw m 0x20_0000 (Bytes.length text)))

(* ---------------- bulk copies vs the byte loop ---------------- *)

(* The byte-at-a-time loops that [read_bytes_raw] / [write_bytes_raw]
   used to be, kept as the reference the chunked copies must match:
   the same bytes, the same fault address, and the same prefix stored
   before a write faults. *)
let ref_read_bytes m addr len =
  let out = Bytes.create len in
  for i = 0 to len - 1 do
    Bytes.set out i (Char.chr (Memory.read_u8_raw m (addr + i)))
  done;
  out

let ref_write_bytes m addr b =
  Bytes.iteri (fun i c -> Memory.write_u8_raw m (addr + i) (Char.code c)) b

let layout_base = 0x40_0000
let layout_pages = 8

(* The pages flagged in [layout] mapped, each filled with its own
   pattern; the others are holes. *)
let memory_of_layout layout =
  let m = Memory.create () in
  List.iteri
    (fun i mapped ->
      if mapped then begin
        let a = layout_base + (i * Memory.page_size) in
        Memory.map m ~addr:a ~len:Memory.page_size ~perm:Memory.perm_rw;
        ref_write_bytes m a
          (Bytes.init Memory.page_size (fun j -> Char.chr (((i * 31) + (j * 7)) land 0xff)))
      end)
    layout;
  m

let image m layout =
  List.mapi
    (fun i mapped ->
      if mapped then
        Bytes.to_string (ref_read_bytes m (layout_base + (i * Memory.page_size)) Memory.page_size)
      else "")
    layout

let outcome f = match f () with v -> Ok v | exception Memory.Fault flt -> Error flt.fault_addr

(* a page layout with holes, and an unaligned (addr, len) around it:
   zero lengths, in-page runs, and multi-page straddles that may start
   or end in a hole or past the last page *)
let arb_access =
  let open QCheck.Gen in
  let span = layout_pages * Memory.page_size in
  let gen =
    triple (list_repeat layout_pages bool)
      (int_range (layout_base - 64) (layout_base + span + 64))
      (frequency [ (1, return 0); (3, int_range 1 64); (4, int_range 1 (3 * Memory.page_size)) ])
  in
  QCheck.make gen ~print:(fun (layout, addr, len) ->
      Printf.sprintf "layout=%s addr=0x%x len=%d"
        (String.concat "" (List.map (fun b -> if b then "M" else ".") layout))
        addr len)

let prop_bulk_read =
  QCheck.Test.make ~name:"memory: chunked read_bytes_raw == byte loop" ~count:500 arb_access
    (fun (layout, addr, len) ->
      let m = memory_of_layout layout in
      outcome (fun () -> Memory.read_bytes_raw m addr len)
      = outcome (fun () -> ref_read_bytes m addr len))

let prop_bulk_write =
  QCheck.Test.make ~name:"memory: chunked write_bytes_raw == byte loop" ~count:500 arb_access
    (fun (layout, addr, len) ->
      let data = Bytes.init len (fun i -> Char.chr (((i * 13) + 5) land 0xff)) in
      let chunked = memory_of_layout layout and bytewise = memory_of_layout layout in
      outcome (fun () -> Memory.write_bytes_raw chunked addr data)
      = outcome (fun () -> ref_write_bytes bytewise addr data)
      && image chunked layout = image bytewise layout)

let test_tlb_unmap_faults () =
  let m = Memory.create () in
  Memory.map m ~addr:0x1000 ~len:4096 ~perm:Memory.perm_rw;
  Memory.write_u64 m ~pkru:0 0x1100 42;
  Alcotest.(check int) "read back" 42 (Memory.read_u64 m ~pkru:0 0x1100);
  Memory.unmap m ~addr:0x1000 ~len:4096;
  Alcotest.check_raises "fault after unmap (TLB flushed)"
    (Memory.Fault { fault_addr = 0x1100; access = `Read })
    (fun () -> ignore (Memory.read_u64 m ~pkru:0 0x1100))

let test_tlb_remap_fresh () =
  let m = Memory.create () in
  Memory.map m ~addr:0x1000 ~len:4096 ~perm:Memory.perm_rw;
  Memory.write_u64 m ~pkru:0 0x1100 42;
  ignore (Memory.read_u64 m ~pkru:0 0x1100);
  (* MAP_FIXED remap replaces the page record: the TLB must not keep
     serving the old one *)
  Memory.map m ~addr:0x1000 ~len:4096 ~perm:Memory.perm_rw;
  Alcotest.(check int) "fresh zeroed page" 0 (Memory.read_u64 m ~pkru:0 0x1100)

let test_tlb_mprotect_immediate () =
  let m = Memory.create () in
  Memory.map m ~addr:0x1000 ~len:4096 ~perm:Memory.perm_rw;
  Memory.write_u64 m ~pkru:0 0x1000 7;
  (* perm change mutates the cached page record in place; the next
     access must see it even on a TLB hit *)
  Memory.set_perm m ~addr:0x1000 ~len:4096 ~perm:Memory.perm_r;
  Alcotest.check_raises "write faults after mprotect"
    (Memory.Fault { fault_addr = 0x1000; access = `Write })
    (fun () -> Memory.write_u64 m ~pkru:0 0x1000 9);
  Alcotest.(check int) "value intact" 7 (Memory.read_u64 m ~pkru:0 0x1000);
  (* same for pkey changes vs the caller's PKRU *)
  Memory.set_pkey m ~addr:0x1000 ~len:4096 ~pkey:1;
  Alcotest.check_raises "PKU read fault after pkey_mprotect"
    (Memory.Fault { fault_addr = 0x1000; access = `Read })
    (fun () -> ignore (Memory.read_u64 m ~pkru:(1 lsl 2) 0x1000))

(* ---------------- copy-on-write vs a deep-copy model ---------------- *)

(* The reference is memory without sharing: a table of page records,
   each with its own buffer, copied whole by [clone] and written a
   byte at a time.  Random maps, unmaps,
   mprotects, pkey changes, clones (up to four live memories, so up to
   three generations) and writes through every write path on any live
   copy must leave every memory equal to its reference: the same
   outcome (value or fault) per operation, and at the end the same
   pages, permissions, keys, bytes and accounting. *)
type ref_page = { rb : Bytes.t; mutable rperm : Memory.perm; mutable rpkey : int }

let model_base = 0x40_0000
let model_pages = 6

type write_path = U8 | U64 | U8_raw | U64_raw | U32_raw | Bytes_raw | Cstr | From_raw

type model_write = { mem : int; path : write_path; addr : int; v : int; len : int; pkru : int }

type model_op =
  | Map of int * int * int * Memory.perm  (** memory, first page, pages, perm *)
  | Unmap of int * int * int
  | Set_perm of int * int * int * Memory.perm
  | Set_pkey of int * int * int * int
  | Clone of int
  | Write of model_write

let path_name = function
  | U8 -> "u8"
  | U64 -> "u64"
  | U8_raw -> "u8_raw"
  | U64_raw -> "u64_raw"
  | U32_raw -> "u32_raw"
  | Bytes_raw -> "bytes_raw"
  | Cstr -> "cstr"
  | From_raw -> "from_raw"

let show_op = function
  | Map (i, pg, n, perm) -> Printf.sprintf "map m%d %d+%d %s" i pg n (Memory.perm_to_string perm)
  | Unmap (i, pg, n) -> Printf.sprintf "unmap m%d %d+%d" i pg n
  | Set_perm (i, pg, n, perm) ->
    Printf.sprintf "mprotect m%d %d+%d %s" i pg n (Memory.perm_to_string perm)
  | Set_pkey (i, pg, n, k) -> Printf.sprintf "pkey m%d %d+%d key%d" i pg n k
  | Clone i -> Printf.sprintf "clone m%d" i
  | Write w ->
    Printf.sprintf "%s m%d 0x%x v=%d len=%d pkru=%d" (path_name w.path) w.mem w.addr w.v w.len
      w.pkru

let ref_fault addr = raise (Memory.Fault { fault_addr = addr; access = `Write })

let ref_u8 r addr v =
  match Hashtbl.find_opt r (Memory.page_index addr) with
  | None -> ref_fault addr
  | Some p -> Bytes.set p.rb (addr land (Memory.page_size - 1)) (Char.chr (v land 0xff))

let ref_check r ~pkru addr =
  match Hashtbl.find_opt r (Memory.page_index addr) with
  | Some p
    when p.rperm.w
         && not (Memory.pkru_access_disabled pkru p.rpkey || Memory.pkru_write_disabled pkru p.rpkey)
    ->
    ()
  | _ -> ref_fault addr

let ref_bytes r addr b = Bytes.iteri (fun i c -> ref_u8 r (addr + i) (Char.code c)) b
let le v n = Bytes.init n (fun i -> Char.chr ((v lsr (8 * i)) land 0xff))
let payload v len = Bytes.init len (fun i -> Char.chr ((v + (i * 7)) land 0xff))
let cstr v len = String.init len (fun i -> Char.chr (1 + ((v + i) land 0x7f)))

let ref_write r { path; addr; v; len; pkru; mem = _ } =
  match path with
  | U8 ->
    ref_check r ~pkru addr;
    ref_u8 r addr v
  | U64 ->
    for i = 0 to 7 do
      ref_check r ~pkru (addr + i)
    done;
    ref_bytes r addr (le v 8)
  | U8_raw -> ref_u8 r addr v
  | U64_raw -> ref_bytes r addr (le v 8)
  | U32_raw -> ref_bytes r addr (le v 4)
  | Bytes_raw | From_raw -> ref_bytes r addr (payload v len)
  | Cstr -> ref_bytes r addr (Bytes.of_string (cstr v len ^ "\000"))

let mem_write m { path; addr; v; len; pkru; mem = _ } =
  match path with
  | U8 -> Memory.write_u8 m ~pkru addr v
  | U64 -> Memory.write_u64 m ~pkru addr v
  | U8_raw -> Memory.write_u8_raw m addr v
  | U64_raw -> Memory.write_u64_raw m addr v
  | U32_raw -> Memory.write_u32_raw m addr v
  | Bytes_raw -> Memory.write_bytes_raw m addr (payload v len)
  | From_raw -> Memory.write_from_raw m addr (Bytes.cat (Bytes.make 3 'x') (payload v len)) 3 len
  | Cstr -> Memory.write_cstr m addr (cstr v len)

let fault_outcome f = match f () with () -> None | exception Memory.Fault flt -> Some flt

let same_as_reference m r =
  let mapped = Hashtbl.length r * Memory.page_size in
  m.Memory.committed_bytes = mapped
  && m.Memory.reserved_bytes = mapped
  && List.for_all
       (fun k ->
         let addr = model_base + (k * Memory.page_size) in
         match Hashtbl.find_opt r (Memory.page_index addr) with
         | None -> not (Memory.is_mapped m addr)
         | Some p ->
           Memory.get_perm m addr = Some p.rperm
           && Memory.get_pkey m addr = Some p.rpkey
           && Bytes.equal (Memory.read_bytes_raw m addr Memory.page_size) p.rb)
       (List.init (model_pages + 2) (fun k -> k - 1))

let run_model ops =
  let mems = Array.make 4 (Memory.create ()) and refs = Array.make 4 (Hashtbl.create 8) in
  let live = ref 1 in
  let pick i = i mod !live in
  let pages pg n f =
    for k = pg to pg + n - 1 do
      f (Memory.page_index model_base + k)
    done
  in
  let addr pg = model_base + (pg * Memory.page_size) in
  let step = function
    | Map (i, pg, n, perm) ->
      let i = pick i in
      Memory.map mems.(i) ~addr:(addr pg) ~len:(n * Memory.page_size) ~perm;
      pages pg n (fun idx ->
          Hashtbl.replace refs.(i) idx
            { rb = Bytes.make Memory.page_size '\000'; rperm = perm; rpkey = 0 });
      true
    | Unmap (i, pg, n) ->
      let i = pick i in
      Memory.unmap mems.(i) ~addr:(addr pg) ~len:(n * Memory.page_size);
      pages pg n (Hashtbl.remove refs.(i));
      true
    | Set_perm (i, pg, n, perm) ->
      let i = pick i in
      Memory.set_perm mems.(i) ~addr:(addr pg) ~len:(n * Memory.page_size) ~perm;
      pages pg n (fun idx -> Option.iter (fun p -> p.rperm <- perm) (Hashtbl.find_opt refs.(i) idx));
      true
    | Set_pkey (i, pg, n, pkey) ->
      let i = pick i in
      Memory.set_pkey mems.(i) ~addr:(addr pg) ~len:(n * Memory.page_size) ~pkey;
      pages pg n (fun idx -> Option.iter (fun p -> p.rpkey <- pkey) (Hashtbl.find_opt refs.(i) idx));
      true
    | Clone i ->
      if !live < Array.length mems then begin
        let i = pick i in
        mems.(!live) <- Memory.clone mems.(i);
        let copy = Hashtbl.create 8 in
        Hashtbl.iter (fun idx p -> Hashtbl.replace copy idx { p with rb = Bytes.copy p.rb }) refs.(i);
        refs.(!live) <- copy;
        incr live
      end;
      true
    | Write w ->
      let i = pick w.mem in
      fault_outcome (fun () -> mem_write mems.(i) w)
      = fault_outcome (fun () -> ref_write refs.(i) w)
  in
  let zero = Memory.create () in
  List.for_all step ops
  && List.for_all (fun i -> same_as_reference mems.(i) refs.(i)) (List.init !live Fun.id)
  && begin
       Memory.map zero ~addr:0 ~len:Memory.page_size ~perm:Memory.perm_r;
       Bytes.equal (Memory.read_bytes_raw zero 0 Memory.page_size)
         (Bytes.make Memory.page_size '\000')
     end

let arb_model =
  let open QCheck.Gen in
  let span = model_pages * Memory.page_size in
  let mem = int_range 0 3 in
  let perm = oneofl Memory.[ perm_rw; perm_r; perm_rwx; perm_rx; perm_none ] in
  let range =
    int_range 0 (model_pages - 1) >>= fun pg ->
    int_range 1 (min 3 (model_pages - pg)) >|= fun n -> (pg, n)
  in
  let write =
    mem >>= fun mem ->
    oneofl [ U8; U64; U8_raw; U64_raw; U32_raw; Bytes_raw; Cstr; From_raw ] >>= fun path ->
    int_range (model_base - 16) (model_base + span + 16) >>= fun a ->
    bool >>= fun aligned ->
    int >>= fun v ->
    frequency [ (3, int_range 0 64); (1, int_range 0 (2 * Memory.page_size)) ] >>= fun len ->
    oneofl [ 0; 1 lsl 2; 1 lsl 3 ] >|= fun pkru ->
    Write { mem; path; addr = (if aligned then a land lnot 7 else a); v; len; pkru }
  in
  let op =
    frequency
      [
        (2, map3 (fun i (pg, n) p -> Map (i, pg, n, p)) mem range perm);
        (1, map2 (fun i (pg, n) -> Unmap (i, pg, n)) mem range);
        (1, map3 (fun i (pg, n) p -> Set_perm (i, pg, n, p)) mem range perm);
        (1, map3 (fun i (pg, n) k -> Set_pkey (i, pg, n, k)) mem range (int_range 0 1));
        (2, map (fun i -> Clone i) mem);
        (10, write);
      ]
  in
  let gen = list_size (int_range 1 40) op >|= fun ops -> Map (0, 0, model_pages, Memory.perm_rw) :: ops in
  QCheck.make gen ~print:(fun ops -> String.concat "\n" (List.map show_op ops))

let prop_cow_model =
  QCheck.Test.make ~name:"memory: copy-on-write pages == deep-copy model" ~count:300 arb_model
    run_model

let test_u64_straddle_fault_addr () =
  let m = Memory.create () in
  Memory.map m ~addr:0x1000 ~len:4096 ~perm:Memory.perm_rw;
  (* word at 0x1ffc spills into the unmapped page at 0x2000: the fault
     must name the first inaccessible byte, as the byte loop did *)
  Alcotest.check_raises "straddle write fault at 0x2000"
    (Memory.Fault { fault_addr = 0x2000; access = `Write })
    (fun () -> Memory.write_u64 m ~pkru:0 0x1ffc 1);
  Alcotest.check_raises "straddle read fault at 0x2000"
    (Memory.Fault { fault_addr = 0x2000; access = `Read })
    (fun () -> ignore (Memory.read_u64 m ~pkru:0 0x1ffc))

(* ---------------- int-keyed table ---------------- *)

(* Inttbl against a Hashtbl model: after every step each table, the
   copies included, holds what its own model holds, seen through fold,
   find_opt, mem and length.  Copies are made mid-sequence and both a
   copy and its source are changed afterwards (rebinding, removing and
   adding keys, growing), so a copy that shared cells or buckets with
   its source would show the other's changes. *)
let prop_inttbl_model =
  let open QCheck.Gen in
  let key =
    oneof [ int_range (-3) 40; map (fun k -> k * 4096) (int_range 0 30); oneofl [ max_int; min_int ] ]
  in
  let op =
    frequency
      [
        (6, map3 (fun t k v -> `Replace (t, k, v)) nat key small_int);
        (3, map2 (fun t k -> `Remove (t, k)) nat key);
        (1, map (fun t -> `Copy t) nat);
      ]
  in
  QCheck.Test.make ~name:"Inttbl fold and copy == Hashtbl model" ~count:300
    (QCheck.make (list_size (int_range 0 150) op))
    (fun ops ->
      let tables = ref [| (Inttbl.create 1, Hashtbl.create 8) |] in
      let pick i = !tables.(i mod Array.length !tables) in
      let agrees (t, m) =
        let bindings = List.sort compare (Inttbl.fold (fun k v acc -> (k, v) :: acc) t []) in
        bindings = List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) m [])
        && Inttbl.length t = Hashtbl.length m
        && List.for_all (fun (k, v) -> Inttbl.find_opt t k = Some v && Inttbl.mem t k) bindings
      in
      List.for_all
        (fun op ->
          (match op with
          | `Replace (i, k, v) ->
            let t, m = pick i in
            Inttbl.replace t k v;
            Hashtbl.replace m k v
          | `Remove (i, k) ->
            let t, m = pick i in
            Inttbl.remove t k;
            Hashtbl.remove m k
          | `Copy i ->
            let t, m = pick i in
            tables := Array.append !tables [| (Inttbl.copy t, Hashtbl.copy m) |]);
          Array.for_all agrees !tables)
        ops)

(* ---------------- icache ---------------- *)

let test_icache_caches_stale () =
  let m = Memory.create () in
  Memory.map m ~addr:0x1000 ~len:4096 ~perm:Memory.perm_rx;
  Memory.write_u8_raw m 0x1000 0x90;
  let ic = Icache.create () in
  Alcotest.(check int) "first fetch" 0x90 (Icache.fetch_u8 ic m 0x1000);
  (* an uncoordinated raw write is invisible through the cache *)
  Memory.write_u8_raw m 0x1000 0xc3;
  Alcotest.(check int) "stale without invalidate" 0x90 (Icache.fetch_u8 ic m 0x1000);
  Icache.invalidate_range ic ~addr:0x1000 ~len:1;
  Alcotest.(check int) "fresh after invalidate" 0xc3 (Icache.fetch_u8 ic m 0x1000)

let test_icache_flush () =
  let m = Memory.create () in
  Memory.map m ~addr:0x1000 ~len:4096 ~perm:Memory.perm_rx;
  let ic = Icache.create () in
  ignore (Icache.fetch_u8 ic m 0x1040);
  Alcotest.(check bool) "holds" true (Icache.holds ic 0x1040);
  Icache.flush ic;
  Alcotest.(check bool) "flushed" false (Icache.holds ic 0x1040)

(* ---------------- predecode coherence ---------------- *)

let check_decode msg expected got =
  let pp r =
    match r with
    | Ok (i, len) -> Printf.sprintf "%s/%d" (Insn.to_string i) len
    | Error `Invalid -> "(bad)"
  in
  Alcotest.(check string) msg (pp expected) (pp got)

(* (a) a store into a predecoded line is self-snooped: the next fetch
   re-decodes the new bytes. *)
let test_predecode_self_store () =
  let m = Memory.create () in
  Memory.map m ~addr:0x1000 ~len:4096 ~perm:Memory.perm_rwx;
  Memory.write_u8_raw m 0x1200 0x90;
  let ic = Icache.create () in
  check_decode "target predecoded as nop" (Ok (Insn.Nop, 1)) (Icache.fetch_decode ic m 0x1200);
  (* overwrite the target with hlt (0xf4) via an executed store *)
  Memory.write_bytes_raw m 0x1000
    (Encode.assemble [ Mov_ri (RBX, 0x1200); Mov_ri (RAX, 0xf4); Store8 (RBX, 0, RAX) ]);
  let regs = Regs.create () in
  regs.rip <- 0x1000;
  for _ = 1 to 3 do
    ignore (Cpu.step ~cost:Cost.default regs m ic)
  done;
  check_decode "self-store re-decodes" (Ok (Insn.Hlt, 1)) (Icache.fetch_decode ic m 0x1200)

(* A call's return-address push is a store like [Push]'s: it snoops
   the core's own lines, so a predecoded line under the new stack slot
   is re-decoded, as a fresh cache would decode it. *)
let test_predecode_call_push call () =
  let m = Memory.create () in
  Memory.map m ~addr:0x1000 ~len:4096 ~perm:Memory.perm_rwx;
  Memory.write_bytes_raw m 0x1200 (Bytes.make 8 '\x90');
  let ic = Icache.create () in
  check_decode "target predecoded as nop" (Ok (Insn.Nop, 1)) (Icache.fetch_decode ic m 0x1200);
  Memory.write_bytes_raw m 0x1000
    (Encode.assemble [ Mov_ri (RSP, 0x1208); Mov_ri (RAX, 0x1100); call ]);
  let regs = Regs.create () in
  regs.rip <- 0x1000;
  for _ = 1 to 3 do
    ignore (Cpu.step ~cost:Cost.default regs m ic)
  done;
  Alcotest.(check int) "return address pushed at 0x1200" 0x1200 (Regs.get regs RSP);
  Alcotest.(check bool) "memory changed" true (Memory.read_u8_raw m 0x1200 <> 0x90);
  check_decode "call push re-decodes"
    (Icache.fetch_decode (Icache.create ()) m 0x1200)
    (Icache.fetch_decode ic m 0x1200)

(* (b) a cross-core store without [Kern.code_write_barrier] leaves the
   other core's predecoded instruction stale — the byte-model
   behaviour the P5 PoC depends on. *)
let test_predecode_cross_core_stale () =
  let m = Memory.create () in
  Memory.map m ~addr:0x1000 ~len:4096 ~perm:Memory.perm_rwx;
  Memory.write_u8_raw m 0x1200 0x90;
  let ic1 = Icache.create () and ic2 = Icache.create () in
  check_decode "core1 predecodes nop" (Ok (Insn.Nop, 1)) (Icache.fetch_decode ic1 m 0x1200);
  (* core 2 executes the store; it snoops only its own cache *)
  Memory.write_bytes_raw m 0x1000
    (Encode.assemble [ Mov_ri (RBX, 0x1200); Mov_ri (RAX, 0xf4); Store8 (RBX, 0, RAX) ]);
  let regs = Regs.create () in
  regs.rip <- 0x1000;
  for _ = 1 to 3 do
    ignore (Cpu.step ~cost:Cost.default regs m ic2)
  done;
  Alcotest.(check int) "memory updated" 0xf4 (Memory.read_u8_raw m 0x1200);
  check_decode "core1 still stale without barrier" (Ok (Insn.Nop, 1))
    (Icache.fetch_decode ic1 m 0x1200);
  (* the kernel barrier invalidates every core's line *)
  Icache.invalidate_range ic1 ~addr:0x1200 ~len:1;
  check_decode "fresh after barrier" (Ok (Insn.Hlt, 1)) (Icache.fetch_decode ic1 m 0x1200)

(* Jumping into the middle of an instruction must decode the different
   overlapping instruction at that offset (P2a/P3a root cause): the
   memo is per entry offset, not per instruction span. *)
let test_predecode_overlap_entry () =
  let m = Memory.create () in
  Memory.map m ~addr:0x1000 ~len:4096 ~perm:Memory.perm_rx;
  (* b8 90 90 90 90 = mov eax, 0x90909090; its tail bytes are nops *)
  Memory.write_bytes_raw m 0x1000 (Bytes.of_string "\xb8\x90\x90\x90\x90");
  let ic = Icache.create () in
  check_decode "aligned entry" (Ok (Insn.Mov_ri32 (Reg.RAX, 0x90909090), 5))
    (Icache.fetch_decode ic m 0x1000);
  check_decode "misaligned entry decodes the overlap" (Ok (Insn.Nop, 1))
    (Icache.fetch_decode ic m 0x1001)

(* Line-straddling instructions are never memoised: their bytes span
   two lines with independent lifetimes, so invalidating only the
   second line must be visible on the next decode. *)
let test_predecode_line_straddle () =
  let m = Memory.create () in
  Memory.map m ~addr:0x1000 ~len:4096 ~perm:Memory.perm_rx;
  (* mov eax, imm32 at 0x103e: opcode+imm0 in line 0x1000, imm1..3 in
     line 0x1040 *)
  Memory.write_bytes_raw m 0x103e (Bytes.of_string "\xb8\x11\x22\x33\x44");
  let ic = Icache.create () in
  check_decode "straddling insn decodes" (Ok (Insn.Mov_ri32 (Reg.RAX, 0x44332211), 5))
    (Icache.fetch_decode ic m 0x103e);
  (* change an imm byte that lives in the second line *)
  Memory.write_u8_raw m 0x1041 0x55;
  check_decode "stale while both lines cached" (Ok (Insn.Mov_ri32 (Reg.RAX, 0x44332211), 5))
    (Icache.fetch_decode ic m 0x103e);
  Icache.invalidate_range ic ~addr:0x1041 ~len:1;
  check_decode "second-line invalidate is visible"
    (Ok (Insn.Mov_ri32 (Reg.RAX, 0x44552211), 5))
    (Icache.fetch_decode ic m 0x103e)

(* ---------------- nop skip and flush recheck ---------------- *)

(* The definitional nop walk: one cached byte at a time, stopping at
   the first non-nop byte or at the first fetch that faults. *)
let byte_walk ic m addr =
  let rec go a =
    match Icache.fetch_u8 ic m a with
    | 0x90 -> go (a + 1)
    | _ -> a
    | exception Memory.Fault _ -> a
  in
  go addr

let sled_page = 0x2000

(* [lines] mostly-nop lines at the end of an RX page, then two lines of
   the next page, which is RX, RW or unmapped; a history of warming
   fetches, raw rewrites (stale while cached: no barrier), line
   invalidations (a rewrite then a refill recomputes the line's
   trailing-nop start) and flushes; and a start address anywhere in the
   window *)
let arb_sled =
  let open QCheck.Gen in
  let byte = frequency [ (40, return 0x90); (1, int_range 0 255) ] in
  let gen =
    int_range 1 4 >>= fun lines ->
    let lo = sled_page - (lines * Icache.line_size) in
    let span = (lines + 2) * Icache.line_size in
    let addr = int_range lo (lo + span - 1) in
    let op =
      frequency
        [
          (3, map (fun a -> `Warm a) addr);
          (3, map2 (fun a b -> `Poke (a, b)) addr byte);
          (2, map (fun a -> `Invalidate a) addr);
          (1, return `Flush);
        ]
    in
    map4
      (fun next bytes ops start -> (lines, next, bytes, ops, start))
      (oneofl [ `Rx; `Rw; `Unmapped ])
      (list_repeat span byte) (list_size (int_range 0 12) op) addr
  in
  QCheck.make gen ~print:(fun (lines, next, bytes, ops, start) ->
      Printf.sprintf "lines=%d next=%s start=0x%x ops=[%s] bytes=%s" lines
        (match next with `Rx -> "rx" | `Rw -> "rw" | `Unmapped -> "unmapped")
        start
        (String.concat "; "
           (List.map
              (function
                | `Warm a -> Printf.sprintf "warm 0x%x" a
                | `Poke (a, b) -> Printf.sprintf "poke 0x%x=%02x" a b
                | `Invalidate a -> Printf.sprintf "invalidate 0x%x" a
                | `Flush -> "flush")
              ops))
        (String.concat "" (List.map (Printf.sprintf "%02x") bytes)))

let prop_skip_nops =
  QCheck.Test.make ~name:"icache: sled skip == byte walk" ~count:500 arb_sled
    (fun (lines, next, bytes, ops, start) ->
      let m = Memory.create () in
      Memory.map m ~addr:(sled_page - Memory.page_size) ~len:Memory.page_size
        ~perm:Memory.perm_rx;
      (match next with
      | `Rx -> Memory.map m ~addr:sled_page ~len:Memory.page_size ~perm:Memory.perm_rx
      | `Rw -> Memory.map m ~addr:sled_page ~len:Memory.page_size ~perm:Memory.perm_rw
      | `Unmapped -> ());
      let lo = sled_page - (lines * Icache.line_size) in
      let poke a b = if Memory.is_mapped m a then Memory.write_u8_raw m a b in
      List.iteri (fun i b -> poke (lo + i) b) bytes;
      let ic = Icache.create () and reference = Icache.create () in
      List.iter
        (function
          | `Warm a ->
            List.iter
              (fun c -> try ignore (Icache.fetch_u8 c m a) with Memory.Fault _ -> ())
              [ ic; reference ]
          | `Poke (a, b) -> poke a b
          | `Invalidate a -> List.iter (fun c -> Icache.invalidate_range c ~addr:a ~len:1) [ ic; reference ]
          | `Flush -> List.iter Icache.flush [ ic; reference ])
        ops;
      let same_line base =
        Icache.holds ic base = Icache.holds reference base
        && ((not (Icache.holds ic base))
           || List.for_all
                (fun i -> Icache.fetch_u8 ic m (base + i) = Icache.fetch_u8 reference m (base + i))
                (List.init Icache.line_size Fun.id))
      in
      Icache.skip_nops ic m start = byte_walk reference m start
      && List.for_all same_line (List.init (lines + 2) (fun i -> lo + (i * Icache.line_size))))

(* After a flush every line is rechecked against memory before it is
   served: rewritten bytes are fetched (and decoded) fresh, a page made
   non-executable faults at the fetch address, and a cache moved to
   another address space serves that space's bytes.  The sled skip
   sees the same rechecked bytes, across a line boundary. *)
let test_flush_recheck predecode () =
  let m = Memory.create () in
  Memory.map m ~addr:0x1000 ~len:4096 ~perm:Memory.perm_rx;
  Memory.write_bytes_raw m 0x1080 (Bytes.make 0x50 '\x90');
  Memory.write_u8_raw m 0x10d0 0xf4;
  let ic = Icache.create ~predecode () in
  check_decode "nop cached" (Ok (Insn.Nop, 1)) (Icache.fetch_decode ic m 0x1080);
  Alcotest.(check int) "sled ends at hlt" 0x10d0 (Icache.skip_nops ic m 0x1080);
  (* raw rewrites while both lines are cached: stale until the flush *)
  Memory.write_u8_raw m 0x1080 0xcc;
  Memory.write_u8_raw m 0x10c4 0xf4;
  check_decode "stale before flush" (Ok (Insn.Nop, 1)) (Icache.fetch_decode ic m 0x1080);
  Alcotest.(check int) "stale sled" 0x10d0 (Icache.skip_nops ic m 0x1081);
  Icache.flush ic;
  Alcotest.(check bool) "flushed line not held" false (Icache.holds ic 0x1080);
  check_decode "fresh decode after flush" (Ok (Insn.Int3, 1)) (Icache.fetch_decode ic m 0x1080);
  Alcotest.(check int) "fresh byte after flush" 0xcc (Icache.fetch_u8 ic m 0x1080);
  Alcotest.(check int) "sled sees the fresh second line" 0x10c4 (Icache.skip_nops ic m 0x1081);
  Icache.flush ic;
  check_decode "unchanged line after flush" (Ok (Insn.Int3, 1)) (Icache.fetch_decode ic m 0x1080);
  Memory.set_perm m ~addr:0x1000 ~len:4096 ~perm:Memory.perm_rw;
  check_decode "cached line served before flush" (Ok (Insn.Int3, 1))
    (Icache.fetch_decode ic m 0x1080);
  Icache.flush ic;
  Alcotest.check_raises "non-exec after flush faults at the fetch address"
    (Memory.Fault { fault_addr = 0x1083; access = `Exec })
    (fun () -> ignore (Icache.fetch_decode ic m 0x1083));
  Memory.set_perm m ~addr:0x1000 ~len:4096 ~perm:Memory.perm_rx;
  check_decode "refetched" (Ok (Insn.Int3, 1)) (Icache.fetch_decode ic m 0x1080);
  let m2 = Memory.create () in
  Memory.map m2 ~addr:0x1000 ~len:4096 ~perm:Memory.perm_rx;
  Memory.write_u8_raw m2 0x1080 0xf4;
  Icache.flush ic;
  check_decode "second memory's bytes" (Ok (Insn.Hlt, 1)) (Icache.fetch_decode ic m2 0x1080);
  Icache.flush ic;
  check_decode "first memory's bytes again" (Ok (Insn.Int3, 1)) (Icache.fetch_decode ic m 0x1080)

(* ---------------- cpu ---------------- *)

let exec_prog ?(steps = 100) insns =
  let m = Memory.create () in
  Memory.map m ~addr:0x1000 ~len:4096 ~perm:Memory.perm_rx;
  Memory.map m ~addr:0x8000 ~len:4096 ~perm:Memory.perm_rw;
  Memory.write_bytes_raw m 0x1000 (Encode.assemble insns);
  let regs = Regs.create () in
  regs.rip <- 0x1000;
  Regs.set regs RSP 0x8800;
  let ic = Icache.create () in
  let trap = ref None in
  (try
     for _ = 1 to steps do
       match Cpu.step ~cost:Cost.default regs m ic with
       | Cpu.Stepped _ -> ()
       | Cpu.Trapped (t, _) ->
         trap := Some t;
         raise Exit
     done
   with Exit -> ());
  (regs, !trap)

let test_arith_flags () =
  let regs, _ =
    exec_prog [ Mov_ri (RAX, 5); Sub_ri (RAX, 5); Hlt ]
  in
  Alcotest.(check bool) "zf set" true regs.zf;
  Alcotest.(check int) "rax zero" 0 (Regs.get regs RAX)

let test_branching () =
  let regs, _ =
    exec_prog
      [ Mov_ri (RAX, 3); Cmp_ri (RAX, 3); Jcc (Z, 11); Mov_ri (RBX, 111); Hlt; Mov_ri (RBX, 222); Hlt ]
  in
  (* jz +11 skips the 10-byte mov rbx,111 and the hlt *)
  Alcotest.(check int) "took branch" 222 (Regs.get regs RBX)

let test_push_pop_call_ret () =
  let regs, _ =
    exec_prog
      [
        Mov_ri (RAX, 42);
        Push RAX;
        Mov_ri (RAX, 0);
        Pop RBX;
        Call_rel 1; (* call next+1: skips the hlt below? no: call jumps forward 1 byte *)
        Hlt;
        Mov_ri (RCX, 7);
        Hlt;
      ]
  in
  Alcotest.(check int) "pop" 42 (Regs.get regs RBX);
  Alcotest.(check int) "call target ran" 7 (Regs.get regs RCX)

let test_syscall_clobbers () =
  (* x86-64: syscall sets rcx to the next rip and clobbers r11 — the
     behaviour K23's trampoline exploits *)
  let regs, trap = exec_prog [ Mov_ri (RAX, 39); Syscall; Hlt ] in
  (match trap with
  | Some (Cpu.Syscall_trap { site; kind = `Syscall }) ->
    Alcotest.(check int) "site" (0x1000 + 10) site;
    Alcotest.(check int) "rcx = next rip" (0x1000 + 12) (Regs.get regs RCX)
  | _ -> Alcotest.fail "expected syscall trap");
  Alcotest.(check int) "rip advanced" (0x1000 + 12) regs.rip

let test_vcall_trap () =
  let _, trap = exec_prog [ Vcall 5 ] in
  match trap with
  | Some (Cpu.Vcall_trap 5) -> ()
  | _ -> Alcotest.fail "expected vcall trap"

let test_ud_on_garbage () =
  let m = Memory.create () in
  Memory.map m ~addr:0x1000 ~len:4096 ~perm:Memory.perm_rx;
  Memory.write_u8_raw m 0x1000 0xfe (* not a valid first byte *);
  let regs = Regs.create () in
  regs.rip <- 0x1000;
  let ic = Icache.create () in
  match Cpu.step ~cost:Cost.default regs m ic with
  | Cpu.Trapped (Cpu.Ud_trap 0x1000, _) -> ()
  | _ -> Alcotest.fail "expected #UD"

(* torn lazypoline bytes decode to #UD: the P5 crash mechanism *)
let test_torn_rewrite_is_ud () =
  let m = Memory.create () in
  Memory.map m ~addr:0x1000 ~len:4096 ~perm:Memory.perm_rx;
  (* original syscall, first byte already rewritten: ff 05 *)
  Memory.write_bytes_raw m 0x1000 (Bytes.of_string "\xff\x05");
  let regs = Regs.create () in
  regs.rip <- 0x1000;
  match Cpu.step ~cost:Cost.default regs m (Icache.create ()) with
  | Cpu.Trapped (Cpu.Ud_trap _, _) -> ()
  | _ -> Alcotest.fail "torn bytes must fault"

let test_wrpkru () =
  let regs, _ = exec_prog [ Mov_ri (RAX, 0xc); Wrpkru; Hlt ] in
  Alcotest.(check int) "pkru loaded" 0xc regs.pkru

let tests =
  ( "machine",
    [
      Alcotest.test_case "map/read/write" `Quick test_map_read_write;
      Alcotest.test_case "unmapped faults" `Quick test_unmapped_faults;
      Alcotest.test_case "permission checks" `Quick test_perm_checks;
      Alcotest.test_case "PKU XOM (fetch allowed, read blocked)" `Quick test_pku_xom;
      Alcotest.test_case "NX fetch faults" `Quick test_fetch_needs_exec;
      Alcotest.test_case "clone is deep" `Quick test_clone_is_deep;
      Alcotest.test_case "cstr roundtrip" `Quick test_cstr_roundtrip;
      Alcotest.test_case "MAP_NORESERVE accounting" `Quick test_reservation_accounting;
      Alcotest.test_case "unmap accounting (partial/missing ranges)" `Quick test_unmap_accounting;
      Alcotest.test_case "remap accounting (map, remap, unmap)" `Quick test_remap_accounting;
      Alcotest.test_case "pages on demand: map/clone share, a store copies one page" `Quick
        test_pages_on_demand;
      QCheck_alcotest.to_alcotest prop_cow_model;
      QCheck_alcotest.to_alcotest prop_bulk_read;
      QCheck_alcotest.to_alcotest prop_bulk_write;
      Alcotest.test_case "TLB: unmap faults" `Quick test_tlb_unmap_faults;
      Alcotest.test_case "TLB: MAP_FIXED remap serves fresh page" `Quick test_tlb_remap_fresh;
      Alcotest.test_case "TLB: mprotect/pkey visible immediately" `Quick
        test_tlb_mprotect_immediate;
      Alcotest.test_case "u64 page-straddle fault address" `Quick test_u64_straddle_fault_addr;
      QCheck_alcotest.to_alcotest prop_memory_bytes;
      QCheck_alcotest.to_alcotest prop_memory_u64;
      Alcotest.test_case "icache serves stale lines" `Quick test_icache_caches_stale;
      Alcotest.test_case "icache flush" `Quick test_icache_flush;
      Alcotest.test_case "predecode: self-store re-decodes (SMC)" `Quick
        test_predecode_self_store;
      Alcotest.test_case "predecode: call_rel push re-decodes (SMC)" `Quick
        (test_predecode_call_push (Call_rel 0));
      Alcotest.test_case "predecode: call_reg push re-decodes (SMC)" `Quick
        (test_predecode_call_push (Call_reg RAX));
      Alcotest.test_case "predecode: cross-core store stays stale (P5)" `Quick
        test_predecode_cross_core_stale;
      Alcotest.test_case "predecode: misaligned entry overlap (P2a/P3a)" `Quick
        test_predecode_overlap_entry;
      Alcotest.test_case "predecode: line-straddling insn not memoised" `Quick
        test_predecode_line_straddle;
      QCheck_alcotest.to_alcotest prop_skip_nops;
      Alcotest.test_case "flush rechecks lines (predecode on)" `Quick (test_flush_recheck true);
      Alcotest.test_case "flush rechecks lines (predecode off)" `Quick (test_flush_recheck false);
      Alcotest.test_case "arithmetic flags" `Quick test_arith_flags;
      Alcotest.test_case "conditional branch" `Quick test_branching;
      Alcotest.test_case "push/pop/call/ret" `Quick test_push_pop_call_ret;
      Alcotest.test_case "syscall clobbers rcx/r11" `Quick test_syscall_clobbers;
      Alcotest.test_case "vcall trap" `Quick test_vcall_trap;
      Alcotest.test_case "#UD on garbage" `Quick test_ud_on_garbage;
      Alcotest.test_case "torn rewrite is #UD (P5)" `Quick test_torn_rewrite_is_ud;
      Alcotest.test_case "wrpkru" `Quick test_wrpkru;
      QCheck_alcotest.to_alcotest prop_inttbl_model;
    ] )
