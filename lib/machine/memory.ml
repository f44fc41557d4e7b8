(** Sparse paged virtual memory with RWX permissions and protection keys.

    Pages are 4 KiB.  Each page carries a protection key (pkey); data
    accesses are additionally checked against the accessing thread's
    PKRU register, mirroring Intel MPK semantics:

    - bit [2k] of PKRU (Access Disable) forbids all data access to
      pages tagged with key [k];
    - bit [2k+1] (Write Disable) forbids writes;
    - {b instruction fetch is never blocked by PKRU} — which is exactly
      why zpoline/lazypoline/K23 can build eXecute-Only Memory (XOM)
      out of PKU, and why NULL {e execution} is not stopped by it
      (pitfall P4a).

    The [*_raw] accessors bypass permission checks; they model kernel
    accesses (and tooling).  Checked accessors raise {!Fault}. *)

let page_size = 4096
let page_shift = 12

type perm = { r : bool; w : bool; x : bool }

let perm_none = { r = false; w = false; x = false }
let perm_r = { r = true; w = false; x = false }
let perm_rw = { r = true; w = true; x = false }
let perm_rx = { r = true; w = false; x = true }
let perm_rwx = { r = true; w = true; x = true }
let perm_x = { r = false; w = false; x = true }

let perm_to_string p =
  Printf.sprintf "%c%c%c" (if p.r then 'r' else '-') (if p.w then 'w' else '-')
    (if p.x then 'x' else '-')

type access = [ `Read | `Write | `Exec ]

type fault = { fault_addr : int; access : access }

exception Fault of fault

(* Pages on demand.  A page's buffer is either its own or shared, and
   a shared buffer carries the [cow] mark: the one all-zero buffer
   behind every fresh mapping, a page of an image section mapped by
   {!map_frames}, or a page that {!clone} left to parent and child.
   Every store below goes through {!own}, which copies a marked buffer
   before the first write, so no shared buffer is ever written.  There
   is no reference count: after a fork both sides copy a page on their
   first store to it, even when the other side has since exited. *)
type page = {
  mutable bytes : Bytes.t;
  mutable cow : bool;  (** [bytes] may be shared: copy before writing *)
  mutable perm : perm;
  mutable pkey : int;
}

type t = {
  pages : page Inttbl.t;
  mutable committed_bytes : int;
      (** simulated memory committed by {!map} and {!map_frames},
          counted at map time however the page is backed *)
  mutable reserved_bytes : int;
      (** virtual reservations including MAP_NORESERVE-style mappings
          that never allocate pages (zpoline's full-address-space
          bitmap); the basis of the P4b memory-overhead measurement *)
  (* One-entry data-TLBs: the last (page_index, page) pair seen per
     access kind, so the hot word-access paths skip the page table.
     They cache only the index->page *binding* — permissions are
     re-read from the page record on every access (set_perm/set_pkey
     mutate in place), so only map/unmap, which replace or drop page
     records, must flush them. *)
  mutable tlb_r_idx : int;
  mutable tlb_r_pg : page;
  mutable tlb_w_idx : int;
  mutable tlb_w_pg : page;
  mutable tlb_raw_idx : int;
  mutable tlb_raw_pg : page;
}

(* Placeholder behind an empty TLB slot (idx = -1, never a real page
   index since addresses shift right logically), and the page table's
   answer for an unmapped index. *)
let no_page = { bytes = Bytes.empty; cow = true; perm = perm_none; pkey = 0 }

(* The buffer every fresh mapping shares.  It is never written: each
   page that holds it is marked [cow]. *)
let zero_page = Bytes.make page_size '\000'

(* The buffer a store may write into: a shared one is replaced by a
   private copy first, once. *)
let[@inline] own p =
  if p.cow then begin
    p.bytes <- Bytes.copy p.bytes;
    p.cow <- false
  end;
  p.bytes

let create () =
  {
    pages = Inttbl.create 1024;
    committed_bytes = 0;
    reserved_bytes = 0;
    tlb_r_idx = -1;
    tlb_r_pg = no_page;
    tlb_w_idx = -1;
    tlb_w_pg = no_page;
    tlb_raw_idx = -1;
    tlb_raw_pg = no_page;
  }

let tlb_flush t =
  t.tlb_r_idx <- -1;
  t.tlb_r_pg <- no_page;
  t.tlb_w_idx <- -1;
  t.tlb_w_pg <- no_page;
  t.tlb_raw_idx <- -1;
  t.tlb_raw_pg <- no_page

let page_index addr = addr lsr page_shift

let align_down addr = addr land lnot (page_size - 1)

let align_up addr = (addr + page_size - 1) land lnot (page_size - 1)

let is_mapped t addr = Inttbl.mem t.pages (page_index addr)

let find_page t addr = Inttbl.find_opt t.pages (page_index addr)

(* Bind [npages] pages from [addr] to the shared buffers [frame i],
   each marked copy-on-write.  Already-mapped pages are replaced
   (MAP_FIXED semantics); only newly added pages are committed and
   reserved, so map, remap, unmap leaves both counters where they
   started. *)
let install t ~addr ~npages ~perm ~pkey frame =
  for i = 0 to npages - 1 do
    let idx = page_index addr + i in
    if not (Inttbl.mem t.pages idx) then begin
      t.committed_bytes <- t.committed_bytes + page_size;
      t.reserved_bytes <- t.reserved_bytes + page_size
    end;
    Inttbl.replace t.pages idx { bytes = frame i; cow = true; perm; pkey }
  done;
  tlb_flush t

(** [map t ~addr ~len ~perm] maps (and commits) zero pages covering
    [addr, addr+len).  [addr] must be page-aligned.  Every page shares
    the one zero buffer until its first store. *)
let map ?(pkey = 0) t ~addr ~len ~perm =
  if addr land (page_size - 1) <> 0 then invalid_arg "Memory.map: unaligned addr";
  if len <= 0 then invalid_arg "Memory.map: bad length";
  install t ~addr ~npages:(align_up len lsr page_shift) ~perm ~pkey (fun _ -> zero_page)

(* An image section split into page-sized buffers, the last one padded
   with zeros.  Nothing writes them: {!map_frames} installs them
   copy-on-write. *)
type frames = Bytes.t array

let frames_of_bytes b =
  let len = Bytes.length b in
  Array.init
    (max 1 (align_up len lsr page_shift))
    (fun i ->
      let f = Bytes.make page_size '\000' in
      let off = i * page_size in
      Bytes.blit b off f 0 (min page_size (len - off));
      f)

let map_frames t ~addr ~perm frames =
  if addr land (page_size - 1) <> 0 then invalid_arg "Memory.map_frames: unaligned addr";
  install t ~addr ~npages:(Array.length frames) ~perm ~pkey:0 (Array.get frames)

(** Record a virtual-only reservation (MAP_NORESERVE): no pages are
    committed, but the reservation is accounted, so the P4b bench can
    compare zpoline's 2^48-bit bitmap against K23's hash set. *)
let reserve t ~len = t.reserved_bytes <- t.reserved_bytes + len

(* Only pages actually present are uncommitted/unreserved: unmapping
   an unmapped (or partially mapped) range is a no-op for the missing
   pages, as with munmap, rather than driving the counters negative. *)
let unmap t ~addr ~len =
  let npages = (align_up len) lsr page_shift in
  for i = 0 to npages - 1 do
    let idx = page_index addr + i in
    if Inttbl.mem t.pages idx then begin
      Inttbl.remove t.pages idx;
      t.committed_bytes <- t.committed_bytes - page_size;
      t.reserved_bytes <- t.reserved_bytes - page_size
    end
  done;
  tlb_flush t

(* The pages [addr, addr+len) touches: none when [len <= 0], as
   mprotect with length 0 changes nothing. *)
let pages_spanned ~addr ~len =
  if len <= 0 then 0 else align_up (len + (addr land (page_size - 1))) lsr page_shift

(** mprotect: change permissions of every mapped page in range. *)
let set_perm t ~addr ~len ~perm =
  for i = 0 to pages_spanned ~addr ~len - 1 do
    match Inttbl.find_opt t.pages (page_index addr + i) with
    | Some p -> p.perm <- perm
    | None -> ()
  done

let set_pkey t ~addr ~len ~pkey =
  for i = 0 to pages_spanned ~addr ~len - 1 do
    match Inttbl.find_opt t.pages (page_index addr + i) with
    | Some p -> p.pkey <- pkey
    | None -> ()
  done

let get_perm t addr = Option.map (fun p -> p.perm) (find_page t addr)
let get_pkey t addr = Option.map (fun p -> p.pkey) (find_page t addr)

(* ------------------------------------------------------------------ *)
(* Raw (kernel-view) access                                            *)

let[@inline] lookup_raw t addr (access : access) =
  let idx = addr lsr page_shift in
  if t.tlb_raw_idx = idx then t.tlb_raw_pg
  else
    let p = Inttbl.find t.pages idx ~default:no_page in
    if p == no_page then raise (Fault { fault_addr = addr; access });
    t.tlb_raw_idx <- idx;
    t.tlb_raw_pg <- p;
    p

let read_u8_raw t addr =
  let p = lookup_raw t addr `Read in
  Char.code (Bytes.get p.bytes (addr land (page_size - 1)))

let write_u8_raw t addr v =
  let p = lookup_raw t addr `Write in
  Bytes.set (own p) (addr land (page_size - 1)) (Char.chr (v land 0xff))

(* Bulk copies: one page lookup and one blit per in-page chunk.  Each
   chunk starts either at [addr] or on a page boundary, and its lookup
   names that first byte, so a fault carries the address the per-byte
   loop would have faulted on: the first byte of the first unmapped
   page.  Chunks go in address order, so a faulting write has already
   stored exactly the prefix the byte loop would have stored.
   [f page page_off i n] copies bytes [i, i+n) of the range. *)
let iter_chunks t addr len access f =
  let i = ref 0 in
  while !i < len do
    let a = addr + !i in
    let off = a land (page_size - 1) in
    let n = min (page_size - off) (len - !i) in
    f (lookup_raw t a access) off !i n;
    i := !i + n
  done

let read_into_raw t addr dst dst_off len =
  iter_chunks t addr len `Read (fun p off i n -> Bytes.blit p.bytes off dst (dst_off + i) n)

let write_from_raw t addr src src_off len =
  iter_chunks t addr len `Write (fun p off i n -> Bytes.blit src (src_off + i) (own p) off n)

let read_bytes_raw t addr len =
  let out = Bytes.create len in
  read_into_raw t addr out 0 len;
  out

let write_bytes_raw t addr b = write_from_raw t addr b 0 (Bytes.length b)

(* Word accesses that stay within one page read/write the page buffer
   directly; straddles fall back byte-by-byte (same per-byte fault
   addresses as before).  The int<->int64 conversions reproduce the
   byte-loop exactly on 63-bit ints: OCaml's [lsl]/[lsr] drop bit 63,
   so byte 7's top bit is stored as 0 and ignored on load. *)
let word_mask = 0x7fff_ffff_ffff_ffffL

let read_u64_raw t addr =
  let off = addr land (page_size - 1) in
  if off <= page_size - 8 then
    let p = lookup_raw t addr `Read in
    Int64.to_int (Bytes.get_int64_le p.bytes off)
  else
    let rec go i acc =
      if i = 8 then acc else go (i + 1) (acc lor (read_u8_raw t (addr + i) lsl (8 * i)))
    in
    go 0 0

let write_u64_raw t addr v =
  let off = addr land (page_size - 1) in
  if off <= page_size - 8 then
    let p = lookup_raw t addr `Write in
    Bytes.set_int64_le (own p) off (Int64.logand (Int64.of_int v) word_mask)
  else
    for i = 0 to 7 do
      write_u8_raw t (addr + i) ((v lsr (8 * i)) land 0xff)
    done

(* 4-aligned words never cross a page: one buffer access, modelling an
   architecturally atomic aligned 32-bit store (AArch64 patching). *)
let write_u32_raw t addr v =
  if addr land 3 <> 0 then
    for i = 0 to 3 do
      write_u8_raw t (addr + i) ((v lsr (8 * i)) land 0xff)
    done
  else
    let p = lookup_raw t addr `Write in
    Bytes.set_int32_le (own p) (addr land (page_size - 1)) (Int32.of_int v)

(* ------------------------------------------------------------------ *)
(* PKRU-checked (user-view) access                                     *)

let pkru_access_disabled pkru pkey = pkru land (1 lsl (2 * pkey)) <> 0
let pkru_write_disabled pkru pkey = pkru land (1 lsl ((2 * pkey) + 1)) <> 0

(* The TLB caches only the index->page binding; the permission check
   itself runs on every access against the page's current perm/pkey
   and the caller's PKRU (mprotect and pkey_mprotect mutate the page
   record in place, wrpkru changes the register — neither may be
   cached away). *)
let[@inline] lookup_r t ~pkru addr =
  let idx = addr lsr page_shift in
  let p =
    if t.tlb_r_idx = idx then t.tlb_r_pg
    else begin
      let p = Inttbl.find t.pages idx ~default:no_page in
      if p == no_page then raise (Fault { fault_addr = addr; access = `Read });
      t.tlb_r_idx <- idx;
      t.tlb_r_pg <- p;
      p
    end
  in
  if (not p.perm.r) || pkru_access_disabled pkru p.pkey then
    raise (Fault { fault_addr = addr; access = `Read });
  p

let[@inline] lookup_w t ~pkru addr =
  let idx = addr lsr page_shift in
  let p =
    if t.tlb_w_idx = idx then t.tlb_w_pg
    else begin
      let p = Inttbl.find t.pages idx ~default:no_page in
      if p == no_page then raise (Fault { fault_addr = addr; access = `Write });
      t.tlb_w_idx <- idx;
      t.tlb_w_pg <- p;
      p
    end
  in
  if (not p.perm.w) || pkru_access_disabled pkru p.pkey || pkru_write_disabled pkru p.pkey then
    raise (Fault { fault_addr = addr; access = `Write });
  p

let check_read t ~pkru addr = ignore (lookup_r t ~pkru addr : page)

let check_write t ~pkru addr = ignore (lookup_w t ~pkru addr : page)

(** Instruction fetch check: exec permission only — PKU does not apply
    to fetches (the XOM / P4a story).  Returns the page holding
    [addr]. *)
let exec_page t addr =
  let p = Inttbl.find t.pages (page_index addr) ~default:no_page in
  if p.perm.x then p else raise (Fault { fault_addr = addr; access = `Exec })

let check_exec t addr = ignore (exec_page t addr : page)

let page_sub p off len = Bytes.sub p.bytes off len

(* Whether [line] and [page] agree on the line's bytes from offset [i],
   [page] read from [off]: word compares, no allocation. *)
let rec same_bytes line page off i =
  i = Bytes.length line
  || Bytes.get_int64_ne line i = Bytes.get_int64_ne page (off + i)
     && same_bytes line page off (i + 8)

let page_equal_sub p off b = same_bytes b p.bytes off 0

let read_u8 t ~pkru addr =
  let p = lookup_r t ~pkru addr in
  Char.code (Bytes.get p.bytes (addr land (page_size - 1)))

let write_u8 t ~pkru addr v =
  let p = lookup_w t ~pkru addr in
  Bytes.set (own p) (addr land (page_size - 1)) (Char.chr (v land 0xff))

(* In-page words: one page lookup (usually a TLB hit) and one
   permission check cover all 8 bytes.  Page-straddling words keep the
   per-byte loop so the faulting byte's address is preserved. *)
let read_u64 t ~pkru addr =
  let off = addr land (page_size - 1) in
  if off <= page_size - 8 then
    let p = lookup_r t ~pkru addr in
    Int64.to_int (Bytes.get_int64_le p.bytes off)
  else begin
    for i = 0 to 7 do
      check_read t ~pkru (addr + i)
    done;
    read_u64_raw t addr
  end

let write_u64 t ~pkru addr v =
  let off = addr land (page_size - 1) in
  if off <= page_size - 8 then
    let p = lookup_w t ~pkru addr in
    Bytes.set_int64_le (own p) off (Int64.logand (Int64.of_int v) word_mask)
  else begin
    for i = 0 to 7 do
      check_write t ~pkru (addr + i)
    done;
    write_u64_raw t addr v
  end

let fetch_u8 t addr =
  check_exec t addr;
  read_u8_raw t addr

(* ------------------------------------------------------------------ *)

(** fork(): the child gets its own page records over the parent's
    buffers, and both sides' pages are marked copy-on-write, so the
    first store on either side copies that one page.  No buffer is
    copied here. *)
let clone t =
  let pages = Inttbl.create (Inttbl.length t.pages) in
  Inttbl.iter
    (fun idx p ->
      p.cow <- true;
      Inttbl.replace pages idx { p with cow = true })
    t.pages;
  {
    pages;
    committed_bytes = t.committed_bytes;
    reserved_bytes = t.reserved_bytes;
    tlb_r_idx = -1;
    tlb_r_pg = no_page;
    tlb_w_idx = -1;
    tlb_w_pg = no_page;
    tlb_raw_idx = -1;
    tlb_raw_pg = no_page;
  }

(** C-string helpers (argv/envp live in simulated memory so that a
    ptrace-based tracer can inspect and rewrite them). *)
let read_cstr ?(max = 4096) t addr =
  let buf = Buffer.create 32 in
  let rec go i =
    if i >= max then Buffer.contents buf
    else
      let c = read_u8_raw t (addr + i) in
      if c = 0 then Buffer.contents buf
      else begin
        Buffer.add_char buf (Char.chr c);
        go (i + 1)
      end
  in
  go 0

let write_cstr t addr s =
  write_bytes_raw t addr (Bytes.unsafe_of_string s);
  write_u8_raw t (addr + String.length s) 0
