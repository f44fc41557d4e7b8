(** ASC-Hook-style AArch64 rewriting interposition.

    The fixed-width twin of zpoline's transformation (Section 8's
    "other ISAs" discussion, made concrete): every word that encodes
    [svc] is overwritten with a single [b] to a per-site 16-byte
    trampoline slot

    {v
      slot+0   vcall asc_pre     ; handler entry (host escape)
      slot+4   svc  #0           ; the re-issued syscall
      slot+8   vcall asc_post    ; handler exit
      slot+12  b    site+4       ; statically-known return
    v}

    What the shape buys, structurally:
    - the patch is one aligned 32-bit store — architecturally atomic,
      so the torn-write pitfall (P5) cannot arise;
    - aligned 4-byte decode cannot desynchronise, so the sweep that
      discovers sites is exact over {e instructions} (no P2a overlook,
      no P3b partial-instruction gadgets);
    - entry is a plain [b], not [bl]: unlike an x86 [callq *%rax]
      rewrite there is no pushed return address and no clobbered link
      register, and [svc] itself clobbers nothing (x86's [syscall]
      trashes rcx/r11) — the trampoline is register-transparent, so no
      per-site register spill is needed.

    What it cannot buy: on AArch64 literal pools live in executable
    text, and to a fixed-width sweep a data word whose value aliases
    the [svc] encoding is indistinguishable from code.  Offline
    validation is exactly {!K23_isa_arm.Arm.raw_svc_pattern_sites} —
    the same predicate the patcher uses — so aliasing words {e will}
    be patched and the P3a residual is structural, not a bug.  The
    fuzzer's [Svc_alias] shape exercises precisely this.

    Slots must be [b]-reachable (±2^25 words) from the site; slabs are
    therefore allocated near the region they serve, mirroring
    ASC-Hook's near-code mmap hint.  Unreachable sites are left
    unpatched and counted. *)

open K23_isa
open K23_machine
open K23_kernel
open Kern
open Interpose
module Arm = K23_isa_arm.Arm

let lib_path = "/usr/lib/libasc.so"

let make_config ~handler ~stats =
  {
    cfg_name = "asc-hook";
    pre_cost = 30;  (* branch + host entry: no signal, no stack switch *)
    post_cost = 15;
    null_check = None;
    null_check_cost = 0;
    stack_switch = false;
    sud_selector = (fun _ -> None);
    handler;
    stats;
  }

let slot_len = 16
let b_range = 1 lsl 25 (* [b] reach in words, signed *)

(** Find a free, page-aligned range of [len] bytes near [near]:
    low-memory regions (the fixed-address main executable) get slabs
    from a low cursor so the app heap never grows into them; everything
    else rides the process mmap cursor, which already sits next to the
    libraries.  Mirrors mmap-with-hint placement. *)
let alloc_near (p : proc) ~near ~len =
  let len = Memory.align_up len in
  if near < 0x4000_0000 then begin
    let overlaps a =
      List.exists (fun r -> a < r.r_start + r.r_len && r.r_start < a + len) p.regions
    in
    let rec go a = if overlaps a then go (a + 0x10000) else a in
    go 0x0400_0000
  end
  else begin
    let base = Memory.align_up p.mmap_cursor in
    p.mmap_cursor <- base + len + 0x10000;
    base
  end

(** Build, map and wire one trampoline slab serving [sites] (addresses
    of svc-pattern words inside one region), then atomically patch each
    reachable site.  Returns the number of sites actually patched. *)
let install_slab (ctx : ctx) (cfg : config) ~region_name sites =
  let th = ctx.thread in
  let p = th.t_proc in
  let w = ctx.world in
  let n = List.length sites in
  let sites = Array.of_list sites in
  let base = alloc_near p ~near:sites.(0) ~len:(n * slot_len) in
  (* host side: recover the slot index from rip (asc_pre runs with rip
     just past the vcall at slot+0, i.e. at slot+4) *)
  let asc_pre ctx =
    let th = ctx.thread in
    let w = ctx.world in
    charge w th cfg.pre_cost;
    let slot = th.regs.rip - 4 in
    let idx = (slot - base) / slot_len in
    let site = sites.(idx) in
    let nr = Regs.geti th.regs (Isa.nr_index w.isa) in
    let args = syscall_args th in
    cfg.stats.via_rewrite <- cfg.stats.via_rewrite + 1;
    match cfg.handler ctx ~nr ~args ~site with
    | Forward -> () (* fall into the slot's svc: registers untouched *)
    | Emulate v ->
      Regs.set th.regs RAX v;
      th.regs.rip <- slot + 8
  in
  let asc_post ctx = charge ctx.world ctx.thread cfg.post_cost in
  let text = Bytes.create (n * slot_len) in
  Array.iteri
    (fun i site ->
      let slot = base + (i * slot_len) in
      let word off insn = Bytes.blit (Arm.bytes_of_word (Arm.encode insn)) 0 text ((i * slot_len) + off) 4 in
      word 0 (Arm.Vcall 0);
      word 4 (Arm.Svc 0);
      word 8 (Arm.Vcall 1);
      word 12 (Arm.B ((site + 4 - (slot + 12)) asr 2)))
    sites;
  let im =
    {
      im_name = Printf.sprintf "[asc-slab:%s]" region_name;
      im_prog =
        {
          Asm.text;
          data = Bytes.create 0;
          symbols = [];
          relocs = [];
          vcalls = [ "asc_pre"; "asc_post" ];
        };
      im_host_fns = [ ("asc_pre", asc_pre); ("asc_post", asc_post) ];
      im_init = None;
      im_entry = None;
      im_needed = [];
      im_owner = Trampoline;
    }
  in
  let len = Memory.align_up (Bytes.length text) in
  Memory.map p.mem ~addr:base ~len ~perm:Memory.perm_rx;
  Memory.write_bytes_raw p.mem base text;
  add_region p
    {
      r_start = base;
      r_len = len;
      r_perm = Memory.perm_rx;
      r_name = im.im_name;
      r_owner = Trampoline;
      r_image = Some im;
      r_sec = `Text;
    };
  charge w th 800;
  (* the patches themselves: one aligned store per site *)
  let patched = ref 0 in
  Array.iteri
    (fun i site ->
      let slot = base + (i * slot_len) in
      let rel = (slot - site) asr 2 in
      if rel >= b_range || rel < -b_range then
        ktrace_count w "asc.unreachable"
      else begin
        let saved = Memory.get_perm p.mem site in
        Memory.set_perm p.mem ~addr:site ~len:4 ~perm:Memory.perm_rwx;
        Memory.write_u32_raw p.mem site (Arm.encode (Arm.B rel));
        (match saved with
        | Some perm -> Memory.set_perm p.mem ~addr:site ~len:4 ~perm
        | None -> ());
        code_write_barrier w ~addr:site ~len:4;
        charge w th 400;
        incr patched
      end)
    sites;
  !patched

(** Patch every svc-pattern word of every scannable region.  Site
    discovery {e is} the offline validation: on a fixed-width ISA the
    exact sweep and the raw pattern scan agree by construction, so
    aliasing data words are patched too (the residual P3a). *)
let patch_all (ctx : ctx) (cfg : config) =
  let p = ctx.thread.t_proc in
  let w = ctx.world in
  List.iter
    (fun r ->
      let bytes = Memory.read_bytes_raw p.mem r.r_start r.r_len in
      match Arm.raw_svc_pattern_sites bytes ~base:r.r_start with
      | [] -> ()
      | sites ->
        let n = install_slab ctx cfg ~region_name:r.r_name sites in
        Kern.ktrace_count w "asc.patch";
        if w.trace then
          Printf.eprintf "[asc-hook] %s: %d/%d sites patched\n%!" r.r_name n (List.length sites))
    (scannable_regions p)

let image ~handler ~stats () : image =
  let module A = K23_isa_arm.Asm_arm in
  let cfg = make_config ~handler ~stats in
  let items = [ A.Label "__asc_init"; A.Vcall_named "asc_init"; A.I Arm.Ret ] in
  {
    im_name = lib_path;
    im_prog = A.assemble items;
    im_host_fns = [ ("asc_init", fun ctx -> patch_all ctx cfg) ];
    im_init = Some "__asc_init";
    im_entry = None;
    im_needed = [];
    im_owner = Interposer;
  }

let launch w ?inner ~path ?argv ?(env = []) () =
  ktrace_annot w "mech:asc-hook";
  let stats = fresh_stats () in
  let handler = counting_handler ?inner stats in
  register_library w (image ~handler ~stats ());
  let env = add_preload env lib_path in
  match World.spawn w ~path ?argv ~env () with
  | Ok p -> Ok (p, stats)
  | Error e -> Error e
