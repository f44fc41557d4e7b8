(** Bechamel measurements of the simulator's own hot paths.

    Not a paper artifact, but the perf trajectory every table depends
    on (billions of simulated steps per full run).  Lives in the eval
    library — rather than the bench executable — so the test suite can
    run a fast smoke invocation ([run ~quota:0.02 ~limit:20]) and so
    [bench/main.exe simperf --json] stays a thin wrapper.  The JSON
    layout matches BENCH_simperf.json, which tracks the numbers across
    PRs (see EXPERIMENTS.md). *)

open Bechamel
open Toolkit
open K23_machine

type t = {
  ns_per_op : (string * float) list;  (** in declaration order *)
  steps_per_run : int;
  steps_per_sec : float;
}

let prog =
  K23_isa.Encode.assemble
    [ Mov_ri (RAX, 500); Syscall; Mov_rr (RDI, RSI); Add_ri (RSP, 8); Ret ]

(* Fixed fetch-decode-execute workload: a register/branch-heavy loop
   (no data memory traffic), so the measurement is dominated by the
   fetch+decode dispatch path that [Cpu.step] takes per instruction. *)
let loop_insns : K23_isa.Insn.t list =
  [
    Mov_ri (RCX, 32);
    (* loop body: 24 bytes, jcc jumps back to its start *)
    Mov_rr (RAX, RCX);
    Add_rr (RAX, RCX);
    Sub_ri (RAX, 1);
    Cmp_ri (RCX, 0);
    Sub_ri (RCX, 1);
    Jcc (NZ, -24);
    Hlt;
  ]

(* Same shape with a load/store pair in the body: exercises the
   [Memory] word-access path (page lookup + permission checks). *)
let mem_loop_insns : K23_isa.Insn.t list =
  [
    Mov_ri (RCX, 32);
    Mov_ri (RBX, 0x8000);
    (* loop body: 3+7+7+4+4+6 = 31 bytes *)
    Mov_rr (RAX, RCX);
    Store (RBX, 0, RAX);
    Load (RAX, RBX, 0);
    Cmp_ri (RCX, 0);
    Sub_ri (RCX, 1);
    Jcc (NZ, -31);
    Hlt;
  ]

let make_step_loop insns =
  let mem = Memory.create () in
  Memory.map mem ~addr:0x1000 ~len:4096 ~perm:Memory.perm_rx;
  Memory.map mem ~addr:0x8000 ~len:4096 ~perm:Memory.perm_rw;
  Memory.write_bytes_raw mem 0x1000 (K23_isa.Encode.assemble insns);
  let regs = Regs.create () in
  let ic = Icache.create () in
  let run () =
    regs.rip <- 0x1000;
    Regs.set regs RSP 0x8800;
    let steps = ref 0 in
    let continue = ref true in
    while !continue do
      incr steps;
      match Cpu.step regs mem ic with
      | Cpu.Stepped _ -> ()
      | Cpu.Trapped _ -> continue := false
    done;
    !steps
  in
  run

(** [quota] is the per-test time budget in seconds; [limit] the max
    sample count.  Bench uses the defaults; the test-suite smoke run
    shrinks both. *)
let run ?(quota = 0.5) ?(limit = 500) () =
  let set = K23_core.Robin_set.of_list (List.init 64 (fun i -> 0x400000 + (i * 16))) in
  let step_loop = make_step_loop loop_insns in
  let step_loop_mem = make_step_loop mem_loop_insns in
  let steps_per_run = step_loop () in
  let mem_u64 =
    let mem = Memory.create () in
    Memory.map mem ~addr:0x8000 ~len:8192 ~perm:Memory.perm_rw;
    mem
  in
  let tests =
    [
      Test.make ~name:"isa.decode" (Staged.stage (fun () -> K23_isa.Decode.decode_bytes prog 0));
      Test.make ~name:"isa.linear-sweep"
        (Staged.stage (fun () -> K23_isa.Disasm.find_syscall_sites prog ~base:0));
      Test.make ~name:"robin_set.mem"
        (Staged.stage (fun () -> K23_core.Robin_set.mem set 0x400080));
      Test.make ~name:"cpu.step-loop" (Staged.stage (fun () -> ignore (step_loop ())));
      Test.make ~name:"cpu.step-loop-mem" (Staged.stage (fun () -> ignore (step_loop_mem ())));
      Test.make ~name:"mem.read_u64"
        (Staged.stage (fun () -> Memory.read_u64 mem_u64 ~pkru:0 0x8100));
      Test.make ~name:"mem.write_u64"
        (Staged.stage (fun () -> Memory.write_u64 mem_u64 ~pkru:0 0x8100 0xdeadbeef));
    ]
  in
  let cfg = Benchmark.cfg ~limit ~quota:(Time.second quota) () in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |] in
  let estimates = ref [] in
  List.iter
    (fun t ->
      let results = Benchmark.all cfg Instance.[ monotonic_clock ] t in
      Hashtbl.iter
        (fun name raw ->
          match Analyze.OLS.estimates (Analyze.one ols Instance.monotonic_clock raw) with
          | Some (est :: _) -> estimates := (name, est) :: !estimates
          | Some [] | None -> estimates := (name, nan) :: !estimates)
        results)
    tests;
  let ns_per_op = List.rev !estimates in
  let steps_per_sec =
    match List.assoc_opt "cpu.step-loop" ns_per_op with
    | Some ns when ns > 0. -> float_of_int steps_per_run *. 1e9 /. ns
    | _ -> 0.
  in
  { ns_per_op; steps_per_run; steps_per_sec }

let render r =
  let buf = Buffer.create 256 in
  List.iter
    (fun (name, est) ->
      if Float.is_nan est then Buffer.add_string buf (Printf.sprintf "%-24s (no estimate)\n" name)
      else Buffer.add_string buf (Printf.sprintf "%-24s %12.1f ns/op\n" name est))
    r.ns_per_op;
  Buffer.add_string buf
    (Printf.sprintf "%-24s %12.0f steps/sec (%d-step workload)\n" "cpu.step-loop"
       r.steps_per_sec r.steps_per_run);
  Buffer.contents buf

let render_json r =
  let rows = List.filter (fun (_, est) -> not (Float.is_nan est)) r.ns_per_op in
  Printf.sprintf
    "{\n  \"experiment\": \"simperf\",\n  \"ns_per_op\": {\n%s  },\n\
    \  \"step_loop\": { \"steps_per_run\": %d, \"steps_per_sec\": %.0f }\n}\n"
    (String.concat ""
       (List.mapi
          (fun i (name, est) ->
            Printf.sprintf "    %S: %.1f%s\n" name est
              (if i = List.length rows - 1 then "" else ","))
          rows))
    r.steps_per_run r.steps_per_sec
