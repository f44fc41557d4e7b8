(* Kernel-layer tests: VFS, network queues, syscalls, scheduler,
   tracer plumbing, SUD semantics. *)

open K23_kernel
open K23_userland
open K23_isa

(* ---------------- vfs ---------------- *)

let test_vfs_files () =
  let v = Vfs.create () in
  (match Vfs.write_file v "/a/b/c.txt" "hello" with Ok _ -> () | Error _ -> Alcotest.fail "write");
  Alcotest.(check bool) "exists" true (Vfs.exists v "/a/b/c.txt");
  (match Vfs.read_file v "/a/b/c.txt" with
  | Ok s -> Alcotest.(check string) "content" "hello" s
  | Error _ -> Alcotest.fail "read");
  (match Vfs.rename v "/a/b/c.txt" "/a/d.txt" with Ok () -> () | Error _ -> Alcotest.fail "rename");
  Alcotest.(check bool) "old gone" false (Vfs.exists v "/a/b/c.txt");
  (match Vfs.unlink v "/a/d.txt" with Ok () -> () | Error _ -> Alcotest.fail "unlink");
  Alcotest.(check bool) "unlinked" false (Vfs.exists v "/a/d.txt")

let test_vfs_immutable () =
  let v = Vfs.create () in
  ignore (Vfs.write_file v "/logs/app.log" "data");
  (match Vfs.set_immutable v "/logs" true with Ok () -> () | Error _ -> Alcotest.fail "seal");
  (match Vfs.write_file v "/logs/app.log" "evil" with
  | Error `Perm -> ()
  | _ -> Alcotest.fail "write through immutable dir must fail");
  (match Vfs.unlink v "/logs/app.log" with
  | Error `Perm -> ()
  | _ -> Alcotest.fail "unlink through immutable dir must fail");
  (match Vfs.rename v "/logs/app.log" "/tmp/x" with
  | Error `Perm -> ()
  | _ -> Alcotest.fail "rename out of immutable dir must fail")

let test_vfs_listdir () =
  let v = Vfs.create () in
  ignore (Vfs.write_file v "/d/a" "1");
  ignore (Vfs.write_file v "/d/b" "2");
  match Vfs.listdir v "/d" with
  | Ok l -> Alcotest.(check (list string)) "entries" [ "a"; "b" ] l
  | Error _ -> Alcotest.fail "listdir"

(* ---------------- net ---------------- *)

(* [Byteq] with plain byte buffers on the far side of its blits *)
let byteq_push q b = Net.Byteq.fill q (Bytes.length b) (fun i ring off k -> Bytes.blit b i ring off k)

let byteq_pop q max =
  let out = Bytes.create (min max (Net.Byteq.length q)) in
  ignore (Net.Byteq.drain q max (fun i ring off k -> Bytes.blit ring off out i k) : int);
  out

exception Blit_fault

(* A blit that moves only the first half of an [n]-byte run, then
   raises, as a guest copy does at an unmapped page. *)
let halfway n copy i ring off k =
  copy i ring off (max 0 (min k ((n / 2) - i)));
  if i + k > n / 2 then raise Blit_fault

let byteq_push_faulting q n =
  try Net.Byteq.fill q n (halfway n (fun _ ring off k -> Bytes.fill ring off k '!'))
  with Blit_fault -> ()

let byteq_pop_faulting q max =
  let n = min max (Net.Byteq.length q) in
  let out = Bytes.create n in
  try ignore (Net.Byteq.drain q max (halfway n (fun i ring off k -> Bytes.blit ring off out i k)) : int)
  with Blit_fault -> ()

let test_byteq_framing () =
  let q = Net.Byteq.create () in
  byteq_push q (Bytes.make 64 'a');
  byteq_push q (Bytes.make 64 'b');
  let first = byteq_pop q 64 in
  Alcotest.(check int) "frame size" 64 (Bytes.length first);
  Alcotest.(check char) "first frame" 'a' (Bytes.get first 0);
  let second = byteq_pop q 200 in
  Alcotest.(check int) "drains rest" 64 (Bytes.length second);
  Alcotest.(check char) "second frame" 'b' (Bytes.get second 0)

let test_byteq_partial_pop () =
  let q = Net.Byteq.create () in
  byteq_push q (Bytes.of_string "abcdef");
  Alcotest.(check string) "first 3" "abc" (Bytes.to_string (byteq_pop q 3));
  Alcotest.(check string) "rest" "def" (Bytes.to_string (byteq_pop q 100));
  Alcotest.(check int) "empty" 0 (Net.Byteq.length q)

(* Random pushes and pops against a string model.  Chunks of up to 200
   bytes and pops of up to 150 run past the ring's 64-byte starting
   capacity, so runs wrap and the ring grows while wrapped.  A push
   whose blit raises halfway queues nothing; a pop whose blit raises
   halfway has still consumed [min max length] bytes. *)
let prop_byteq =
  let op =
    QCheck.Gen.(
      frequency
        [
          (4, map (fun s -> `Push s) (string_size (int_range 0 200)));
          (4, map (fun n -> `Pop n) (int_range 0 150));
          (1, map (fun n -> `Push_faulting n) (int_range 1 200));
          (1, map (fun n -> `Pop_faulting n) (int_range 0 150));
        ])
  in
  QCheck.Test.make ~name:"byteq preserves byte order" ~count:300
    (QCheck.make QCheck.Gen.(list_size (int_range 0 80) op))
    (fun ops ->
      let q = Net.Byteq.create () in
      let model = ref "" in
      let drop k = model := String.sub !model k (String.length !model - k) in
      List.for_all
        (fun op ->
          (match op with
          | `Push s ->
            byteq_push q (Bytes.of_string s);
            model := !model ^ s;
            true
          | `Pop n ->
            let k = min n (String.length !model) in
            let ok = Bytes.to_string (byteq_pop q n) = String.sub !model 0 k in
            drop k;
            ok
          | `Push_faulting n ->
            byteq_push_faulting q n;
            true
          | `Pop_faulting n ->
            byteq_pop_faulting q n;
            drop (min n (String.length !model));
            true)
          && Net.Byteq.length q = String.length !model)
        ops
      && Bytes.to_string (byteq_pop q max_int) = !model)

let test_listener_backlog () =
  let n = Net.create () in
  (match Net.listen n 80 with Ok _ -> () | Error _ -> Alcotest.fail "listen");
  (match Net.listen n 80 with Error `Addrinuse -> () | _ -> Alcotest.fail "EADDRINUSE");
  (match Net.connect n 81 with Error `Refused -> () | _ -> Alcotest.fail "refused");
  match Net.connect n 80 with
  | Error `Refused -> Alcotest.fail "connect"
  | Ok c ->
    let l = Hashtbl.find n.listeners 80 in
    (match Net.accept l with
    | Some c' -> Alcotest.(check int) "same conn" c.conn_id c'.conn_id
    | None -> Alcotest.fail "accept");
    Alcotest.(check bool) "backlog drained" true (Net.accept l = None)

(* the two-list backlog against a Queue.t model: random interleavings
   of connect/accept must agree on order, depth, and contents *)
let prop_backlog_fifo =
  QCheck.Test.make ~name:"listener backlog is FIFO (Queue model)" ~count:300
    QCheck.(list bool)
    (fun ops ->
      let n = Net.create () in
      (match Net.listen n 7 with Ok _ -> () | Error _ -> assert false);
      let l = Hashtbl.find n.listeners 7 in
      let model : int Queue.t = Queue.create () in
      List.for_all
        (fun is_connect ->
          if is_connect then (
            match Net.connect n 7 with
            | Ok c ->
              Queue.add c.Net.conn_id model;
              Net.backlog_length l = Queue.length model
            | Error `Refused -> false)
          else
            match (Net.accept l, Queue.take_opt model) with
            | None, None -> true
            | Some c, Some id ->
              c.Net.conn_id = id && Net.backlog_length l = Queue.length model
            | _ -> false)
        ops)

(* ---------------- syscalls via boot ---------------- *)

let run_app items =
  let w = Sim.create_world () in
  ignore (Sim.register_app w ~path:"/bin/t" items);
  let p = Sim.run_to_exit w ~path:"/bin/t" () in
  (w, p)

let test_pipe_syscall () =
  (* pipe, write into it, read back, exit with the byte read *)
  let items =
    [
      Asm.Label "main";
      Asm.Mov_sym (Reg.RDI, "fds");
      Asm.Call_sym "pipe";
      Asm.Mov_sym (Reg.R9, "fds");
      Asm.I (Insn.Load (R14, R9, 0));  (* read fd *)
      Asm.I (Insn.Load (R13, R9, 8));  (* write fd *)
      Asm.I (Insn.Mov_rr (RDI, R13));
      Asm.Mov_sym (Reg.RSI, "payload");
      Asm.I (Insn.Mov_ri (RDX, 1));
      Asm.Call_sym "write";
      Asm.I (Insn.Mov_rr (RDI, R14));
      Asm.Mov_sym (Reg.RSI, "buf");
      Asm.I (Insn.Mov_ri (RDX, 1));
      Asm.Call_sym "read";
      Asm.Mov_sym (Reg.R9, "buf");
      Asm.I (Insn.Load8 (RDI, R9, 0));
      Asm.Call_sym "exit";
      Asm.Section `Data;
      Asm.Label "fds";
      Asm.Zeros 16;
      Asm.Label "payload";
      Asm.Strz "*";
      Asm.Label "buf";
      Asm.Zeros 8;
    ]
  in
  let _, p = run_app items in
  Alcotest.(check (option int)) "read byte back" (Some (Char.code '*')) p.exit_status

(* Pipe I/O against a guest buffer straddling the end of the app's
   one-page data section into the unmapped page after it.  A faulting
   read returns -EFAULT, stores the mapped prefix and still consumes
   what it popped; a faulting write returns -EFAULT and queues nothing.
   A final one-byte write and read show what the pipe still holds. *)
let test_pipe_fault () =
  let call fn ~fd ~buf ~len slot =
    [
      Asm.I (Insn.Mov_rr (RDI, fd));
      Asm.Mov_sym (Reg.RSI, buf);
      Asm.I (Insn.Mov_ri (RDX, len));
      Asm.Call_sym fn;
      Asm.Mov_sym (Reg.R9, "res");
      Asm.I (Insn.Store (R9, 8 * slot, RAX));
    ]
  in
  let items =
    [
      Asm.Label "main";
      Asm.Mov_sym (Reg.RDI, "fds");
      Asm.Call_sym "pipe";
      Asm.Mov_sym (Reg.R9, "fds");
      Asm.I (Insn.Load (R14, R9, 0));  (* read fd *)
      Asm.I (Insn.Load (R13, R9, 8));  (* write fd *)
    ]
    @ call "write" ~fd:R13 ~buf:"payload" ~len:16 0
    @ call "read" ~fd:R14 ~buf:"edge" ~len:16 1
    @ call "write" ~fd:R13 ~buf:"edge" ~len:16 2
    @ call "write" ~fd:R13 ~buf:"zed" ~len:1 3
    @ call "read" ~fd:R14 ~buf:"buf2" ~len:16 4
    @ [
        Asm.I (Insn.Xor_rr (RDI, RDI));
        Asm.Call_sym "exit";
        Asm.Section `Data;
        Asm.Label "fds";
        Asm.Zeros 16;
        Asm.Label "res";
        Asm.Zeros 40;
        Asm.Label "payload";
        Asm.Strz "ABCDEFGHIJKLMNOP";
        Asm.Label "zed";
        Asm.Strz "Z";
        Asm.Label "buf2";
        Asm.Zeros 16;
        Asm.Zeros (4096 - 91 - 8);
        Asm.Label "edge";
        Asm.Zeros 8;
      ]
  in
  let _, p = run_app items in
  let module M = K23_machine.Memory in
  let sym s = Option.get (Mapper.lookup_sym p s) in
  let edge = sym "edge" in
  Alcotest.(check bool) "edge ends its page" true (M.is_mapped p.mem edge && not (M.is_mapped p.mem (edge + 8)));
  Alcotest.(check (option int)) "exit" (Some 0) p.exit_status;
  let res i = M.read_u64_raw p.mem (sym "res" + (8 * i)) in
  Alcotest.(check (list int)) "returns" [ 16; -Errno.efault; -Errno.efault; 1; 1 ] (List.init 5 res);
  Alcotest.(check string) "mapped prefix stored" "ABCDEFGH" (Bytes.to_string (M.read_bytes_raw p.mem edge 8));
  Alcotest.(check char) "only the later byte left" 'Z' (Char.chr (M.read_u8_raw p.mem (sym "buf2")))

let test_brk_and_heap () =
  (* malloc via libc host allocator, store + load through the pointer *)
  let items =
    [
      Asm.Label "main";
      Asm.I (Insn.Mov_ri (RDI, 64));
      Asm.Call_sym "malloc";
      Asm.I (Insn.Mov_rr (R14, RAX));
      Asm.I (Insn.Mov_ri (RAX, 123));
      Asm.I (Insn.Store (R14, 0, RAX));
      Asm.I (Insn.Load (RDI, R14, 0));
      Asm.Call_sym "exit";
    ]
  in
  let _, p = run_app items in
  Alcotest.(check (option int)) "heap roundtrip" (Some 123) p.exit_status

let test_proc_maps_readable () =
  (* the app reads its own /proc/self/maps — the interface libLogger
     uses *)
  let items =
    [
      Asm.Label "main";
      Asm.I (Insn.Mov_ri (RDI, -100));
      Asm.Mov_sym (Reg.RSI, "mapsp");
      Asm.I (Insn.Mov_ri (RDX, 0));
      Asm.Call_sym "openat";
      Asm.I (Insn.Mov_rr (R14, RAX));
      Asm.I (Insn.Mov_rr (RDI, R14));
      Asm.Mov_sym (Reg.RSI, "buf");
      Asm.I (Insn.Mov_ri (RDX, 3000));
      Asm.Call_sym "read";
      Asm.I (Insn.Mov_rr (RDI, RAX));  (* exit status = bytes read > 0 *)
      Asm.I (Insn.Cmp_ri (RDI, 0));
      Asm.Jc (Insn.GT, "ok");
      Asm.I (Insn.Mov_ri (RDI, 1));
      Asm.Call_sym "exit";
      Asm.Label "ok";
      Asm.I (Insn.Xor_rr (RDI, RDI));
      Asm.Call_sym "exit";
      Asm.Section `Data;
      Asm.Label "mapsp";
      Asm.Strz "/proc/self/maps";
      Asm.Label "buf";
      Asm.Zeros 4096;
    ]
  in
  let _, p = run_app items in
  Alcotest.(check (option int)) "read maps" (Some 0) p.exit_status

(* ---------------- SUD semantics ---------------- *)

let test_sud_selector_and_allowlist () =
  let w = Sim.create_world () in
  ignore (Sim.register_app w ~path:"/bin/t" [ Asm.Label "main"; Asm.I (Insn.Xor_rr (RDI, RDI)); Asm.Call_sym "exit" ]);
  let p = Sim.run_to_exit w ~path:"/bin/t" () in
  let th = List.hd p.threads in
  (* craft SUD state manually against the dead process image *)
  K23_machine.Memory.map p.mem ~addr:0x6000_0000 ~len:4096 ~perm:K23_machine.Memory.perm_rw;
  th.sud <- Some { sel_addr = 0x6000_0000; allow_lo = 0x7000; allow_hi = 0x8000 };
  K23_machine.Memory.write_u8_raw p.mem (Kern.selector_slot th 0x6000_0000) 1;
  Alcotest.(check bool) "blocks outside allowlist" true (Kern.sud_blocks th ~site:0x1000);
  Alcotest.(check bool) "bypasses inside allowlist" false (Kern.sud_blocks th ~site:0x7800);
  K23_machine.Memory.write_u8_raw p.mem (Kern.selector_slot th 0x6000_0000) 0;
  Alcotest.(check bool) "selector ALLOW passes" false (Kern.sud_blocks th ~site:0x1000)

(* ---------------- raw programs under ktrace ---------------- *)

module Event = K23_obs.Event

(* the app's own calls of a traced run, in order: number, arguments,
   result *)
let app_calls events =
  let entered = Hashtbl.create 4 in
  List.filter_map
    (fun ev ->
      match ev.Event.ev_payload with
      | Event.Syscall_enter { nr; owner; args; _ } ->
        Hashtbl.replace entered ev.Event.ev_tid (nr, owner, args);
        None
      | Event.Syscall_exit { nr; ret } -> (
        match Hashtbl.find_opt entered ev.Event.ev_tid with
        | Some (n, "app", args) when n = nr -> Some (nr, args, ret)
        | _ -> None)
      | _ -> None)
    events

let run_raw ?(isa = Isa.X86_64) items =
  let cfg = { K23_fuzz.Oracle.default_world_cfg with World.Config.isa } in
  match K23_fuzz.Oracle.run_raw ~cfg ~mech:K23_eval.Mech.Native items with
  | Error e -> Alcotest.failf "launch error %d" e
  | Ok (p, _, { K23_eval.Session.events; _ }) -> (p, events)

(* Numbers with no table slot, issued from rax on x86 and x8 on arm64:
   each returns -ENOSYS, traces as syscall_<n>, and the program goes
   on to exit 0. *)
let test_out_of_range_nrs () =
  let wild = [ -1; 1026; 4096; max_int; min_int ] in
  let prog kit =
    (Asm.Label "main" :: List.concat_map (fun nr -> K23_fuzz.Gen.syscall kit nr []) wild)
    @ K23_fuzz.Gen.syscall kit Sysno.exit_group [ 0 ]
  in
  List.iter
    (fun (isa, items) ->
      let p, events = run_raw ~isa items in
      let name = Isa.to_string isa in
      Alcotest.(check (option int)) (name ^ ": exits 0") (Some 0) p.Kern.exit_status;
      let exits =
        List.filter_map
          (fun ev ->
            match ev.Event.ev_payload with
            | Event.Syscall_exit { nr; _ } when List.mem nr wild ->
              Some (nr, K23_obs.Render.human_event ~namer:Sysno.name ev)
            | _ -> None)
          events
      in
      Alcotest.(check (list int)) (name ^ ": each number traced once") wild (List.map fst exits);
      List.iter
        (fun (nr, line) ->
          let want = Printf.sprintf "syscall_%d -> %d" nr (-Errno.enosys) in
          if not (String.ends_with ~suffix:want line) then
            Alcotest.failf "%s: %S does not end in %S" name line want)
        exits)
    [ (Isa.X86_64, K23_fuzz.Gen.X86 (prog K23_fuzz.Gen.x86)); (Arm64, K23_fuzz.Gen.A64 (prog K23_fuzz.Gen.arm)) ]

(* ---------------- kill's signal argument ---------------- *)

(* kill(self, 0) only probes, a signal outside 1..64 is refused, and
   SIGKILL and SIGSTOP take no handler: a handler run by kill(self, 9)
   would exit 3. *)
let test_kill_validates_signal () =
  let mov r v = Asm.I (Insn.Mov_ri (r, v)) in
  let sys nr = [ mov RAX nr; Asm.I Insn.Syscall ] in
  let sigaction signo = [ mov RDI signo; Asm.Mov_sym (Reg.RSI, "handler") ] @ sys Sysno.rt_sigaction in
  let kill signo = [ Asm.I (Insn.Mov_rr (RDI, R12)); mov RSI signo ] @ sys Sysno.kill in
  let items =
    (Asm.Label "main" :: sigaction 9)
    @ sigaction 19
    @ sys Sysno.getpid
    @ [ Asm.I (Insn.Mov_rr (R12, RAX)) ]
    @ kill 0 @ kill (-5) @ kill 65
    @ [ mov RDI 99999; mov RSI 0 ] @ sys Sysno.kill
    @ kill 9
    @ [ mov RDI 0 ] @ sys Sysno.exit_group
    @ [ Asm.Label "handler"; mov RDI 3 ] @ sys Sysno.exit_group
  in
  let p, events = run_raw (K23_fuzz.Gen.X86 items) in
  Alcotest.(check (option int)) "killed by SIGKILL" (Some 9) p.Kern.term_signal;
  Alcotest.(check (option int)) "no exit status" None p.Kern.exit_status;
  let einval = -Errno.einval in
  Alcotest.(check (list (pair string int)))
    "results"
    [
      ("rt_sigaction", einval); ("rt_sigaction", einval); ("getpid", p.Kern.pid); ("kill", 0);
      ("kill", einval); ("kill", einval); ("kill", -Errno.esrch); ("kill", 0);
    ]
    (List.map (fun (nr, _, ret) -> (Sysno.name nr, ret)) (app_calls events))

(* ---------------- mprotect of no pages ---------------- *)

(* mprotect and pkey_mprotect with length 0 change nothing and return
   0, as on Linux, and a negative length, a size past the end of the
   address space to Linux, is ENOMEM: the store after them lands, the
   page stays rw- with key 0, and /proc/PID/maps still shows it
   writable. *)
let test_mprotect_no_pages () =
  let mov r v = Asm.I (Insn.Mov_ri (r, v)) in
  let sys nr = [ mov RAX nr; Asm.I Insn.Syscall ] in
  let on_page len = [ Asm.I (Insn.Mov_rr (RDI, R12)); mov RSI len; mov RDX 0 ] in
  let items =
    [ Asm.Label "main"; mov RDI 0; mov RSI 4096; mov RDX 3; mov R10 0x22; mov R8 (-1); mov R9 0 ]
    @ sys Sysno.mmap
    @ [ Asm.I (Insn.Mov_rr (R12, RAX)) ]
    @ on_page 0 @ sys Sysno.mprotect
    @ on_page 0 @ [ mov R10 1 ] @ sys Sysno.pkey_mprotect
    @ on_page (-4096) @ sys Sysno.mprotect
    @ [ mov RAX 7; Asm.I (Insn.Store (R12, 0, RAX)); mov RDI 0 ]
    @ sys Sysno.exit_group
  in
  let p, events = run_raw (K23_fuzz.Gen.X86 items) in
  Alcotest.(check (option int)) "no signal" None p.Kern.term_signal;
  Alcotest.(check (option int)) "exits 0" (Some 0) p.Kern.exit_status;
  let page, rest =
    match List.map (fun (nr, _, ret) -> (Sysno.name nr, ret)) (app_calls events) with
    | ("mmap", page) :: rest -> (page, rest)
    | _ -> Alcotest.fail "no mmap"
  in
  Alcotest.(check (list (pair string int)))
    "results"
    [ ("mprotect", 0); ("pkey_mprotect", 0); ("mprotect", -Errno.enomem) ]
    (List.filter (fun (name, _) -> name <> "exit_group") rest);
  Alcotest.(check (option string)) "page perm" (Some "rw-")
    (Option.map K23_machine.Memory.perm_to_string (K23_machine.Memory.get_perm p.Kern.mem page));
  Alcotest.(check (option int)) "page key" (Some 0) (K23_machine.Memory.get_pkey p.Kern.mem page);
  Alcotest.(check (option bool)) "maps: region still writable" (Some true)
    (Option.map (fun r -> r.Kern.r_perm.K23_machine.Memory.w) (Kern.find_region p page))

(* ---------------- fork copies the fd and handler tables ---------------- *)

(* A forked child gets its own descriptor and signal-handler tables:
   its close and SIGSYS handler stay out of the parent's, and the
   parent's later close and handler stay out of the child's. *)
let test_fork_tables_independent () =
  let mov r v = Asm.I (Insn.Mov_ri (r, v)) in
  let sys nr = [ mov RAX nr; Asm.I Insn.Syscall ] in
  let close fd = mov RDI fd :: sys Sysno.close in
  let sigaction signo = [ mov RDI signo; Asm.Mov_sym (Reg.RSI, "handler") ] @ sys Sysno.rt_sigaction in
  let exit0 = mov RDI 0 :: sys Sysno.exit_group in
  let items =
    (Asm.Label "main" :: sys Sysno.fork)
    @ [ Asm.I (Insn.Test_rr (RAX, RAX)); Asm.Jc (Insn.Z, "child") ]
    @ [ mov RDI (-1); mov RSI 0; mov RDX 0; mov R10 0 ]
    @ sys Sysno.wait4 @ close 0 @ sigaction 10 @ exit0
    @ (Asm.Label "child" :: close 2)
    @ sigaction Kern.sigsys @ exit0
    @ (Asm.Label "handler" :: exit0)
  in
  let p, _ = run_raw (K23_fuzz.Gen.X86 items) in
  let child =
    match p.Kern.children with [ c ] -> c | l -> Alcotest.failf "%d children" (List.length l)
  in
  let keys t = List.sort compare (K23_machine.Inttbl.fold (fun k _ acc -> k :: acc) t []) in
  Alcotest.(check (option int)) "parent exits 0" (Some 0) p.Kern.exit_status;
  Alcotest.(check (option int)) "child exits 0" (Some 0) child.Kern.exit_status;
  Alcotest.(check (list int)) "parent fds" [ 1; 2 ] (keys p.Kern.fds);
  Alcotest.(check (list int)) "parent handlers" [ 10 ] (keys p.Kern.sig_handlers);
  Alcotest.(check (list int)) "child fds" [ 0; 1 ] (keys child.Kern.fds);
  Alcotest.(check (list int)) "child handlers" [ Kern.sigsys ] (keys child.Kern.sig_handlers)

(* ---------------- region memo ---------------- *)

(* The memoised [find_region] answers with the very region a scan of
   [p.regions] finds, across random adds and removes (overlaps
   allowed), a second process sharing the list as fork leaves it, and
   exec's reset to the empty list.  Lookups repeat addresses, so the
   memo serves hits between changes. *)
let prop_find_region_memo =
  let open QCheck.Gen in
  let addr = int_range 0 2300 in
  let op =
    frequency
      [
        (3, map2 (fun s l -> `Add (s, l)) (map (fun s -> 50 * s) (int_range 0 40)) (int_range 1 300));
        (1, map (fun s -> `Remove (50 * s)) (int_range 0 40));
        (1, return `Fork);
        (1, return `Exec);
        (8, map (fun a -> `Lookup a) addr);
      ]
  in
  QCheck.Test.make ~name:"find_region memo == scan of p.regions" ~count:300
    (QCheck.make (list_size (int_range 0 120) (pair bool op)))
    (fun ops ->
      let w = Sim.create_world () in
      let p = Kern.new_proc w ~parent:None ~cmd:"p" and q = Kern.new_proc w ~parent:None ~cmd:"q" in
      List.for_all
        (fun (first, op) ->
          let t, other = if first then (p, q) else (q, p) in
          match op with
          | `Add (s, l) ->
            Kern.add_region t
              {
                Kern.r_start = s;
                r_len = l;
                r_perm = K23_machine.Memory.perm_rx;
                r_name = "r";
                r_owner = Kern.Anon;
                r_image = None;
                r_sec = `Other;
              };
            true
          | `Remove s ->
            Kern.remove_region t ~start:s;
            true
          | `Fork ->
            other.regions <- t.regions;
            true
          | `Exec ->
            t.regions <- [];
            true
          | `Lookup a -> (
            let scan =
              List.find_opt (fun r -> a >= r.Kern.r_start && a < r.r_start + r.r_len) t.regions
            in
            match (Kern.find_region t a, scan) with
            | None, None -> true
            | Some r, Some r' -> r == r'
            | _ -> false))
        ops)

(* ---------------- stats helpers ---------------- *)

let test_stats_drop_outliers () =
  let open K23_util.Stats in
  Alcotest.(check (list (float 0.001))) "drops min and max" [ 2.0; 3.0 ]
    (drop_outliers [ 3.0; 1.0; 2.0; 9.0 ]);
  Alcotest.(check (float 0.0001)) "geomean" 2.0 (geomean [ 1.0; 4.0 ]);
  Alcotest.(check (float 0.0001)) "mean" 2.0 (mean [ 1.0; 2.0; 3.0 ])

let tests =
  ( "kernel",
    [
      Alcotest.test_case "vfs files" `Quick test_vfs_files;
      Alcotest.test_case "vfs immutable (log sealing)" `Quick test_vfs_immutable;
      Alcotest.test_case "vfs listdir" `Quick test_vfs_listdir;
      Alcotest.test_case "byteq framing" `Quick test_byteq_framing;
      Alcotest.test_case "byteq partial pop" `Quick test_byteq_partial_pop;
      QCheck_alcotest.to_alcotest prop_byteq;
      Alcotest.test_case "listener backlog" `Quick test_listener_backlog;
      QCheck_alcotest.to_alcotest prop_backlog_fifo;
      Alcotest.test_case "pipe syscalls" `Quick test_pipe_syscall;
      Alcotest.test_case "pipe I/O faults" `Quick test_pipe_fault;
      Alcotest.test_case "heap allocation" `Quick test_brk_and_heap;
      Alcotest.test_case "/proc/self/maps" `Quick test_proc_maps_readable;
      Alcotest.test_case "SUD selector + allowlist" `Quick test_sud_selector_and_allowlist;
      Alcotest.test_case "out-of-range numbers are ENOSYS" `Quick test_out_of_range_nrs;
      Alcotest.test_case "kill validates its signal" `Quick test_kill_validates_signal;
      QCheck_alcotest.to_alcotest prop_find_region_memo;
      Alcotest.test_case "stats helpers" `Quick test_stats_drop_outliers;
      Alcotest.test_case "mprotect of length 0 or below changes nothing" `Quick
        test_mprotect_no_pages;
      Alcotest.test_case "fork copies the fd and handler tables" `Quick
        test_fork_tables_independent;
    ] )
