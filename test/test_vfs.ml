(* File contents behind the Vfs accessors: the logical size over a
   doubling capacity buffer, and file-syscall edge cases that must
   return a result (0 or an errno), never raise out of the kernel. *)

open K23_kernel
open K23_machine

(* ---------------- syscalls from a bare process ---------------- *)

(* A process to make syscalls from, with user memory at [scratch]: the
   path at [scratch], I/O buffers from [buf]. *)
let scratch = 0x7000_0000
let buf = scratch + 0x100

type env = { p : Kern.proc; sys : int -> int list -> int }

let setup () =
  let w = K23_userland.Sim.create_world () in
  let p = Kern.new_proc w ~parent:None ~cmd:"t" in
  let th = Kern.new_thread w p in
  Memory.map p.mem ~addr:scratch ~len:(4 * Memory.page_size) ~perm:Memory.perm_rw;
  let sys nr args =
    let args = Array.of_list (args @ List.init (6 - List.length args) (fun _ -> 0)) in
    Syscalls.dispatch { Kern.world = w; thread = th } ~nr ~args
  in
  { p; sys }

let o_creat_rdwr = 0x42
let seek_set = 0
let seek_cur = 1
let seek_end = 2

let open_file e path =
  Memory.write_cstr e.p.mem scratch path;
  let fd = e.sys Sysno.open_ [ scratch; o_creat_rdwr ] in
  if fd < 0 then Alcotest.failf "open %s: %d" path fd;
  fd

let write e fd s =
  Memory.write_bytes_raw e.p.mem buf (Bytes.of_string s);
  e.sys Sysno.write [ fd; buf; String.length s ]

(* read(2) into [buf]: the return value and the bytes it delivered *)
let read e fd n =
  let r = e.sys Sysno.read [ fd; buf; n ] in
  (r, if r > 0 then Bytes.to_string (Memory.read_bytes_raw e.p.mem buf r) else "")

let read_all e fd =
  Alcotest.(check int) "rewind" 0 (e.sys Sysno.lseek [ fd; 0; seek_set ]);
  snd (read e fd 8192)

let zeros n = String.make n '\000'

(* ---------------- regressions ---------------- *)

(* Seeking past EOF is legal; the read there must return 0, as on
   Linux, not raise out of the kernel. *)
let test_read_past_eof () =
  let e = setup () in
  let fd = open_file e "/tmp/f" in
  Alcotest.(check int) "write" 5 (write e fd "hello");
  Alcotest.(check int) "seek past EOF" 100 (e.sys Sysno.lseek [ fd; 100; seek_set ]);
  Alcotest.(check (pair int string)) "read at EOF+95" (0, "") (read e fd 10);
  Alcotest.(check int) "position unchanged" 100 (e.sys Sysno.lseek [ fd; 0; 1 ])

let test_ftruncate_negative () =
  let e = setup () in
  let fd = open_file e "/tmp/f" in
  ignore (write e fd "hello");
  Alcotest.(check int) "ftruncate(fd, -1)" (Errno.ret Errno.einval)
    (e.sys Sysno.ftruncate [ fd; -1 ]);
  Alcotest.(check string) "contents kept" "hello" (read_all e fd)

(* ---------------- the file-size limit ---------------- *)

(* 2^58: without a limit, ftruncate or a write after the lseek would
   ask the host for that many bytes *)
let huge = 1 lsl 58

let test_ftruncate_huge_is_efbig () =
  let e = setup () in
  let fd = open_file e "/tmp/f" in
  ignore (write e fd "hello");
  Alcotest.(check int) "ftruncate(fd, 2^58)" (Errno.ret Errno.efbig) (e.sys Sysno.ftruncate [ fd; huge ]);
  Alcotest.(check int) "size kept" 5 (e.sys Sysno.lseek [ fd; 0; seek_end ]);
  Alcotest.(check string) "contents kept" "hello" (read_all e fd)

let test_lseek_huge_is_einval () =
  let e = setup () in
  let fd = open_file e "/tmp/f" in
  ignore (write e fd "hello");
  Alcotest.(check int) "lseek(fd, 2^58)" (Errno.ret Errno.einval) (e.sys Sysno.lseek [ fd; huge; seek_set ]);
  Alcotest.(check int) "position kept" 5 (e.sys Sysno.lseek [ fd; 0; seek_cur ]);
  Alcotest.(check int) "write at the kept position" 1 (write e fd "!");
  Alcotest.(check int) "size" 6 (e.sys Sysno.lseek [ fd; 0; seek_end ]);
  Alcotest.(check string) "contents" "hello!" (read_all e fd)

(* A write starting at the limit is -EFBIG and moves nothing; one
   crossing it is cut at it. *)
let test_write_at_the_limit () =
  let e = setup () in
  let fd = open_file e "/tmp/f" in
  ignore (write e fd "hello");
  let limit = 64 * 1024 * 1024 (* Vfs.max_file_size *) in
  Alcotest.(check int) "lseek to the limit" limit (e.sys Sysno.lseek [ fd; limit; seek_set ]);
  Alcotest.(check int) "write at the limit" (Errno.ret Errno.efbig) (write e fd "x");
  Alcotest.(check int) "position kept" limit (e.sys Sysno.lseek [ fd; 0; seek_cur ]);
  Alcotest.(check int) "size kept" 5 (e.sys Sysno.lseek [ fd; 0; seek_end ]);
  Alcotest.(check string) "contents kept" "hello" (read_all e fd);
  ignore (e.sys Sysno.lseek [ fd; limit - 2; seek_set ]);
  Alcotest.(check int) "write cut at the limit" 2 (write e fd "xyz");
  Alcotest.(check int) "size at the limit" limit (e.sys Sysno.lseek [ fd; 0; seek_end ]);
  ignore (e.sys Sysno.lseek [ fd; limit - 2; seek_set ]);
  Alcotest.(check (pair int string)) "the cut write's bytes" (2, "xy") (read e fd 10)

(* ---------------- the size/capacity split ---------------- *)

let test_appends_across_doublings () =
  let e = setup () in
  let fd = open_file e "/tmp/wal" in
  let model = Buffer.create 4096 in
  for i = 0 to 59 do
    let chunk = String.init (1 + (i * 7 mod 61)) (fun j -> Char.chr (65 + ((i + j) mod 26))) in
    Alcotest.(check int) "append" (String.length chunk) (write e fd chunk);
    Buffer.add_string model chunk
  done;
  Alcotest.(check int) "SEEK_END = bytes written" (Buffer.length model)
    (e.sys Sysno.lseek [ fd; 0; seek_end ]);
  Alcotest.(check string) "contents" (Buffer.contents model) (read_all e fd)

let test_write_past_eof_zero_fills () =
  let e = setup () in
  let fd = open_file e "/tmp/f" in
  ignore (write e fd "abc");
  ignore (e.sys Sysno.lseek [ fd; 10; seek_set ]);
  ignore (write e fd "xyz");
  Alcotest.(check string) "gap reads back as zeros" ("abc" ^ zeros 7 ^ "xyz") (read_all e fd)

(* The capacity buffer outlives a shrinking truncate: the cut bytes
   must never come back when the file grows again. *)
let test_truncate_then_extend () =
  let e = setup () in
  let fd = open_file e "/tmp/f" in
  ignore (write e fd "abcdefgh");
  Alcotest.(check int) "shrink" 0 (e.sys Sysno.ftruncate [ fd; 2 ]);
  Alcotest.(check int) "extend" 0 (e.sys Sysno.ftruncate [ fd; 8 ]);
  Alcotest.(check string) "extended by truncate" ("ab" ^ zeros 6) (read_all e fd);
  ignore (e.sys Sysno.ftruncate [ fd; 1 ]);
  ignore (e.sys Sysno.lseek [ fd; 6; seek_set ]);
  ignore (write e fd "Z");
  Alcotest.(check string) "extended by a write past EOF" ("a" ^ zeros 5 ^ "Z") (read_all e fd)

let test_fstat_and_seek_end_logical_size () =
  let e = setup () in
  let fd = open_file e "/tmp/f" in
  (* 5 bytes, then 1 more: the buffer doubles to 10, the file is 6 *)
  ignore (write e fd "hello");
  ignore (write e fd "!");
  Alcotest.(check int) "fstat" 0 (e.sys Sysno.fstat [ fd; buf ]);
  Alcotest.(check int) "st_size" 6 (Memory.read_u64_raw e.p.mem buf);
  Alcotest.(check int) "lseek(SEEK_END)" 6 (e.sys Sysno.lseek [ fd; 0; seek_end ]);
  Alcotest.(check int) "lseek(SEEK_END, -2)" 4 (e.sys Sysno.lseek [ fd; -2; seek_end ])

(* K23 seals its offline logs (§5.3).  open(O_WRONLY|O_TRUNC) without
   O_CREAT must refuse a sealed log, as write and ftruncate do, and
   leave its bytes intact. *)
let test_sealed_log_refuses_o_trunc () =
  let e = setup () in
  let path = "/k23/logs/ls.log" in
  let fd = open_file e path in
  ignore (write e fd "sealed");
  ignore (e.sys Sysno.close [ fd ]);
  let vfs = e.p.Kern.w.Kern.vfs in
  Alcotest.(check bool) "seal" true (Vfs.set_immutable vfs "/k23/logs" true = Ok ());
  Memory.write_cstr e.p.mem scratch path;
  let o_wronly_trunc = 0x201 in
  Alcotest.(check int) "open(O_WRONLY|O_TRUNC)" (Errno.ret Errno.eperm)
    (e.sys Sysno.open_ [ scratch; o_wronly_trunc ]);
  Alcotest.(check bool) "bytes intact" true (Vfs.read_file vfs path = Ok "sealed")

(* Random writes and truncates against a string model: contents and
   size always agree, whatever the capacity buffer holds. *)
let prop_file_model =
  let op =
    QCheck.Gen.(
      oneof
        [
          map2 (fun pos len -> `Write (pos, len)) (int_range 0 300) (int_range 0 200);
          map (fun len -> `Truncate len) (int_range 0 400);
        ])
  in
  let print ops =
    String.concat "; "
      (List.map
         (function
           | `Write (p, l) -> Printf.sprintf "write %d+%d" p l
           | `Truncate l -> Printf.sprintf "truncate %d" l)
         ops)
  in
  QCheck.Test.make ~name:"vfs: writes/truncates match a string model" ~count:300
    (QCheck.make ~print QCheck.Gen.(list_size (int_range 0 30) op))
    (fun ops ->
      let v = Vfs.create () in
      let f = match Vfs.create_file v "/f" with Ok f -> f | Error _ -> assert false in
      let model = ref "" in
      List.iteri
        (fun i op ->
          match op with
          | `Write (pos, len) ->
            let data = String.init len (fun j -> Char.chr (1 + ((i * 17 + j) mod 255))) in
            Vfs.write_at f ~pos (Bytes.of_string data);
            let m = !model in
            let n = max (String.length m) (pos + len) in
            model :=
              String.init n (fun k ->
                  if k >= pos && k < pos + len then data.[k - pos]
                  else if k < String.length m then m.[k]
                  else '\000')
          | `Truncate len ->
            assert (Vfs.truncate f len = Ok ());
            let m = !model in
            model := String.init len (fun k -> if k < String.length m then m.[k] else '\000'))
        ops;
      Vfs.size f = String.length !model
      && Bytes.to_string (Vfs.read_at f ~pos:0 ~len:max_int) = !model
      && Vfs.read_file v "/f" = Ok !model)

let tests =
  ( "vfs",
    [
      Alcotest.test_case "read after lseek past EOF returns 0" `Quick test_read_past_eof;
      Alcotest.test_case "ftruncate(fd, -1) is -EINVAL" `Quick test_ftruncate_negative;
      Alcotest.test_case "ftruncate(fd, 2^58) is -EFBIG" `Quick test_ftruncate_huge_is_efbig;
      Alcotest.test_case "lseek(fd, 2^58) is -EINVAL" `Quick test_lseek_huge_is_einval;
      Alcotest.test_case "writes stop at the file-size limit" `Quick test_write_at_the_limit;
      Alcotest.test_case "appends across capacity doublings" `Quick test_appends_across_doublings;
      Alcotest.test_case "write past EOF zero-fills the gap" `Quick test_write_past_eof_zero_fills;
      Alcotest.test_case "truncate shorter, then extend: zeros" `Quick test_truncate_then_extend;
      Alcotest.test_case "fstat / lseek(SEEK_END) report the logical size" `Quick
        test_fstat_and_seek_end_logical_size;
      Alcotest.test_case "O_TRUNC on a sealed log is -EPERM" `Quick test_sealed_log_refuses_o_trunc;
      QCheck_alcotest.to_alcotest prop_file_model;
    ] )
