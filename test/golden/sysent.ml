(* Prints one line per system call number: its name, whether the fault
   plane may draw a fault for it, whether that fault is the read/write
   class, and the kind of its result as the fuzz oracle normalises it.
   Covers every number in 0..1100 that has a name or a fact, plus -1,
   500 (the paper's non-existent call), max_int and min_int.  The
   listing is diffed against sysent.txt, so a fact that moves for any
   number fails `dune runtest`. *)

module Sysno = K23_kernel.Sysno

let faultable nr = Sysno.fault nr <> No_faults
let rw nr = Sysno.fault nr = Rw
let result nr = match Sysno.result nr with Plain -> "plain" | Addr -> "addr" | Fd -> "fd" | Pid -> "pid"

let line nr =
  Printf.printf "%d %s faultable=%b rw=%b result=%s\n" nr (Sysno.name nr) (faultable nr) (rw nr) (result nr)

let has_facts nr =
  Sysno.name nr <> Printf.sprintf "syscall_%d" nr || faultable nr || rw nr || result nr <> "plain"

let () =
  line (-1);
  for nr = 0 to 1100 do
    if has_facts nr || nr = 500 then line nr
  done;
  line max_int;
  line min_int
