(** E8 / P4b: memory cost of the NULL-execution-check state.

    zpoline's bitmap spans the whole 2^48-byte virtual address space
    (one bit per address); K23 keeps a Robin-Hood hash set bounded by
    the offline logs; lazypoline keeps nothing (and checks nothing). *)

open K23_userland
module Apps = K23_apps
module Zp = K23_baselines.Zpoline
module K23 = K23_core.K23

type entry = {
  system : string;
  reserved_bytes : int;
  resident_bytes : int;
  note : string;
}

(* ls run to completion under [mech], as one session *)
let run_ls mech =
  let w = Sim.create_world () in
  Apps.Coreutils.register_all w;
  match Session.run w ~mech ~path:(Apps.Coreutils.path "ls") with
  | Error e -> failwith (string_of_int e)
  | Ok (p, _, _) -> p

let run () =
  let zp =
    let reserved, resident = Zp.check_memory_bytes (run_ls Mech.Zpoline_ultra) in
    { system = "zpoline-ultra"; reserved_bytes = reserved; resident_bytes = resident;
      note = "bitmap over the whole address space" }
  in
  let lp =
    ignore (run_ls Mech.Lazypoline);
    { system = "lazypoline"; reserved_bytes = 0; resident_bytes = 0;
      note = "no state, but also no check (P4a unhandled)" }
  in
  let k23 =
    let b = K23.check_memory_bytes (run_ls Mech.K23_ultra) in
    { system = "K23-ultra"; reserved_bytes = b; resident_bytes = b;
      note = "Robin-Hood hash set bounded by the offline logs" }
  in
  [ zp; lp; k23 ]

let render entries =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Printf.sprintf "%-14s %18s %16s  %s\n" "System" "reserved (B)" "resident (B)" "");
  List.iter
    (fun e ->
      Buffer.add_string buf
        (Printf.sprintf "%-14s %18d %16d  %s\n" e.system e.reserved_bytes e.resident_bytes e.note))
    entries;
  Buffer.contents buf
