(** Hex rendering of byte ranges, used by debugging output and by the
    disassembler's listing mode. *)

let byte_to_hex b = Printf.sprintf "%02x" (Char.code b)

let of_bytes ?(per_line = 16) bytes =
  let buf = Buffer.create (Bytes.length bytes * 4) in
  Bytes.iteri
    (fun i b ->
      if i > 0 then
        Buffer.add_char buf (if i mod per_line = 0 then '\n' else ' ');
      Buffer.add_string buf (byte_to_hex b))
    bytes;
  Buffer.contents buf
