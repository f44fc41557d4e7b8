(** The text format every saved artifact shares: corpus repros
    ([K23_fuzz.Corpus]) and recordings ([K23_replay.Recording]).

    A file is a header of [key: value] lines, the value being everything
    after the first [':'] and one space; then a [---] separator; then
    one record per body line, never trimmed.
    Blank lines and lines starting with [#] are comments, header keys a
    reader does not know are skipped (so older readers accept newer
    files), and strings that may hold newlines or arbitrary bytes are
    written with {!escape}.  Every parser in this format raises only
    {!Parse_error}. *)

exception Parse_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Parse_error s)) fmt

(** OCaml string-literal escapes: printable ASCII other than the double
    quote and the backslash is kept as is, so plain values read as
    they were written. *)
let escape = String.escaped

(** The total inverse of {!escape}. *)
let unescape s =
  try Scanf.unescaped s
  with Scanf.Scan_failure _ | Failure _ | End_of_file -> fail "bad escaped string: %S" s

let int what s = match int_of_string_opt s with Some n -> n | None -> fail "bad %s: %S" what s

(** The member of [all] that [to_string] prints as [s]. *)
let enum what to_string all s =
  match List.find_opt (fun x -> to_string x = s) all with
  | Some x -> x
  | None -> fail "unknown %s: %S" what s

(** Lift a value parser that answers [None] on malformed input. *)
let value what of_string s = match of_string s with Some x -> x | None -> fail "bad %s: %S" what s

type fields = (string * string) list

(** [head] is the file's first line (a [#] comment naming the format). *)
let render ~head (fields : fields) body =
  let b = Buffer.create 4096 in
  let line s =
    Buffer.add_string b s;
    Buffer.add_char b '\n'
  in
  line head;
  List.iter (fun (k, v) -> line (k ^ ": " ^ v)) fields;
  line "---";
  List.iter line body;
  Buffer.contents b

let is_comment l =
  let l = String.trim l in
  l = "" || l.[0] = '#'

(** The header fields in file order (a key may repeat) and the body
    lines, comments dropped. *)
let split s : fields * string list =
  let rec header acc = function
    | [] -> fail "missing --- separator"
    | l :: body when String.trim l = "---" ->
      (List.rev acc, List.filter (fun l -> not (is_comment l)) body)
    | l :: rest when is_comment l -> header acc rest
    | l :: rest -> (
      match String.index_opt l ':' with
      | None -> fail "bad header line: %S" l
      | Some i ->
        let v = String.sub l (i + 1) (String.length l - i - 1) in
        let v = if String.starts_with ~prefix:" " v then String.sub v 1 (String.length v - 1) else v in
        header ((String.sub l 0 i, v) :: acc) rest)
  in
  header [] (String.split_on_char '\n' s)

(** [get fields k parse default] parses the first [k] field, or is
    [default] when there is none. *)
let get (fields : fields) k parse default =
  match List.assoc_opt k fields with Some v -> parse v | None -> default

let require (fields : fields) k parse =
  match List.assoc_opt k fields with Some v -> parse v | None -> fail "missing %s: header" k
