(** In-memory virtual filesystem.

    Supports the subset of POSIX semantics the workloads and K23 need:
    hierarchical directories, regular files, unlink/rename/truncate,
    and an {e immutable} attribute.  K23 marks its offline-log
    directory immutable once the offline phase completes (Section 5.3);
    any later write, rename or unlink under an immutable directory
    fails with EPERM. *)

type node = Dir of dir | File of file

and dir = {
  entries : (string, node) Hashtbl.t;
  mutable dir_immutable : bool;
}

and file = {
  mutable buf : Bytes.t;
      (** capacity buffer; bytes [size, length buf) are always zero *)
  mutable size : int;  (** logical length, <= [Bytes.length buf] *)
  mutable file_immutable : bool;
}

type t = { root : dir }

type err = [ `Perm | `Noent | `Notdir | `Isdir | `Inval | `Fbig ]

let create () = { root = { entries = Hashtbl.create 16; dir_immutable = false } }

(* ------------------------------------------------------------------ *)
(* File contents: a logical size over a capacity buffer that doubles
   when it fills, so a run of appends costs amortized O(1) per byte.
   The buffer past [size] is kept zeroed, so growing the file (a write
   past EOF, an extending truncate) reads back zeros without filling. *)

(* The largest file, as a filesystem's [s_maxbytes]: far above any
   workload (sqlite's WAL peaks near 500 KiB), and small enough that a
   huge ftruncate or a write after a huge lseek cannot exhaust host
   memory. *)
let max_file_size = 64 * 1024 * 1024

let new_file buf ~immutable = { buf; size = Bytes.length buf; file_immutable = immutable }

(** A file that lives in no directory: /proc synthesised content, or
    the empty stand-in for an opened directory.  Immutable. *)
let pseudo_file content = new_file (Bytes.of_string content) ~immutable:true

let size f = f.size
let immutable f = f.file_immutable

(** Up to [len] bytes from [pos] (a fresh copy); empty at or past EOF. *)
let read_at f ~pos ~len =
  let n = max 0 (min len (f.size - pos)) in
  Bytes.sub f.buf (min pos f.size) n

(* Make room for [n] bytes without changing [size]. *)
let reserve f n =
  if n > Bytes.length f.buf then begin
    let b = Bytes.make (max n (2 * Bytes.length f.buf)) '\000' in
    Bytes.blit f.buf 0 b 0 f.size;
    f.buf <- b
  end

(** Write [b] at [pos], growing the file; a gap between EOF and [pos]
    reads back as zeros. *)
let write_at f ~pos b =
  let len = Bytes.length b in
  reserve f (pos + len);
  Bytes.blit b 0 f.buf pos len;
  f.size <- max f.size (pos + len)

(** Set the logical size to [len]: shrinking zeroes the cut tail (so a
    later extension never exposes old bytes), extending reads back
    zeros.  [Error `Inval] for a negative length and [Error `Fbig] past
    {!max_file_size}, as ftruncate(2). *)
let truncate f len =
  if len < 0 then Error `Inval
  else if len > max_file_size then Error `Fbig
  else begin
    if len < f.size then Bytes.fill f.buf len (f.size - len) '\000' else reserve f len;
    f.size <- len;
    Ok ()
  end

(** Empty the filesystem in place: equivalent to a fresh {!create}
    (immutable seals included — a reset world re-seals its own logs).
    Scratch-world reuse resets rather than reallocates. *)
let reset t =
  Hashtbl.reset t.root.entries;
  t.root.dir_immutable <- false

let split_path path =
  String.split_on_char '/' path |> List.filter (fun s -> s <> "" && s <> ".")

(** Resolve a path to a node. *)
let rec lookup_in dir = function
  | [] -> Some (Dir dir)
  | [ last ] -> Hashtbl.find_opt dir.entries last
  | comp :: rest -> (
    match Hashtbl.find_opt dir.entries comp with
    | Some (Dir d) -> lookup_in d rest
    | Some (File _) | None -> None)

let lookup t path = lookup_in t.root (split_path path)

let exists t path = Option.is_some (lookup t path)

let is_dir t path = match lookup t path with Some (Dir _) -> true | _ -> false

(** Find the parent directory of [path]; [Error `Noent] when an
    intermediate component is missing. *)
let parent_of t path =
  match List.rev (split_path path) with
  | [] -> Error `Inval
  | name :: rev_dirs -> (
    match lookup_in t.root (List.rev rev_dirs) with
    | Some (Dir d) -> Ok (d, name)
    | Some (File _) -> Error `Notdir
    | None -> Error `Noent)

(** Any immutable directory on the path makes mutation fail (a coarse
    but sufficient model of `chattr +i` on the log directory). *)
let path_immutable t path =
  let rec go dir = function
    | [] -> dir.dir_immutable
    | comp :: rest ->
      dir.dir_immutable
      ||
      (match Hashtbl.find_opt dir.entries comp with
      | Some (Dir d) -> go d rest
      | Some (File f) -> f.file_immutable
      | None -> false)
  in
  go t.root (split_path path)

let mkdir_p t path =
  let rec go dir = function
    | [] -> Ok dir
    | comp :: rest -> (
      match Hashtbl.find_opt dir.entries comp with
      | Some (Dir d) -> go d rest
      | Some (File _) -> Error `Notdir
      | None ->
        let d = { entries = Hashtbl.create 8; dir_immutable = false } in
        Hashtbl.replace dir.entries comp (Dir d);
        go d rest)
  in
  go t.root (split_path path)

(** Create (or truncate) a regular file. *)
let create_file t path =
  if path_immutable t path then Error `Perm
  else
    match parent_of t path with
    | Error _ as e -> e
    | Ok (dir, name) -> (
      match Hashtbl.find_opt dir.entries name with
      | Some (Dir _) -> Error `Isdir
      | Some (File f) ->
        if f.file_immutable then Error `Perm
        else begin
          f.buf <- Bytes.empty;
          f.size <- 0;
          Ok f
        end
      | None ->
        let f = new_file Bytes.empty ~immutable:false in
        Hashtbl.replace dir.entries name (File f);
        Ok f)

let open_file t path =
  match lookup t path with
  | Some (File f) -> Ok f
  | Some (Dir _) -> Error `Isdir
  | None -> Error `Noent

(** Convenience used by world setup and tests. *)
let write_file t path content =
  match mkdir_p t (Filename.dirname path) with
  | Error _ as e -> e
  | Ok _ -> (
    match create_file t path with
    | Error _ as e -> e
    | Ok f ->
      f.buf <- Bytes.of_string content;
      f.size <- String.length content;
      Ok f)

let read_file t path =
  match open_file t path with
  | Ok f -> Ok (Bytes.sub_string f.buf 0 f.size)
  | Error _ as e -> e

let unlink t path =
  if path_immutable t path then Error `Perm
  else
    match parent_of t path with
    | Error _ as e -> e
    | Ok (dir, name) ->
      if Hashtbl.mem dir.entries name then begin
        Hashtbl.remove dir.entries name;
        Ok ()
      end
      else Error `Noent

let rename t src dst =
  if path_immutable t src || path_immutable t dst then Error `Perm
  else
    match (parent_of t src, parent_of t dst) with
    | Ok (sdir, sname), Ok (ddir, dname) -> (
      match Hashtbl.find_opt sdir.entries sname with
      | None -> Error `Noent
      | Some node ->
        Hashtbl.remove sdir.entries sname;
        Hashtbl.replace ddir.entries dname node;
        Ok ())
    | (Error _ as e), _ -> e
    | _, (Error _ as e) -> e

let listdir t path =
  match lookup t path with
  | Some (Dir d) -> Ok (Hashtbl.fold (fun k _ acc -> k :: acc) d.entries [] |> List.sort compare)
  | Some (File _) -> Error `Notdir
  | None -> Error `Noent

(** Mark a directory (and implicitly everything below it) immutable —
    the paper's "we mark the log directory immutable once the offline
    phase completes". *)
let set_immutable t path v =
  match lookup t path with
  | Some (Dir d) ->
    d.dir_immutable <- v;
    Ok ()
  | Some (File f) ->
    f.file_immutable <- v;
    Ok ()
  | None -> Error `Noent

let err_to_errno (e : err) =
  match e with
  | `Perm -> Errno.eperm
  | `Noent -> Errno.enoent
  | `Notdir -> Errno.enotdir
  | `Isdir -> Errno.eisdir
  | `Inval -> Errno.einval
  | `Fbig -> Errno.efbig
