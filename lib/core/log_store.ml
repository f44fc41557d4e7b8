(** Offline-phase log files.

    One log per program, stored under [/k23/logs].  Each line records
    one unique syscall site as ["region,offset"] — the format shown in
    the paper's Figure 3:

    {v /usr/lib/x86_64-linux-gnu/libc.so.6,1153562 v}

    Offsets are region-relative, so they survive ASLR (Section 5.1).
    Once the offline phase completes, [seal] marks the directory
    immutable for the lifetime of the installation (Section 5.3). *)

open K23_kernel

let dir = "/k23/logs"

let path_for ~app = Printf.sprintf "%s/%s.log" dir (Filename.basename app)

type entry = { region : string; offset : int }

let entry_to_line e = Printf.sprintf "%s,%d" e.region e.offset

let entry_of_line line =
  match String.rindex_opt line ',' with
  | None -> None
  | Some i ->
    let region = String.sub line 0 i in
    let off = String.sub line (i + 1) (String.length line - i - 1) in
    Option.map (fun offset -> { region; offset }) (int_of_string_opt off)

(** Read the log for [app]; missing log = empty (K23 then relies
    entirely on the SUD fallback). *)
let read w ~app =
  match Vfs.read_file w.Kern.vfs (path_for ~app) with
  | Error _ -> []
  | Ok content ->
    String.split_on_char '\n' content |> List.filter_map entry_of_line

(** Overwrite the log for [app] with [entries] (deduplicated, sorted
    for stable output). *)
let write w ~app entries =
  let uniq = List.sort_uniq compare entries in
  let content = String.concat "\n" (List.map entry_to_line uniq) ^ "\n" in
  match Vfs.write_file w.Kern.vfs (path_for ~app) content with
  | Ok _ -> ()
  | Error e ->
    Kern.panic "log_store: cannot write %s: %s" (path_for ~app)
      (Errno.to_string (Vfs.err_to_errno e))

(** Merge new entries into an existing log (multiple offline runs with
    different inputs improve coverage; Section 5.1). *)
let append w ~app entries = write w ~app (entries @ read w ~app)

(** Mark the log directory immutable — writes under it now fail with
    EPERM, closing the log-tampering attack surface (Section 5.3). *)
let seal w =
  match Vfs.set_immutable w.Kern.vfs dir true with
  | Ok () -> ()
  | Error _ ->
    ignore (Vfs.mkdir_p w.Kern.vfs dir);
    ignore (Vfs.set_immutable w.Kern.vfs dir true)

let sealed w = Vfs.path_immutable w.Kern.vfs (dir ^ "/x")
