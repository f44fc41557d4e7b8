(** Table 2 (unique syscall instructions logged during the offline
    phase) and Figure 3 (the log file generated for ls). *)

open K23_kernel
open K23_userland
module K23 = K23_core.K23
module Apps = K23_apps

type entry = { app : string; sites : int; expected : int }

let coreutil_expected = Apps.Coreutils.expected_sites

(** Offline phase for one coreutil. *)
let coreutil_sites name =
  let w = Sim.create_world () in
  Apps.Coreutils.register_all w;
  let path = Apps.Coreutils.path name in
  List.length (K23.offline_run w ~path ())

(** Offline phase for one server/database spec: the recipe whose logs
    Table 6's K23 columns load. *)
let app_spec_sites spec =
  let w = Sim.create_world () in
  let path, port = Macro.register_workload w spec in
  Macro.offline_spec w spec ~path ~port;
  List.length (K23_core.Log_store.read w ~app:path)

(** Table 2's server rows, in the paper's order. *)
let server_specs =
  [
    ("sqlite", Macro.sqlite);
    ("nginx", Macro.nginx ~workers:1 ~kb:0);
    ("lighttpd", Macro.lighttpd ~workers:1 ~kb:0);
    ("redis", Macro.redis ~io_threads:1);
  ]

(** The paper's Table 2 (expected column from the paper). *)
let paper_counts = coreutil_expected @ [ ("sqlite", 20); ("nginx", 43); ("lighttpd", 44); ("redis", 92) ]

let table2 () =
  List.map
    (fun (app, expected) ->
      let sites =
        match List.assoc_opt app server_specs with
        | Some spec -> app_spec_sites spec
        | None -> coreutil_sites app
      in
      { app; sites; expected })
    paper_counts

let render_table2 entries =
  let buf = Buffer.create 512 in
  Buffer.add_string buf (Printf.sprintf "%-10s %14s %14s\n" "Application" "#Instructions" "(paper)");
  List.iter
    (fun { app; sites; expected } ->
      Buffer.add_string buf (Printf.sprintf "%-10s %14d %14d\n" app sites expected))
    entries;
  Buffer.contents buf

(** Figure 3: the offline log generated for ls. *)
let fig3 () =
  let w = Sim.create_world () in
  Apps.Coreutils.register_all w;
  ignore (K23.offline_run w ~path:(Apps.Coreutils.path "ls") ());
  match Vfs.read_file w.Kern.vfs (K23_core.Log_store.path_for ~app:"/bin/ls") with
  | Ok content -> content
  | Error _ -> "(no log)"
