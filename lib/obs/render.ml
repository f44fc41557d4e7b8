(** Event renderers: the CLI's human-readable lines and a
    machine-readable JSON stream.

    [namer] maps syscall numbers to names (the kernel passes
    [Sysno.name]); the default prints raw numbers.

    JSON is emitted by hand (fixed key order, no dependency): every
    value is an int or an escaped string, so a seeded run renders to a
    byte-identical stream. *)

open Event

let default_namer nr = string_of_int nr

(* ------------------------------------------------------------------ *)
(* Human                                                               *)

let human_payload ?(namer = default_namer) ~pid ~tid payload =
  match payload with
  | Syscall_enter { nr; site; owner; args = _ } ->
    Printf.sprintf "[pid %d tid %d] %s(...) @%x (%s)" pid tid (namer nr) site owner
  | Syscall_exit { nr; ret } -> Printf.sprintf "[pid %d tid %d] %s -> %d" pid tid (namer nr) ret
  | Signal_deliver { signo; sysno; site } ->
    Printf.sprintf "[pid %d tid %d] signal %d (sysno %d) @%x" pid tid signo sysno site
  | Sigreturn { depth } -> Printf.sprintf "[pid %d tid %d] sigreturn (depth %d)" pid tid depth
  | Sud_toggle { armed; sel_addr; allow_lo; allow_hi } ->
    Printf.sprintf "[pid %d tid %d] sud %s sel=%x allow=[%x,%x)" pid tid
      (if armed then "arm" else "disarm")
      sel_addr allow_lo allow_hi
  | Sud_block { nr; site } ->
    Printf.sprintf "[pid %d tid %d] sud-block %s @%x" pid tid (namer nr) site
  | Seccomp { nr; verdict } ->
    Printf.sprintf "[pid %d tid %d] seccomp %s -> %s" pid tid (namer nr) verdict
  | Ptrace_stop { kind; nr } ->
    Printf.sprintf "[pid %d tid %d] ptrace-stop %s %s" pid tid (stop_kind_to_string kind)
      (namer nr)
  | Code_write { addr; len } -> Printf.sprintf "code-write @%x+%d" addr len
  | Fault { access = "ILL"; addr; rip = _ } -> Printf.sprintf "[pid %d] SIGILL at %x" pid addr
  | Fault { access; addr; rip } ->
    Printf.sprintf "[pid %d] fault %s @%x rip=%x" pid access addr rip
  | Exec { path } -> Printf.sprintf "[pid %d tid %d] exec %s" pid tid path
  | Vdso_call { sym } -> Printf.sprintf "[pid %d tid %d] vdso %s" pid tid sym
  | Sched_switch { core } -> Printf.sprintf "[core %d] switch -> pid %d tid %d" core pid tid
  | Req_send { conn; req; sched } ->
    Printf.sprintf "[pid %d tid %d] req %d -> fd %d (sched %d)" pid tid req conn sched
  | Req_recv { conn; req } -> Printf.sprintf "[pid %d tid %d] req %d <- fd %d" pid tid req conn
  | Fault_injected { nr; site; kind } ->
    Printf.sprintf "[pid %d tid %d] fault-inject %s %s @%x" pid tid kind (namer nr) site
  | Syscall_restarted { nr; site } ->
    Printf.sprintf "[pid %d tid %d] restart %s @%x" pid tid (namer nr) site
  | Annot s -> Printf.sprintf "# %s" s

let human_event ?namer (e : t) =
  human_payload ?namer ~pid:e.ev_pid ~tid:e.ev_tid e.ev_payload

let human_stream ?namer events =
  String.concat "" (List.map (fun e -> human_event ?namer e ^ "\n") events)

(* ------------------------------------------------------------------ *)
(* JSON                                                                *)

let json_escape s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let kv_int k v = Printf.sprintf "%S:%d" k v
let kv_str k v = Printf.sprintf "%S:\"%s\"" k (json_escape v)
let kv_bool k v = Printf.sprintf "%S:%b" k v

let json_fields ?(namer = default_namer) payload =
  match payload with
  | Syscall_enter { nr; site; owner; args } ->
    [
      kv_int "nr" nr;
      kv_str "name" (namer nr);
      kv_int "site" site;
      kv_str "owner" owner;
      Printf.sprintf "\"args\":[%s]"
        (String.concat "," (Array.to_list (Array.map string_of_int args)));
    ]
  | Syscall_exit { nr; ret } -> [ kv_int "nr" nr; kv_str "name" (namer nr); kv_int "ret" ret ]
  | Signal_deliver { signo; sysno; site } ->
    [ kv_int "signo" signo; kv_int "sysno" sysno; kv_int "site" site ]
  | Sigreturn { depth } -> [ kv_int "depth" depth ]
  | Sud_toggle { armed; sel_addr; allow_lo; allow_hi } ->
    [ kv_bool "armed" armed; kv_int "sel" sel_addr; kv_int "lo" allow_lo; kv_int "hi" allow_hi ]
  | Sud_block { nr; site } -> [ kv_int "nr" nr; kv_str "name" (namer nr); kv_int "site" site ]
  | Seccomp { nr; verdict } -> [ kv_int "nr" nr; kv_str "verdict" verdict ]
  | Ptrace_stop { kind; nr } ->
    [ kv_str "stop" (stop_kind_to_string kind); kv_int "nr" nr; kv_str "name" (namer nr) ]
  | Code_write { addr; len } -> [ kv_int "addr" addr; kv_int "len" len ]
  | Fault { access; addr; rip } -> [ kv_str "access" access; kv_int "addr" addr; kv_int "rip" rip ]
  | Exec { path } -> [ kv_str "path" path ]
  | Vdso_call { sym } -> [ kv_str "sym" sym ]
  | Sched_switch { core } -> [ kv_int "core" core ]
  | Req_send { conn; req; sched } ->
    [ kv_int "conn" conn; kv_int "req" req; kv_int "sched" sched ]
  | Req_recv { conn; req } -> [ kv_int "conn" conn; kv_int "req" req ]
  | Fault_injected { nr; site; kind } ->
    [ kv_int "nr" nr; kv_str "name" (namer nr); kv_int "site" site; kv_str "kind" kind ]
  | Syscall_restarted { nr; site } ->
    [ kv_int "nr" nr; kv_str "name" (namer nr); kv_int "site" site ]
  | Annot s -> [ kv_str "text" s ]

let json_event ?namer (e : t) =
  String.concat ","
    ([ kv_str "ev" (kind e.ev_payload); kv_int "cycles" e.ev_cycles; kv_int "pid" e.ev_pid;
       kv_int "tid" e.ev_tid ]
    @ json_fields ?namer e.ev_payload)
  |> Printf.sprintf "{%s}"

let json_counters counters =
  counters
  |> List.map (fun (k, v) -> Printf.sprintf "    %S: %d" k v)
  |> String.concat ",\n"
  |> Printf.sprintf "{\n%s\n  }"

(** The full `k23 trace --json` document: events (oldest first), the
    drop count, and a sorted counter object. *)
let json_stream ?namer ?(counters = []) ~dropped events =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\n  \"events\": [\n";
  List.iteri
    (fun i e ->
      Buffer.add_string buf "    ";
      Buffer.add_string buf (json_event ?namer e);
      if i < List.length events - 1 then Buffer.add_char buf ',';
      Buffer.add_char buf '\n')
    events;
  Buffer.add_string buf (Printf.sprintf "  ],\n  \"dropped\": %d,\n  \"counters\": " dropped);
  Buffer.add_string buf (json_counters counters);
  Buffer.add_string buf "\n}\n";
  Buffer.contents buf
