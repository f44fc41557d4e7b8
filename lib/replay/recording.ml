(** The recording: one run's nondeterministic inputs as an
    append-only log, with a text serialisation that round-trips.

    A recording is the complete ktrace event stream of a run (captured
    through an {e unbounded} sink, so nothing is ever dropped) plus
    the recipe needed to re-drive it: the app path and argv, the
    mechanism, and the full {!World.Config} — seed, cost model, fault
    plan included.  Because every source of nondeterminism in the
    simulator is owned by the config (ASLR draws, cost skew, fault
    dice all flow from [seed]/[faults]), the log doubles as both the
    replay input {e and} the oracle: the replayer re-drives a fresh
    world from the header and diffs the live stream against the body.

    The file is {!K23_util.Wire} text: the config's fields
    ({!World.Config.to_fields}) among the header lines, then one event
    per body line.  [to_string]/[of_string] are exact inverses, and the
    `events:` header pins the body length so a truncated file is a
    parse error, not a silently-short replay. *)

module Event = K23_obs.Event
module Mech = K23_eval.Mech
module Session = K23_eval.Session
module World = K23_kernel.World
module Wire = K23_util.Wire

type t = {
  rc_app : string;  (** registered path of the recorded program *)
  rc_argv : string list;  (** argv at launch; [] = mechanism default *)
  rc_mech : Mech.t;
  rc_cfg : World.Config.t;  (** the recipe; [ktrace] is always false
      (the recorder/replayer own the sink directly, unbounded) *)
  rc_root : int;  (** raw pid of the launched root process *)
  rc_console : string;  (** root console bytes at end of run *)
  rc_fates : (int * Session.fate) list;  (** raw pid -> fate, ascending *)
  rc_events : Event.t list;  (** the full ktrace stream, in order *)
}

(* ------------------------------------------------------------------ *)
(* Event line codec                                                    *)

(* One event per line: "<cycles> <pid> <tid> <tag> <fields...>".
   Fields are fixed-arity ints except for at most one trailing string
   per payload, written [Wire.escape] (newline-safe) and parsed as
   the remainder of the line — so strings containing spaces survive.
   [Syscall_enter] carries a length-prefixed argument vector before
   its trailing owner string. *)

let stop_kind_to_string = function Event.Entry -> "entry" | Event.Exit -> "exit"

let event_to_line (e : Event.t) =
  let b = Buffer.create 64 in
  let pr fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  pr "%d %d %d" e.Event.ev_cycles e.Event.ev_pid e.Event.ev_tid;
  (match e.Event.ev_payload with
  | Event.Syscall_enter { nr; site; owner; args } ->
    pr " enter %d %d %d" nr site (Array.length args);
    Array.iter (fun a -> pr " %d" a) args;
    pr " %s" (Wire.escape owner)
  | Event.Syscall_exit { nr; ret } -> pr " exit %d %d" nr ret
  | Event.Signal_deliver { signo; sysno; site } -> pr " signal %d %d %d" signo sysno site
  | Event.Sigreturn { depth } -> pr " sigreturn %d" depth
  | Event.Sud_toggle { armed; sel_addr; allow_lo; allow_hi } ->
    pr " sud_toggle %d %d %d %d" (Bool.to_int armed) sel_addr allow_lo allow_hi
  | Event.Sud_block { nr; site } -> pr " sud_block %d %d" nr site
  | Event.Seccomp { nr; verdict } -> pr " seccomp %d %s" nr (Wire.escape verdict)
  | Event.Ptrace_stop { kind; nr } -> pr " ptrace %s %d" (stop_kind_to_string kind) nr
  | Event.Code_write { addr; len } -> pr " code_write %d %d" addr len
  | Event.Fault { access; addr; rip } -> pr " fault %d %d %s" addr rip (Wire.escape access)
  | Event.Exec { path } -> pr " exec %s" (Wire.escape path)
  | Event.Vdso_call { sym } -> pr " vdso %s" (Wire.escape sym)
  | Event.Sched_switch { core } -> pr " sched %d" core
  | Event.Req_send { conn; req; sched } -> pr " req_send %d %d %d" conn req sched
  | Event.Req_recv { conn; req } -> pr " req_recv %d %d" conn req
  | Event.Fault_injected { nr; site; kind } ->
    pr " fault_inj %d %d %s" nr site (Wire.escape kind)
  | Event.Syscall_restarted { nr; site } -> pr " restart %d %d" nr site
  | Event.Annot s -> pr " annot %s" (Wire.escape s));
  Buffer.contents b

let event_of_line lineno line =
  let bad what = Wire.fail "event line %d: %s (%S)" lineno what line in
  let str toks = Wire.unescape (String.concat " " toks) in
  match String.split_on_char ' ' line with
  | cy :: pid :: tid :: tag :: rest ->
    let i = Wire.int in
    let payload =
      match (tag, rest) with
      | "enter", nr :: site :: argc :: rest ->
        let argc = i "argc" argc in
        let rec split n acc l =
          if n = 0 then (List.rev acc, l)
          else match l with x :: l' -> split (n - 1) (x :: acc) l' | [] -> bad "truncated enter"
        in
        let args, owner = split argc [] rest in
        Event.Syscall_enter
          {
            nr = i "nr" nr;
            site = i "site" site;
            owner = str owner;
            args = Array.of_list (List.map (i "arg") args);
          }
      | "exit", [ nr; ret ] -> Event.Syscall_exit { nr = i "nr" nr; ret = i "ret" ret }
      | "signal", [ signo; sysno; site ] ->
        Event.Signal_deliver { signo = i "signo" signo; sysno = i "sysno" sysno; site = i "site" site }
      | "sigreturn", [ depth ] -> Event.Sigreturn { depth = i "depth" depth }
      | "sud_toggle", [ armed; sel; lo; hi ] ->
        Event.Sud_toggle
          { armed = i "armed" armed <> 0; sel_addr = i "sel" sel; allow_lo = i "lo" lo; allow_hi = i "hi" hi }
      | "sud_block", [ nr; site ] -> Event.Sud_block { nr = i "nr" nr; site = i "site" site }
      | "seccomp", nr :: v -> Event.Seccomp { nr = i "nr" nr; verdict = str v }
      | "ptrace", [ kind; nr ] ->
        Event.Ptrace_stop
          { kind = Wire.enum "stop kind" stop_kind_to_string [ Event.Entry; Event.Exit ] kind; nr = i "nr" nr }
      | "code_write", [ addr; len ] -> Event.Code_write { addr = i "addr" addr; len = i "len" len }
      | "fault", addr :: rip :: access ->
        Event.Fault { addr = i "addr" addr; rip = i "rip" rip; access = str access }
      | "exec", path -> Event.Exec { path = str path }
      | "vdso", sym -> Event.Vdso_call { sym = str sym }
      | "sched", [ core ] -> Event.Sched_switch { core = i "core" core }
      | "req_send", [ conn; req; sched ] ->
        Event.Req_send { conn = i "conn" conn; req = i "req" req; sched = i "sched" sched }
      | "req_recv", [ conn; req ] -> Event.Req_recv { conn = i "conn" conn; req = i "req" req }
      | "fault_inj", nr :: site :: kind ->
        Event.Fault_injected { nr = i "nr" nr; site = i "site" site; kind = str kind }
      | "restart", [ nr; site ] -> Event.Syscall_restarted { nr = i "nr" nr; site = i "site" site }
      | "annot", s -> Event.Annot (str s)
      | _ -> bad ("unknown event tag " ^ tag)
    in
    {
      Event.ev_cycles = i "cycles" cy;
      ev_pid = i "pid" pid;
      ev_tid = i "tid" tid;
      ev_payload = payload;
    }
  | _ -> bad "malformed event line"

(* ------------------------------------------------------------------ *)
(* Files                                                               *)

let magic = "# k23 recording v1"

(* argv entries are space-separated tokens: escape embedded spaces as
   the decimal escape \032 ([Wire.escape] leaves spaces alone,
   [Wire.unescape] reverses either form) *)
let escape_token s = String.concat "\\032" (String.split_on_char ' ' (Wire.escape s))

let fate_of_string v =
  match String.split_on_char ' ' v with
  | [ pid; "exit"; n ] -> (Wire.int "pid" pid, Session.Exit (Wire.int "status" n))
  | [ pid; "killed"; n ] -> (Wire.int "pid" pid, Session.Killed (Wire.int "signal" n))
  | [ pid; "running" ] -> (Wire.int "pid" pid, Session.Running)
  | _ -> Wire.fail "bad fate line: %S" v

let to_string r =
  Wire.render ~head:magic
    ([ ("app", r.rc_app) ]
    @ (if r.rc_argv = [] then [] else [ ("argv", String.concat " " (List.map escape_token r.rc_argv)) ])
    @ [ ("mech", Mech.to_string r.rc_mech) ]
    @ World.Config.to_fields r.rc_cfg
    @ [ ("root", string_of_int r.rc_root); ("console", Wire.escape r.rc_console) ]
    @ List.map (fun (pid, f) -> ("fate", Printf.sprintf "%d %s" pid (Session.fate_to_string f))) r.rc_fates
    @ [ ("events", string_of_int (List.length r.rc_events)) ])
    (List.map event_to_line r.rc_events)

let of_string s =
  let first = match String.index_opt s '\n' with Some i -> String.sub s 0 i | None -> s in
  if first <> magic then
    if String.starts_with ~prefix:"# k23 recording" first then
      Wire.fail "unsupported recording version: %S" first
    else Wire.fail "not a k23 recording (missing %S header)" magic;
  let fields, body = Wire.split s in
  let events = List.mapi (fun i l -> event_of_line (i + 1) l) body in
  let n = List.length events in
  let declared = Wire.get fields "events" (Wire.int "events") n in
  if declared <> n then Wire.fail "truncated recording: header says %d events, body has %d" declared n;
  {
    rc_app = Wire.require fields "app" Fun.id;
    rc_argv = Wire.get fields "argv" (fun v -> List.map Wire.unescape (String.split_on_char ' ' v)) [];
    rc_mech = Wire.require fields "mech" (Wire.value "mechanism" Mech.of_string);
    rc_cfg = World.Config.of_fields fields;
    rc_root = Wire.require fields "root" (Wire.int "root");
    rc_console = Wire.get fields "console" Wire.unescape "";
    rc_fates = List.filter_map (fun (k, v) -> if k = "fate" then Some (fate_of_string v) else None) fields;
    rc_events = events;
  }

let save ~path r = Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc (to_string r))
let load path = of_string (In_channel.with_open_bin path In_channel.input_all)
