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

    The wire format follows [Corpus]: `key: value` header lines, a
    `---` separator, then one event per line.  Unknown header keys are
    skipped (forward compatibility), [to_string]/[of_string] are exact
    inverses, and the `events:` header pins the body length so a
    truncated file is a parse error, not a silently-short replay. *)

module Event = K23_obs.Event
module Mech = K23_eval.Mech
module Session = K23_eval.Session
module World = K23_kernel.World
module Faults = K23_faults.Faults
module Cost = K23_machine.Cost

exception Parse_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Parse_error s)) fmt

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
   per payload, written [String.escaped] (newline-safe) and parsed as
   the remainder of the line — so strings containing spaces survive.
   [Syscall_enter] carries a length-prefixed argument vector before
   its trailing owner string. *)

let event_to_line (e : Event.t) =
  let b = Buffer.create 64 in
  let pr fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  pr "%d %d %d" e.Event.ev_cycles e.Event.ev_pid e.Event.ev_tid;
  (match e.Event.ev_payload with
  | Event.Syscall_enter { nr; site; owner; args } ->
    pr " enter %d %d %d" nr site (Array.length args);
    Array.iter (fun a -> pr " %d" a) args;
    pr " %s" (String.escaped owner)
  | Event.Syscall_exit { nr; ret } -> pr " exit %d %d" nr ret
  | Event.Signal_deliver { signo; sysno; site } -> pr " signal %d %d %d" signo sysno site
  | Event.Sigreturn { depth } -> pr " sigreturn %d" depth
  | Event.Sud_toggle { armed; sel_addr; allow_lo; allow_hi } ->
    pr " sud_toggle %d %d %d %d" (Bool.to_int armed) sel_addr allow_lo allow_hi
  | Event.Sud_block { nr; site } -> pr " sud_block %d %d" nr site
  | Event.Seccomp { nr; verdict } -> pr " seccomp %d %s" nr (String.escaped verdict)
  | Event.Ptrace_stop { kind; nr } ->
    pr " ptrace %s %d" (match kind with Event.Entry -> "entry" | Event.Exit -> "exit") nr
  | Event.Code_write { addr; len } -> pr " code_write %d %d" addr len
  | Event.Fault { access; addr; rip } -> pr " fault %d %d %s" addr rip (String.escaped access)
  | Event.Exec { path } -> pr " exec %s" (String.escaped path)
  | Event.Vdso_call { sym } -> pr " vdso %s" (String.escaped sym)
  | Event.Sched_switch { core } -> pr " sched %d" core
  | Event.Req_send { conn; req; sched } -> pr " req_send %d %d %d" conn req sched
  | Event.Req_recv { conn; req } -> pr " req_recv %d %d" conn req
  | Event.Fault_injected { nr; site; kind } ->
    pr " fault_inj %d %d %s" nr site (String.escaped kind)
  | Event.Syscall_restarted { nr; site } -> pr " restart %d %d" nr site
  | Event.Annot s -> pr " annot %s" (String.escaped s));
  Buffer.contents b

let int_field what s =
  match int_of_string_opt s with
  | Some n -> n
  | None -> fail "bad %s field: %S" what s

let str_field what toks =
  let s = String.concat " " toks in
  try Scanf.unescaped s with Scanf.Scan_failure _ | Failure _ -> fail "bad %s string: %S" what s

let event_of_line lineno line =
  let bad what = fail "event line %d: %s (%S)" lineno what line in
  match String.split_on_char ' ' line with
  | cy :: pid :: tid :: tag :: rest ->
    let i = int_field in
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
            owner = str_field "owner" owner;
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
      | "seccomp", nr :: v -> Event.Seccomp { nr = i "nr" nr; verdict = str_field "verdict" v }
      | "ptrace", [ kind; nr ] ->
        let kind =
          match kind with "entry" -> Event.Entry | "exit" -> Event.Exit | _ -> bad "bad stop kind"
        in
        Event.Ptrace_stop { kind; nr = i "nr" nr }
      | "code_write", [ addr; len ] -> Event.Code_write { addr = i "addr" addr; len = i "len" len }
      | "fault", addr :: rip :: access ->
        Event.Fault { addr = i "addr" addr; rip = i "rip" rip; access = str_field "access" access }
      | "exec", path -> Event.Exec { path = str_field "path" path }
      | "vdso", sym -> Event.Vdso_call { sym = str_field "sym" sym }
      | "sched", [ core ] -> Event.Sched_switch { core = i "core" core }
      | "req_send", [ conn; req; sched ] ->
        Event.Req_send { conn = i "conn" conn; req = i "req" req; sched = i "sched" sched }
      | "req_recv", [ conn; req ] -> Event.Req_recv { conn = i "conn" conn; req = i "req" req }
      | "fault_inj", nr :: site :: kind ->
        Event.Fault_injected { nr = i "nr" nr; site = i "site" site; kind = str_field "kind" kind }
      | "restart", [ nr; site ] -> Event.Syscall_restarted { nr = i "nr" nr; site = i "site" site }
      | "annot", s -> Event.Annot (str_field "annot" s)
      | _ -> bad ("unknown event tag " ^ tag)
    in
    {
      Event.ev_cycles = int_field "cycles" cy;
      ev_pid = int_field "pid" pid;
      ev_tid = int_field "tid" tid;
      ev_payload = payload;
    }
  | _ -> bad "malformed event line"

(* ------------------------------------------------------------------ *)
(* Header codec                                                        *)

let cost_to_string (m : Cost.model) =
  Printf.sprintf "%d,%d,%d,%d,%d,%d,%d,%d" m.Cost.insn m.Cost.nop m.Cost.syscall_base
    m.Cost.sud_armed_extra m.Cost.sigsys_delivery m.Cost.sigreturn_extra m.Cost.ptrace_stop
    m.Cost.ptrace_mem_op

let cost_of_string s =
  match String.split_on_char ',' s |> List.map int_of_string_opt with
  | [
   Some insn; Some nop; Some syscall_base; Some sud_armed_extra; Some sigsys_delivery;
   Some sigreturn_extra; Some ptrace_stop; Some ptrace_mem_op;
  ] ->
    {
      Cost.insn; nop; syscall_base; sud_armed_extra; sigsys_delivery; sigreturn_extra;
      ptrace_stop; ptrace_mem_op;
    }
  | _ -> fail "bad cost model: %S" s

let magic = "# k23 recording v1"

let to_string r =
  let b = Buffer.create 4096 in
  let pr fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  pr "%s\n" magic;
  pr "app: %s\n" r.rc_app;
  (* argv entries are space-separated tokens: escape embedded spaces
     as the decimal escape \032 (String.escaped leaves spaces alone,
     Scanf.unescaped reverses either form) *)
  let escape_token s = String.concat "\\032" (String.split_on_char ' ' (String.escaped s)) in
  if r.rc_argv <> [] then pr "argv: %s\n" (String.concat " " (List.map escape_token r.rc_argv));
  pr "mech: %s\n" (Mech.to_string r.rc_mech);
  let c = r.rc_cfg in
  (* emitted only for non-x86 recordings: pre-ISA files stay
     byte-identical and old readers skip the unknown key *)
  (match c.World.Config.isa with
  | K23_isa.Isa.X86_64 -> ()
  | isa -> pr "isa: %s\n" (K23_isa.Isa.to_string isa));
  pr "ncores: %d\n" c.World.Config.ncores;
  pr "quantum: %d\n" c.World.Config.quantum;
  pr "seed: %d\n" c.World.Config.seed;
  pr "aslr: %d\n" (Bool.to_int c.World.Config.aslr);
  pr "predecode: %d\n" (Bool.to_int c.World.Config.predecode);
  pr "cost: %s\n" (cost_to_string c.World.Config.cost);
  pr "faults: %s\n" (Faults.to_string c.World.Config.faults);
  pr "root: %d\n" r.rc_root;
  pr "console: %s\n" (String.escaped r.rc_console);
  List.iter (fun (pid, f) -> pr "fate: %d %s\n" pid (Session.fate_to_string f)) r.rc_fates;
  pr "events: %d\n" (List.length r.rc_events);
  pr "---\n";
  List.iter (fun e -> pr "%s\n" (event_to_line e)) r.rc_events;
  Buffer.contents b

let of_string s =
  let lines = String.split_on_char '\n' s in
  match lines with
  | first :: rest when first = magic ->
    let app = ref None and argv = ref [] and mech = ref None in
    let cfg = ref { World.Config.default with World.Config.ktrace = false } in
    let root = ref None and console = ref "" and fates = ref [] and nevents = ref None in
    let rec header = function
      | [] -> fail "missing --- separator"
      | "---" :: body -> body
      | line :: restl ->
        (match String.index_opt line ':' with
        | None -> if String.trim line <> "" then fail "bad header line: %S" line
        | Some ci ->
          let key = String.sub line 0 ci in
          let v =
            let raw = String.sub line (ci + 1) (String.length line - ci - 1) in
            if String.length raw > 0 && raw.[0] = ' ' then String.sub raw 1 (String.length raw - 1)
            else raw
          in
          let iv what = int_field what v in
          (match key with
          | "app" -> app := Some v
          | "argv" ->
            argv := List.map (fun a -> str_field "argv" [ a ]) (String.split_on_char ' ' v)
          | "mech" -> (
            match Mech.of_string v with
            | Some m -> mech := Some m
            | None -> fail "unknown mechanism: %S" v)
          | "isa" -> (
            match K23_isa.Isa.of_string v with
            | Some isa -> cfg := { !cfg with World.Config.isa = isa }
            | None -> fail "unknown isa: %S" v)
          | "ncores" -> cfg := { !cfg with World.Config.ncores = iv "ncores" }
          | "quantum" -> cfg := { !cfg with World.Config.quantum = iv "quantum" }
          | "seed" -> cfg := { !cfg with World.Config.seed = iv "seed" }
          | "aslr" -> cfg := { !cfg with World.Config.aslr = iv "aslr" <> 0 }
          | "predecode" -> cfg := { !cfg with World.Config.predecode = iv "predecode" <> 0 }
          | "cost" -> cfg := { !cfg with World.Config.cost = cost_of_string v }
          | "faults" -> (
            match Faults.of_string v with
            | Some p -> cfg := { !cfg with World.Config.faults = p }
            | None -> fail "bad fault plan: %S" v)
          | "root" -> root := Some (iv "root")
          | "console" -> console := str_field "console" [ v ]
          | "fate" -> (
            match String.split_on_char ' ' v with
            | [ pid; "exit"; n ] ->
              fates := (int_field "pid" pid, Session.Exit (int_field "status" n)) :: !fates
            | [ pid; "killed"; n ] ->
              fates := (int_field "pid" pid, Session.Killed (int_field "signal" n)) :: !fates
            | [ pid; "running" ] -> fates := (int_field "pid" pid, Session.Running) :: !fates
            | _ -> fail "bad fate line: %S" v)
          | "events" -> nevents := Some (iv "events")
          | _ -> () (* unknown header keys are skipped: forward compatibility *)));
        header restl
    in
    let body = header rest in
    let events =
      List.filteri (fun _ l -> String.trim l <> "") body
      |> List.mapi (fun i l -> event_of_line (i + 1) l)
    in
    (match !nevents with
    | Some n when n <> List.length events ->
      fail "truncated recording: header says %d events, body has %d" n (List.length events)
    | _ -> ());
    let req what = function Some x -> x | None -> fail "missing %s header" what in
    {
      rc_app = req "app" !app;
      rc_argv = !argv;
      rc_mech = req "mech" !mech;
      rc_cfg = !cfg;
      rc_root = req "root" !root;
      rc_console = !console;
      rc_fates = List.rev !fates;
      rc_events = events;
    }
  | first :: _ when String.length first >= 15 && String.sub first 0 15 = "# k23 recording" ->
    fail "unsupported recording version: %S" first
  | _ -> fail "not a k23 recording (missing %S header)" magic

(* ------------------------------------------------------------------ *)
(* Files                                                               *)

let save ~path r =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc (to_string r))

let load path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> of_string (really_input_string ic (in_channel_length ic)))
