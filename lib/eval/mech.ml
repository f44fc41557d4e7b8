(** The interposition mechanisms compared in the evaluation
    (Tables 4-6). *)

open K23_kernel
module Zp = K23_baselines.Zpoline
module Lp = K23_baselines.Lazypoline
module Sud = K23_baselines.Sud_interposer
module Pt = K23_baselines.Ptrace_interposer
module Sc = K23_baselines.Seccomp_interposer
module K23 = K23_core.K23
module Asc = K23_interpose.Asc_hook
module I = K23_interpose.Interpose

type t =
  | Native
  | Zpoline_default
  | Zpoline_ultra
  | Lazypoline
  | K23_default
  | K23_ultra
  | K23_ultra_plus
  | Sud_no_interposition  (** SUD armed, selector left on ALLOW *)
  | Sud
  | Ptrace  (** host-agent tracer, entry/exit stops (Section 2.1) *)
  | Seccomp  (** SECCOMP_RET_TRAP outside the interposer's text *)
  | Asc_hook  (** AArch64 svc->b rewriting with per-site slots (Section 8) *)

(** Every mechanism, in declaration order — the single source of truth
    for name tables, CLI converters and round-trip serialisation
    (corpus files, campaign reports).  Extending [t] without extending
    this list is caught by the exhaustive round-trip test. *)
let all =
  [
    Native;
    Zpoline_default;
    Zpoline_ultra;
    Lazypoline;
    K23_default;
    K23_ultra;
    K23_ultra_plus;
    Sud_no_interposition;
    Sud;
    Ptrace;
    Seccomp;
    Asc_hook;
  ]

(** The mechanisms that exist on [isa].  Rewriting an x86 variable-
    length instruction stream (zpoline/lazypoline/K23) has no meaning
    on AArch64 and vice versa for ASC-Hook; SUD, seccomp and ptrace
    are kernel interfaces and work on both. *)
let available ~isa =
  let open K23_isa.Isa in
  match isa with
  | X86_64 ->
    [
      Native;
      Zpoline_default;
      Zpoline_ultra;
      Lazypoline;
      K23_default;
      K23_ultra;
      K23_ultra_plus;
      Sud_no_interposition;
      Sud;
      Ptrace;
      Seccomp;
    ]
  | Arm64 -> [ Native; Asc_hook; Sud_no_interposition; Sud; Ptrace; Seccomp ]

let to_string = function
  | Native -> "native"
  | Zpoline_default -> "zpoline-default"
  | Zpoline_ultra -> "zpoline-ultra"
  | Lazypoline -> "lazypoline"
  | K23_default -> "K23-default"
  | K23_ultra -> "K23-ultra"
  | K23_ultra_plus -> "K23-ultra+"
  | Sud_no_interposition -> "SUD-no-interposition"
  | Sud -> "SUD"
  | Ptrace -> "ptrace"
  | Seccomp -> "seccomp"
  | Asc_hook -> "asc-hook"

(** Inverse of {!to_string}, case-insensitively, plus the short CLI
    aliases ["zpoline"] and ["k23"] for the default variants. *)
let of_string s =
  let ls = String.lowercase_ascii s in
  match List.find_opt (fun m -> String.lowercase_ascii (to_string m) = ls) all with
  | Some m -> Some m
  | None -> (
    match ls with
    | "zpoline" -> Some Zpoline_default
    | "k23" -> Some K23_default
    | _ -> None)

(** Table 5 rows, in the paper's order. *)
let table5_rows =
  [
    Zpoline_default;
    Zpoline_ultra;
    Lazypoline;
    K23_default;
    K23_ultra;
    K23_ultra_plus;
    Sud_no_interposition;
    Sud;
  ]

(** Table 6 columns. *)
let table6_cols =
  [ Zpoline_default; Zpoline_ultra; Lazypoline; K23_default; K23_ultra; K23_ultra_plus; Sud ]

let needs_offline = function
  | K23_default | K23_ultra | K23_ultra_plus -> true
  | Native | Zpoline_default | Zpoline_ultra | Lazypoline | Sud | Sud_no_interposition | Ptrace
  | Seccomp | Asc_hook ->
    false

(** [None] when [m] exists on [isa]; otherwise why not, naming the
    mechanisms that do. *)
let unavailable ~isa m =
  let avail = available ~isa in
  if List.mem m avail then None
  else
    Some
      (Printf.sprintf "mechanism %s is not available on %s (available: %s)" (to_string m)
         (K23_isa.Isa.to_string isa)
         (String.concat ", " (List.map to_string avail)))

(** Launch [path] under the mechanism, with [inner] as the interposed
    handler behind the counting one.  Returns the process (and the
    interposition stats for non-native mechanisms).
    @raise Invalid_argument when [mech] is not available on the
    world's ISA. *)
let launch ?inner mech (w : Kern.world) ~path ?argv ?env () =
  Option.iter invalid_arg (unavailable ~isa:w.isa mech);
  let stats = I.fresh_stats () in
  let handler = I.counting_handler ?inner stats in
  let spawn ?tracer tag preload =
    Result.map (fun p -> (p, Some stats)) (I.spawn w ~tag ~preload ?tracer ~path ?argv ?env ())
  in
  let k23 variant =
    Result.map (fun (p, s) -> (p, Some s)) (K23.launch w ~variant ?inner ~path ?argv ?env ())
  in
  match mech with
  | Native -> Result.map (fun p -> (p, None)) (I.spawn w ~preload:[] ~path ?argv ?env ())
  | Zpoline_default -> spawn "zpoline" [ Zp.image ~variant:Zp.Default ~handler ~stats () ]
  | Zpoline_ultra -> spawn "zpoline-ultra" [ Zp.image ~variant:Zp.Ultra ~handler ~stats () ]
  | Lazypoline -> spawn "lazypoline" [ Lp.image ~handler ~stats () ]
  | K23_default -> k23 K23.Default
  | K23_ultra -> k23 K23.Ultra
  | K23_ultra_plus -> k23 K23.Ultra_plus
  | Sud_no_interposition ->
    spawn "sud-nointerpose" [ Sud.image ~interpose_on:false ~isa:w.isa ~handler ~stats () ]
  | Sud -> spawn "sud" [ Sud.image ~isa:w.isa ~handler ~stats () ]
  | Ptrace -> spawn ~tracer:(Pt.tracer ~handler ~stats) "ptrace" []
  | Seccomp -> spawn "seccomp-trap" [ Sc.image ~isa:w.isa ~handler ~stats () ]
  | Asc_hook -> spawn "asc-hook" [ Asc.image ~handler ~stats () ]
