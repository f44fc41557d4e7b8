(** K23's offline phase: libLogger (Section 5.1).

    The target runs in a controlled environment with representative
    inputs under an SUD-based interposition library.  On every SIGSYS,
    libLogger resolves the trapping [syscall]/[sysenter] instruction to
    its containing memory region (via /proc/PID/maps) and records the
    unique (region, offset) pair — but only for instructions inside
    expected executable, non-writable regions, so dynamically generated
    code never enters the logs.  Performance is irrelevant here.

    A ptracer-like companion (see {!Ptracer.preload_enforcer}) keeps
    libLogger injected across execve even if the program scrubs its
    environment; it records nothing itself. *)

open K23_isa
open K23_machine
open K23_kernel
open Kern
open K23_interpose.Interpose

let lib_path = "/usr/lib/liblogger.so"

type state = { mutable seen : (string * int) list }

type Kern.pstate += Logger of state

let state_key = "liblogger"

let get_state (p : proc) =
  match Hashtbl.find_opt p.pstates state_key with
  | Some (Logger s) -> s
  | _ ->
    let s = { seen = [] } in
    Hashtbl.replace p.pstates state_key (Logger s);
    s

(** Record the site that raised SIGSYS, if it lives in an expected
    region: executable, non-writable, and owned by the application or
    a library — never the interposer itself, the trampoline, a stack,
    or an anonymous (possibly JIT) mapping. *)
let log_site (ctx : ctx) ~site ~nr:_ =
  let p = ctx.thread.t_proc in
  let w = ctx.world in
  match find_region p site with
  | Some r
    when r.r_perm.Memory.x && (not r.r_perm.Memory.w)
         && (match r.r_owner with
            | App | Libc | Ldso | Lib _ -> true
            | Vdso | Interposer | Trampoline | Anon | Stack -> false) ->
    let st = get_state p in
    let entry = (r.r_name, site - r.r_start) in
    if not (List.mem entry st.seen) then begin
      st.seen <- entry :: st.seen;
      Log_store.append w ~app:p.cmd
        [ { Log_store.region = fst entry; offset = snd entry } ]
    end
  | Some _ | None -> ()

let image ~stats () : image =
  let prog = sigsys_program Isa.X86_64 ~ctor:("__logger_init", "logger_init") [ "logger_selector" ] in
  let sym = Mapper.prog_sym ~name:lib_path prog in
  let cfg =
    {
      (config "liblogger" ~pre_cost:150 ~post_cost:80 ~handler:(counting_handler stats) ~stats) with
      sud_selector = (fun p -> sym p "logger_selector");
    }
  in
  let init (ctx : ctx) =
    let p = ctx.thread.t_proc in
    ignore (get_state p);
    let sel_addr = arm_sud ctx cfg ~sym in
    set_selector_all_slots p ~sel_addr selector_block
  in
  library ~name:lib_path ~init:"__logger_init" prog
    (("logger_init", init) :: sigsys_host_fns cfg ~sym ~on_sigsys:log_site ())
