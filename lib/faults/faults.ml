(** Deterministic fault-injection plane.

    A fault {e plan} is pure data — a seed plus per-channel per-mille
    rates — so it can live inside {!K23_kernel.World.Config} and keep
    every world a pure function of its config, byte-identical at any
    [--jobs].

    Decisions are a pure function of [(fseed, nr, tick)] where [tick]
    counts {e fault-eligible} dispatches of syscall number [nr] in the
    world so far.  Ticks advance only on logically-new application
    calls (the kernel skips interposer housekeeping, retries of parked
    calls, and restarted re-executions), so a native run and a
    mechanism-interposed run of the same program see the {e same}
    schedule — divergence under faults means the mechanism mishandled
    an interrupted/restarted syscall, not that the dice rolled
    differently.

    rr (PAPERS.md) identifies interrupted/restarted syscalls and
    signal-delivery points as the hardest nondeterminism to tame; this
    module makes them explicit, seeded inputs. *)

type plan = {
  fseed : int;  (** schedule seed; same seed ⇒ same decisions *)
  eintr_pm : int;  (** ‰ chance a blocking wait is interrupted *)
  short_pm : int;  (** ‰ chance a read/write is truncated *)
  eagain_pm : int;  (** ‰ chance a net op reports [EAGAIN] *)
  emfile_pm : int;  (** ‰ chance fd allocation reports [EMFILE]/[ENFILE] *)
  enomem_pm : int;  (** ‰ chance mmap reports [ENOMEM] *)
  reset_pm : int;  (** ‰ chance a connection op reports [ECONNRESET] *)
}

(** The disabled plan: every rate zero.  Worlds treat this exactly
    like "no fault plane" (zero per-dispatch overhead). *)
let none = { fseed = 0; eintr_pm = 0; short_pm = 0; eagain_pm = 0;
             emfile_pm = 0; enomem_pm = 0; reset_pm = 0 }

(** The stock chaos mix used by [k23 fuzz --faults] and the
    [table6-chaos] load row: frequent interrupts and short I/O, rarer
    resource exhaustion. *)
let chaos ?(fseed = 23) () =
  { fseed; eintr_pm = 60; short_pm = 90; eagain_pm = 45;
    emfile_pm = 10; enomem_pm = 8; reset_pm = 6 }

let enabled p =
  p.eintr_pm > 0 || p.short_pm > 0 || p.eagain_pm > 0 || p.emfile_pm > 0
  || p.enomem_pm > 0 || p.reset_pm > 0

let to_string p =
  if not (enabled p) then "faults:off"
  else
    Printf.sprintf "faults:s%d:i%d:sh%d:a%d:m%d:n%d:r%d" p.fseed p.eintr_pm
      p.short_pm p.eagain_pm p.emfile_pm p.enomem_pm p.reset_pm

(** Parse {!to_string}'s rendering back; [None] on malformed input.
    Gives corpus repro files and CLI flags a stable wire format. *)
let of_string s =
  if s = "faults:off" then Some none
  else
    match
      Scanf.sscanf_opt s "faults:s%d:i%d:sh%d:a%d:m%d:n%d:r%d%!"
        (fun fseed eintr_pm short_pm eagain_pm emfile_pm enomem_pm reset_pm ->
          { fseed; eintr_pm; short_pm; eagain_pm; emfile_pm; enomem_pm; reset_pm })
    with
    | Some p -> Some p
    | None -> None

(* ------------------------------------------------------------------ *)
(* Schedule: SplitMix64 finalizer over (fseed, nr, tick, channel)      *)

(* SplitMix64's finalizer with the constants truncated to OCaml's
   63-bit native int (arithmetic wraps, which is all the avalanche
   needs — we only ever consume the low 30 bits). *)
let mix64 z =
  let z = z + 0x1e3779b97f4a7c15 in
  let z = (z lxor (z lsr 30)) * 0x3f58476d1ce4e5b9 in
  let z = (z lxor (z lsr 27)) * 0x14d049bb133111eb in
  z lxor (z lsr 31)

(** Decision key for one logical syscall: mixes the plan seed, the
    syscall number, and the per-nr eligible-dispatch tick. *)
let key p ~nr ~tick = mix64 ((p.fseed * 0x100003) lxor (nr * 0x9e37) lxor tick)

(* Per-channel salts keep the channels' dice independent. *)
let s_eintr = 0x11
let s_short = 0x22
let s_eagain = 0x33
let s_emfile = 0x44
let s_enomem = 0x55
let s_reset = 0x66
let s_flip = 0x77
let s_len = 0x88

(** Roll one channel: true with probability [pm]/1000. *)
let roll ~key ~salt pm =
  pm > 0 && (mix64 (key lxor salt) land 0x3fffffff) mod 1000 < pm

let roll_eintr p ~key = roll ~key ~salt:s_eintr p.eintr_pm
let roll_short p ~key = roll ~key ~salt:s_short p.short_pm
let roll_eagain p ~key = roll ~key ~salt:s_eagain p.eagain_pm
let roll_emfile p ~key = roll ~key ~salt:s_emfile p.emfile_pm
let roll_enomem p ~key = roll ~key ~salt:s_enomem p.enomem_pm
let roll_reset p ~key = roll ~key ~salt:s_reset p.reset_pm

(** A fair coin tied to the key: picks EMFILE-vs-ENFILE and
    restart-vs-hard-EINTR. *)
let flip ~key = mix64 (key lxor s_flip) land 1 = 0

(** Truncated length for a short read/write of [n] bytes: uniform in
    [1, n-1] (callers only ask when [n > 1]). *)
let short_len ~key n =
  if n <= 1 then n else 1 + ((mix64 (key lxor s_len) land 0x3fffffff) mod (n - 1))
