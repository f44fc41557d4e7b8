(** Static linear-sweep disassembler — the strategy zpoline-style
    rewriters depend on, complete with its documented failure modes on
    variable-length ISAs: misidentification of embedded data (P3a) and
    overlooking of syscalls swallowed by desynchronisation (P2a).
    Resynchronises byte-by-byte on invalid encodings, like
    objdump-style tools. *)

type item = {
  addr : int;  (** absolute address of the first byte *)
  insn : Insn.t option;  (** [None] when the byte did not decode *)
  len : int;
}

val sweep : Bytes.t -> base:int -> item list

val find_syscall_offsets : Bytes.t -> int list
(** Buffer-relative offsets of the sites {!find_syscall_sites} would
    report: the same decode walk as {!sweep}, run as an allocation-free
    loop.  Base-independent, hence cacheable across ASLR slides. *)

val find_syscall_sites : Bytes.t -> base:int -> int list
(** The site list a zpoline-style rewriter uses — including its false
    positives and false negatives. *)

val find_syscall_sites_memo : Bytes.t -> base:int -> int list
(** {!find_syscall_sites} through a per-domain content-addressed memo
    (keyed by length, a hit confirmed with [Bytes.equal], so it is
    byte-exact).
    Identical results; the sweep of an unchanged buffer — library text
    rescanned by every launch — is paid once per domain. *)

val raw_pattern_sites : Bytes.t -> base:int -> int list
(** Ground truth for tests: every occurrence of the literal 2-byte
    [0f 05]/[0f 34] pattern, regardless of instruction boundaries. *)

val listing : Bytes.t -> base:int -> string
(** objdump-style text listing. *)
