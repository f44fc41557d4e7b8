(** Loopback-only network: TCP-ish listeners keyed by port and
    connections as paired byte queues — the paper's benchmarking setup
    (clients and servers on one machine, Section 6.2.2).  Blocking is
    the scheduler's job, not this module's. *)

(** One direction of a connection or a pipe: an unbounded byte FIFO
    in a growable ring, owned by the connection or pipe.  Bytes move
    between the ring and the caller's memory through a [blit i buf off
    k] callback, which copies bytes [i, i+k) of the transfer to or from
    [buf] at [off]: once per call, twice when the run wraps around the
    ring's end. *)
module Byteq : sig
  type t

  val create : unit -> t
  val length : t -> int

  val fill : t -> int -> (int -> Bytes.t -> int -> int -> unit) -> unit
  (** [fill q n blit] appends [n] bytes, which [blit] stores into the
      ring.  If [blit] raises, nothing is queued: the queue's length and
      bytes are as before. *)

  val drain : t -> int -> (int -> Bytes.t -> int -> int -> unit) -> int
  (** [drain q max blit] consumes the [min max (length q)] oldest bytes,
      hands them to [blit] in order, and returns how many.  They are
      consumed before [blit] runs: if it raises, all of them are gone. *)
end

type conn = {
  conn_id : int;
  a_to_b : Byteq.t;
  b_to_a : Byteq.t;
  mutable closed_a : bool;
  mutable closed_b : bool;
}

type endpoint = A | B
(** [A] is the connecting (client) side, [B] the accepting side. *)

type listener = private {
  port : int;
  mutable bl_front : conn list;  (** oldest first *)
  mutable bl_back : conn list;  (** newest first *)
}
(** Pending connections as a two-list FIFO:
    amortised O(1) per connect/accept instead of the old O(n²)
    list-append backlog.  [private] so only [connect]/[accept] shift
    the lists; read the depth via {!backlog_length}. *)

val backlog_length : listener -> int

type t = {
  listeners : (int, listener) Hashtbl.t;
  mutable next_conn : int;
  bound_ports : (int * int, int) Hashtbl.t;
      (** (pid, sockfd) -> bound port.  World-local state: keeping it
          here (rather than a module-level table) is what lets many
          worlds run concurrently on separate domains. *)
}

val create : unit -> t

val reset : t -> unit
(** Empty in place: observationally a fresh {!create}, including the
    connection-id sequence. *)

val listen : t -> int -> (listener, [ `Addrinuse ]) result
val connect : t -> int -> (conn, [ `Refused ]) result
val accept : listener -> conn option
val send_q : conn -> endpoint -> Byteq.t
val recv_q : conn -> endpoint -> Byteq.t
val peer_closed : conn -> endpoint -> bool
val close : conn -> endpoint -> unit
val unlisten : t -> int -> unit
