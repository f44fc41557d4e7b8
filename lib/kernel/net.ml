(** Loopback-only network model.

    The paper runs benchmark clients and servers on the same physical
    machine over localhost (Section 6.2.2); we model exactly that: TCP
    listeners keyed by port, connections as a pair of byte queues.
    Blocking behaviour (accept on an empty backlog, read on an empty
    queue) is implemented by the kernel scheduler, not here. *)

(** One direction of a connection or a pipe: an unbounded FIFO of
    bytes in a growable ring.

    {!fill} and {!drain} copy straight between the ring and the
    caller's memory (a syscall's guest pages), so a [read] or [write]
    allocates no buffer of its own.  A fill that does not fit doubles
    the ring, unwrapping the queued bytes to its start; the ring never
    shrinks.  An empty queue restarts at offset 0. *)
module Byteq = struct
  type t = {
    mutable buf : Bytes.t;
    mutable head : int;  (** offset of the oldest queued byte *)
    mutable len : int;
  }

  let create () = { buf = Bytes.create 64; head = 0; len = 0 }

  let length q = q.len

  (* Room for [need] bytes, the queued ones moved to offset 0. *)
  let grow q need =
    let cap = Bytes.length q.buf in
    let rec double c = if c >= need then c else double (2 * c) in
    let buf = Bytes.create (double (2 * cap)) in
    let first = min q.len (cap - q.head) in
    Bytes.blit q.buf q.head buf 0 first;
    Bytes.blit q.buf 0 buf first (q.len - first);
    q.buf <- buf;
    q.head <- 0

  (* Ring offset of [i], an offset below twice the capacity. *)
  let wrap q i = if i >= Bytes.length q.buf then i - Bytes.length q.buf else i

  (* [blit i buf off k] for the [n] bytes from ring offset [start]:
     one call, or two when the run wraps. *)
  let spans q start n blit =
    let k = min n (Bytes.length q.buf - start) in
    blit 0 q.buf start k;
    if k < n then blit k q.buf 0 (n - k)

  let fill q n blit =
    if n > 0 then begin
      if q.len + n > Bytes.length q.buf then grow q (q.len + n);
      spans q (wrap q (q.head + q.len)) n blit;
      q.len <- q.len + n
    end

  let drain q max blit =
    let n = min max q.len in
    if n <= 0 then 0
    else begin
      let head = q.head in
      q.head <- (if q.len = n then 0 else wrap q (head + n));
      q.len <- q.len - n;
      (* consumed first: a raising [blit] leaves them consumed; the
         bytes stay in place until the next fill *)
      spans q head n blit;
      n
    end
end

type conn = {
  conn_id : int;
  a_to_b : Byteq.t;
  b_to_a : Byteq.t;
  mutable closed_a : bool;
  mutable closed_b : bool;
}

type endpoint = A | B

(** Pending connections as a two-list (Okasaki) queue:
    [connect] conses onto [bl_back], [accept] pops [bl_front] and
    reverses [bl_back] in only when the front drains — amortised O(1)
    per connection while keeping strict FIFO accept order.  The
    previous representation appended with [l.backlog <- l.backlog @ [c]],
    quadratic in a connect burst (every client of a benchmark run
    lands on the same listener). *)
type listener = {
  port : int;
  mutable bl_front : conn list;  (** oldest first *)
  mutable bl_back : conn list;  (** newest first *)
}

let backlog_length l = List.length l.bl_front + List.length l.bl_back

type t = {
  listeners : (int, listener) Hashtbl.t;
  mutable next_conn : int;
  bound_ports : (int * int, int) Hashtbl.t;
      (* (pid, sockfd) -> bound port; world-local so concurrent worlds
         on separate domains never share it (it used to be a
         module-level table in Syscalls) *)
}

let create () =
  { listeners = Hashtbl.create 8; next_conn = 1; bound_ports = Hashtbl.create 16 }

(** Back to the state of a fresh {!create}, in place: no listeners, no
    bound ports, connection ids restarting from 1 (ids feed normalised
    projections, so a reused world must replay the same sequence). *)
let reset t =
  Hashtbl.reset t.listeners;
  Hashtbl.reset t.bound_ports;
  t.next_conn <- 1

let listen t port =
  if Hashtbl.mem t.listeners port then Error `Addrinuse
  else begin
    let l = { port; bl_front = []; bl_back = [] } in
    Hashtbl.replace t.listeners port l;
    Ok l
  end

(** Client side: create a connection and queue it on the listener's
    backlog.  Endpoint [A] is the client, [B] the server. *)
let connect t port =
  match Hashtbl.find_opt t.listeners port with
  | None -> Error `Refused
  | Some l ->
    let c =
      {
        conn_id = t.next_conn;
        a_to_b = Byteq.create ();
        b_to_a = Byteq.create ();
        closed_a = false;
        closed_b = false;
      }
    in
    t.next_conn <- t.next_conn + 1;
    l.bl_back <- c :: l.bl_back;
    Ok c

(** Server side: take the next pending connection, if any. *)
let accept l =
  (match l.bl_front with
  | [] ->
    l.bl_front <- List.rev l.bl_back;
    l.bl_back <- []
  | _ -> ());
  match l.bl_front with
  | [] -> None
  | c :: rest ->
    l.bl_front <- rest;
    Some c

let send_q c = function A -> c.a_to_b | B -> c.b_to_a
let recv_q c = function A -> c.b_to_a | B -> c.a_to_b

let peer_closed c = function A -> c.closed_b | B -> c.closed_a

let close c = function A -> c.closed_a <- true | B -> c.closed_b <- true

let unlisten t port = Hashtbl.remove t.listeners port
