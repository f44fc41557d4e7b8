(** wrk-like / redis-benchmark-like load generator.

    One client process with [threads] threads, driving connections in
    one of two arrival disciplines:

    - {b Closed loop} (the paper's Table 6 setup): each thread opens
      [conns] connections sequentially and drives each in rounds — it
      primes a pipeline of [depth] requests, then slides the window
      (one response in, one request out).  A request is only sent once
      an earlier response made room, so server-side queueing delay is
      invisible: the client slows down with the server.

    - {b Open loop}: a deterministic seeded-PRNG arrival process
      (exponential inter-arrival gaps) schedules request send times
      independently of response arrival, the way real users behave.
      When the server falls behind, requests keep arriving on
      schedule and queueing delay shows up in the measured latency.
      Each request is stamped with global-simulated-time send/receive
      cycles through the kernel's {!Kern.note_req_send} /
      {!Kern.note_req_recv} hooks, and latency is measured from the
      {e scheduled} send time — including any client-side backlog — so
      the numbers are immune to coordinated omission.

    A per-request cost models the client's own protocol work: small
    for wrk, substantial for redis-benchmark (which is why the paper's
    1-I/O-thread redis configuration is client-bound and barely feels
    the interposer).

    The thread logic is a host-side state machine (same pattern as the
    dynamic loader): every system call the client performs is still a
    genuine [syscall] instruction in the client binary. *)

open K23_util
open K23_isa
open K23_kernel
open K23_machine

type arrival =
  | Closed
  | Open of { rate : int; requests : int; seed : int }
      (** [rate] requests/sec per thread, [requests] total per thread;
          [seed] makes the arrival process reproducible. *)

type config = {
  path : string;
  port : int;
  threads : int;
  conns : int;
      (** connections per thread: served sequentially in closed loop,
          concurrently (round-robin sends) in open loop *)
  depth : int;  (** closed loop: outstanding requests per connection *)
  rounds : int;  (** closed loop: rounds of [depth] requests per connection *)
  req_cost : int;  (** client-side work per request *)
  resp_len : int;  (** exact response size, for framed reads *)
  arrival : arrival;
  retries : int;
      (** bounded retry-with-backoff budget for [EINTR]/[EAGAIN] and
          failed socket allocation, plus partial-write resumption —
          the chaos-row client ({!K23_eval.Load}).  [0] (the default)
          is the legacy client, instruction-for-instruction. *)
}

type results = {
  mutable completed : int;
  mutable started_at : int option;  (** cycles when the load phase began *)
  mutable errors : int;
  mutable latencies : int list;
      (** open loop only: per-request latency in cycles (receive stamp
          minus scheduled send time), newest first *)
}

type mode =
  | Spawn of int  (** remaining threads to create *)
  | Mmap_stack of int
  | Socket
  | Connect
  | Close_retry  (** connect failed: release the fd before retrying *)
  | Fill  (** prime the pipeline with [depth] requests *)
  | Steady_recv  (** sliding window: read one response ... *)
  | Steady_send  (** ... then send the next request *)
  | Close
  | Open_step  (** open loop: send on schedule, read what's ready *)
  | Open_close of int  (** open loop: close connection [i] and up *)
  | Backoff of mode
      (** [retries > 0] only: sleep briefly, then resume the wrapped
          mode — the retry half of retry-with-backoff *)
  | Finished

(** Open-loop per-thread state: all [conns] connections live at once. *)
type ostate = {
  o_fds : int array;
  o_pending : (int * int) Queue.t array;
      (** per-connection FIFO of in-flight (request id, scheduled send
          cycles); responses arrive in order on a connection *)
  o_partial : int array;  (** bytes of the current response already read *)
  mutable o_next_at : int;  (** scheduled send time of the next request *)
  mutable o_sent : int;
  mutable o_wpart : int;
      (** bytes of the due request already written ([retries > 0]:
          short writes resume the frame instead of desynchronizing the
          server's framing; only one send is in flight at a time) *)
  o_rng : Rng.t;
}

type tstate = {
  mutable mode : mode;
  mutable nconn : int;
  mutable cur_fd : int;
  mutable sent : int;
  mutable received : int;
  mutable partial : int;  (** closed loop: bytes of the current response read *)
  mutable stack : int;
  mutable post : int -> unit;
  mutable attempts : int;  (** consecutive retries of the current call *)
  mutable wpart : int;  (** closed loop: bytes of the current request written *)
  ost : ostate option;  (** [Some] iff [cfg.arrival] is [Open] *)
}

let fresh_tstate cfg ~tid mode =
  let ost =
    match cfg.arrival with
    | Closed -> None
    | Open { seed; _ } ->
      Some
        {
          o_fds = Array.make (max 1 cfg.conns) (-1);
          o_pending = Array.init (max 1 cfg.conns) (fun _ -> Queue.create ());
          o_partial = Array.make (max 1 cfg.conns) 0;
          o_next_at = 0;
          o_sent = 0;
          o_wpart = 0;
          (* distinct stream per thread; tids are assigned
             deterministically, so the arrival schedule is too *)
          o_rng = Rng.create ~seed:(seed + (0x9e3779b9 * tid));
        }
  in
  {
    mode;
    nconn = 0;
    cur_fd = -1;
    sent = 0;
    received = 0;
    partial = 0;
    stack = 0;
    post = ignore;
    attempts = 0;
    wpart = 0;
    ost;
  }

(** Exponential inter-arrival gap in cycles (Poisson arrivals), at
    least 1 so the schedule always advances. *)
let draw_gap rng ~rate =
  let u = Rng.float rng in
  let mean = float_of_int Kern.cycles_per_sec /. float_of_int rate in
  max 1 (int_of_float (-.log (1.0 -. u) *. mean))

let items () =
  [
    Asm.Label "main";
    Asm.Label "wk_thread_entry";
    Asm.Label "wk_loop";
    Asm.Vcall_named "wk_step";
    Asm.I (Insn.Cmp_ri (RBX, 0));
    Asm.Jc (Insn.NZ, "wk_notsys");
    Asm.I Insn.Syscall;
    Asm.Vcall_named "wk_ret";
    Asm.J "wk_loop";
    Asm.Label "wk_notsys";
    Asm.I (Insn.Cmp_ri (RBX, 1));
    Asm.Jc (Insn.NZ, "wk_exit_proc");
    Asm.I (Insn.Xor_rr (RDI, RDI));
    Asm.Call_sym "exit_thread";
    Asm.Label "wk_exit_proc";
    Asm.I (Insn.Xor_rr (RDI, RDI));
    Asm.Call_sym "exit";
    Asm.Section `Data;
    Asm.Label "wk_req";
    Asm.Blob (Bytes.make 64 'Q');
    Asm.Label "wk_buf";
    Asm.Zeros 8192;
  ]

(** Build and register the client; returns the shared results record. *)
let register w cfg : results =
  let results = { completed = 0; started_at = None; errors = 0; latencies = [] } in
  let states : (int, tstate) Hashtbl.t = Hashtbl.create 16 in
  let live_threads = ref cfg.threads in
  let prog = Asm.assemble (items ()) in
  let state_of (ctx : Kern.ctx) =
    match Hashtbl.find_opt states ctx.thread.tid with
    | Some st -> st
    | None ->
      (* the first thread to step is the main thread: it spawns the
         others, which go straight to connecting *)
      let is_main = Hashtbl.length states = 0 in
      let st =
        fresh_tstate cfg ~tid:ctx.thread.tid
          (if is_main && cfg.threads > 1 then Spawn (cfg.threads - 1) else Socket)
      in
      Hashtbl.replace states ctx.thread.tid st;
      st
  in
  let data_sym (ctx : Kern.ctx) name =
    match Mapper.prog_sym ~name:cfg.path prog ctx.thread.t_proc name with
    | Some a -> a
    | None -> Kern.panic "wrk: missing symbol %s" name
  in
  let set ctx r v = Regs.set ctx.Kern.thread.regs r v in
  let sys (ctx : Kern.ctx) st nr a0 a1 a2 ~post =
    set ctx RAX nr;
    set ctx RDI a0;
    set ctx RSI a1;
    set ctx RDX a2;
    set ctx R10 0;
    set ctx R8 0;
    set ctx R9 0;
    set ctx RBX 0;
    st.post <- post
  in
  let sys6 (ctx : Kern.ctx) st nr args ~post =
    set ctx RAX nr;
    set ctx RDI args.(0);
    set ctx RSI args.(1);
    set ctx RDX args.(2);
    set ctx R10 args.(3);
    set ctx R8 args.(4);
    set ctx R9 args.(5);
    set ctx RBX 0;
    st.post <- post
  in
  (* host-side readiness probe, standing in for epoll: data queued (or
     a FIN) on the connection's receive side *)
  let conn_readable (ctx : Kern.ctx) fd =
    match Hashtbl.find_opt ctx.thread.t_proc.Kern.fds fd with
    | Some (Kern.Fd_conn (c, ep)) ->
      Net.Byteq.length (Net.recv_q c ep) > 0 || Net.peer_closed c ep
    | _ -> true (* stale fd: let the read fail promptly *)
  in
  (* retry-with-backoff plumbing, live only when [cfg.retries > 0]
     (the chaos row): a retryable errno re-enters the same mode after a
     short sleep, growing linearly with consecutive attempts.
     ECONNRESET counts as retryable because the fault plane injects it
     as errno noise on a connection that is still intact — the retry
     stands in for the reconnect a real benchmark client would do. *)
  let retryable r = r = -Errno.eintr || r = -Errno.eagain || r = -Errno.econnreset in
  let backoff st next =
    st.attempts <- st.attempts + 1;
    st.mode <- Backoff next
  in
  let rec wk_step (ctx : Kern.ctx) =
    let st = state_of ctx in
    match st.mode with
    | Spawn 0 ->
      st.mode <- Socket;
      wk_step ctx
    | Spawn n ->
      st.mode <- Mmap_stack n;
      sys6 ctx st Sysno.mmap [| 0; 0x10000; 3; 0x20; -1; 0 |] ~post:(fun r ->
          if cfg.retries > 0 && r < 0 then begin
            (* injected ENOMEM: cloning onto a garbage stack would
               fault the child, so re-request the mapping *)
            results.errors <- results.errors + 1;
            backoff st (Spawn n)
          end
          else st.stack <- r)
    | Mmap_stack n ->
      st.mode <- Spawn (n - 1);
      sys ctx st Sysno.clone (data_sym ctx "wk_thread_entry") (st.stack + 0xf000) 0 ~post:ignore
    | Socket ->
      sys ctx st Sysno.socket 2 1 0 ~post:(fun r ->
          if cfg.retries > 0 && r < 0 then begin
            (* injected EMFILE/ENFILE: fds free up as other connections
               close, so back off and re-try the allocation *)
            results.errors <- results.errors + 1;
            backoff st Socket
          end
          else begin
            st.cur_fd <- r;
            st.attempts <- 0;
            st.mode <- Connect
          end)
    | Connect ->
      sys ctx st Sysno.connect st.cur_fd cfg.port 0 ~post:(fun r ->
          if r < 0 then begin
            (* server not listening yet: close the failed socket first,
               then retry with a fresh one (retrying without the close
               leaked one fd per attempt and exhausted the fd table
               under slow-start servers) *)
            results.errors <- results.errors + 1;
            st.mode <- Close_retry
          end
          else begin
            st.nconn <- st.nconn + 1;
            if results.started_at = None then results.started_at <- Some (Kern.now ctx.world);
            match cfg.arrival with
            | Closed ->
              st.sent <- 0;
              st.received <- 0;
              st.partial <- 0;
              (* rounds = 0 means "no requests": go straight to Close
                 instead of pushing one request through Fill *)
              st.mode <- (if cfg.depth * cfg.rounds = 0 then Close else Fill)
            | Open { rate; _ } ->
              let ost = Option.get st.ost in
              ost.o_fds.(st.nconn - 1) <- st.cur_fd;
              if st.nconn < cfg.conns then st.mode <- Socket
              else begin
                ost.o_next_at <- Kern.now ctx.world + draw_gap ost.o_rng ~rate;
                st.mode <- Open_step
              end
          end)
    | Close_retry ->
      sys ctx st Sysno.close st.cur_fd 0 0 ~post:(fun _ ->
          st.cur_fd <- -1;
          st.mode <- Socket)
    | Fill ->
      (* prime the pipeline: [depth] outstanding requests, like wrk's
         16 concurrent connections per thread *)
      let total = cfg.depth * cfg.rounds in
      if st.wpart = 0 then Appkit.charge_work ctx cfg.req_cost;
      sys ctx st Sysno.write st.cur_fd (data_sym ctx "wk_req" + st.wpart) (64 - st.wpart)
        ~post:(fun r ->
          if cfg.retries > 0 && retryable r && (st.attempts < cfg.retries || st.wpart > 0)
          then backoff st Fill
          else if cfg.retries > 0 && r >= 0 && st.wpart + r < 64 then
            (* short write: resume the frame from the offset, or the
               server's 64-byte request framing desynchronizes *)
            st.wpart <- st.wpart + r
          else begin
            st.attempts <- 0;
            st.wpart <- 0;
            st.sent <- st.sent + 1;
            if st.sent >= min cfg.depth total then st.mode <- Steady_recv
          end)
    | Steady_recv ->
      (* sliding window: one response in, one request out — the
         pipeline never drains, so the server never starves.  The read
         is framed: keep reading until the full [resp_len] bytes of
         the current response arrived (a short read used to count as a
         completed response, inflating [completed] and desynchronizing
         the framing for the rest of the run). *)
      let total = cfg.depth * cfg.rounds in
      let advance () =
        st.received <- st.received + 1;
        if st.received >= total then st.mode <- Close
        else if st.sent < total then st.mode <- Steady_send
      in
      sys ctx st Sysno.read st.cur_fd (data_sym ctx "wk_buf") (cfg.resp_len - st.partial)
        ~post:(fun r ->
          if cfg.retries > 0 && retryable r && st.attempts < cfg.retries then
            backoff st Steady_recv
          else if r <= 0 then begin
            (* EOF or error mid-frame: this response will never
               complete *)
            results.errors <- results.errors + 1;
            st.partial <- 0;
            st.attempts <- 0;
            advance ()
          end
          else begin
            st.partial <- st.partial + r;
            st.attempts <- 0;
            if st.partial >= cfg.resp_len then begin
              st.partial <- 0;
              results.completed <- results.completed + 1;
              advance ()
            end
            (* else: short read — stay in Steady_recv for the rest *)
          end)
    | Steady_send ->
      if st.wpart = 0 then Appkit.charge_work ctx cfg.req_cost;
      sys ctx st Sysno.write st.cur_fd (data_sym ctx "wk_req" + st.wpart) (64 - st.wpart)
        ~post:(fun r ->
          if cfg.retries > 0 && retryable r && (st.attempts < cfg.retries || st.wpart > 0)
          then backoff st Steady_send
          else if cfg.retries > 0 && r >= 0 && st.wpart + r < 64 then
            st.wpart <- st.wpart + r
          else begin
            st.attempts <- 0;
            st.wpart <- 0;
            st.sent <- st.sent + 1;
            st.mode <- Steady_recv
          end)
    | Close ->
      (* finish this connection; open the next one if any remain *)
      sys ctx st Sysno.close st.cur_fd 0 0 ~post:(fun _ ->
          st.mode <- (if st.nconn >= cfg.conns then Finished else Socket))
    | Open_step -> (
      let ost = Option.get st.ost in
      let rate, requests =
        match cfg.arrival with
        | Open { rate; requests; _ } -> (rate, requests)
        | Closed -> assert false
      in
      let now = Kern.now ctx.world in
      (* framed read of the oldest in-flight response on connection [c];
         shared by the opportunistic (data ready) and draining (all
         sent, block for the rest) paths *)
      let read_conn c =
        let fd = ost.o_fds.(c) in
        sys ctx st Sysno.read fd (data_sym ctx "wk_buf") (cfg.resp_len - ost.o_partial.(c))
          ~post:(fun r ->
            if cfg.retries > 0 && retryable r && st.attempts < cfg.retries then
              backoff st Open_step
            else if r <= 0 then begin
              results.errors <- results.errors + 1;
              ignore (Queue.pop ost.o_pending.(c));
              ost.o_partial.(c) <- 0;
              st.attempts <- 0
            end
            else begin
              st.attempts <- 0;
              ost.o_partial.(c) <- ost.o_partial.(c) + r;
              if ost.o_partial.(c) >= cfg.resp_len then begin
                ost.o_partial.(c) <- 0;
                let req, sched = Queue.pop ost.o_pending.(c) in
                let stamp = Kern.note_req_recv ctx.world ctx.thread ~conn:fd ~req in
                results.completed <- results.completed + 1;
                results.latencies <- (stamp - sched) :: results.latencies
              end
            end)
      in
      let first_conn p =
        let found = ref (-1) in
        for c = cfg.conns - 1 downto 0 do
          if (not (Queue.is_empty ost.o_pending.(c))) && p c then found := c
        done;
        !found
      in
      if ost.o_sent < requests && now >= ost.o_next_at then begin
        (* a send is due (possibly overdue: the scheduled time, not
           the actual send time, is what latency is measured from) *)
        let c = ost.o_sent mod cfg.conns in
        let fd = ost.o_fds.(c) in
        let req = ost.o_sent in
        let sched = ost.o_next_at in
        if ost.o_wpart = 0 then Appkit.charge_work ctx cfg.req_cost;
        sys ctx st Sysno.write fd (data_sym ctx "wk_req" + ost.o_wpart) (64 - ost.o_wpart)
          ~post:(fun r ->
            if cfg.retries > 0 && retryable r && (st.attempts < cfg.retries || ost.o_wpart > 0)
            then backoff st Open_step (* still due: o_sent unchanged *)
            else if cfg.retries > 0 && r >= 0 && ost.o_wpart + r < 64 then
              ost.o_wpart <- ost.o_wpart + r
            else begin
              st.attempts <- 0;
              if r < 0 then results.errors <- results.errors + 1
              else begin
                Queue.push (req, sched) ost.o_pending.(c);
                ignore (Kern.note_req_send ctx.world ctx.thread ~conn:fd ~req ~sched)
              end;
              ost.o_wpart <- 0;
              ost.o_sent <- ost.o_sent + 1;
              ost.o_next_at <- sched + draw_gap ost.o_rng ~rate
            end)
      end
      else
        let ready = first_conn (fun c -> conn_readable ctx ost.o_fds.(c)) in
        if ready >= 0 then read_conn ready
        else if ost.o_sent < requests then
          (* nothing to read yet and the next send is in the future:
             sleep up to it (never block on a read here — the arrival
             process must not be gated on the server responding) *)
          sys ctx st Sysno.nanosleep (ost.o_next_at - now) 0 0 ~post:ignore
        else
          let pending = first_conn (fun _ -> true) in
          if pending >= 0 then read_conn pending (* all sent: drain, blocking *)
          else begin
            st.mode <- Open_close 0;
            wk_step ctx
          end)
    | Open_close k ->
      let ost = Option.get st.ost in
      sys ctx st Sysno.close ost.o_fds.(k) 0 0 ~post:(fun _ ->
          st.mode <- (if k + 1 >= cfg.conns then Finished else Open_close (k + 1)))
    | Backoff next ->
      (* RSI must be 0: the kernel stashes the wake deadline in arg 1 *)
      sys ctx st Sysno.nanosleep (200 * st.attempts) 0 0 ~post:(fun _ -> st.mode <- next)
    | Finished ->
      decr live_threads;
      (* last thread out terminates the whole benchmark process *)
      set ctx RBX (if !live_threads <= 0 then 2 else 1)
  in
  let wk_ret (ctx : Kern.ctx) =
    let st = state_of ctx in
    let f = st.post in
    st.post <- ignore;
    f (Regs.get ctx.thread.regs RAX)
  in
  ignore
    (K23_userland.Sim.register_app_prog w ~path:cfg.path ~needed:[ K23_userland.Libc.path ]
       ~host_fns:[ ("wk_step", wk_step); ("wk_ret", wk_ret) ]
       prog);
  results
