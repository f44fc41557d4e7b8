(** Host-speed calibration.

    The benchmark host is shared, and its speed drifts: for seconds to
    tens of seconds at a time the same work runs up to twice as slow,
    in CPU time as much as in wall time.  Two fixed loops that do not
    depend on the simulator, timed next to the work, measure that
    drift, and dividing by them removes most of it (README.md).

    - [compute]: allocation-free pseudo-random reads and writes over a
      256 KiB array with a data-dependent branch per iteration, the
      pattern of an interpreter's dispatch;
    - [alloc]: short-lived strings and lists, [Printf] and [Hashtbl],
      the allocation-heavy pattern of the simulator's kernel paths.

    On this host the simulator slows about as much as their sum does;
    either alone tracks one workload and misses another. *)

let now () = Unix.gettimeofday ()

let table = Array.make 32768 0

let compute () =
  let x = ref 12345 and acc = ref 0 in
  for i = 0 to 74_999 do
    x := ((!x * 1103515245) + 12345) land 0x3fffffff;
    let j = !x land 32767 in
    table.(j) <- table.(j) + i;
    match !x lsr 27 with
    | 0 | 1 -> acc := !acc lxor table.((j * 7) land 32767)
    | 2 -> acc := !acc + (j lsr 3)
    | 3 | 4 -> acc := !acc - table.(j lxor 1)
    | _ -> acc := !acc + 1
  done;
  !acc

let alloc () =
  let h = Hashtbl.create 64 and acc = ref 0 in
  for i = 0 to 1_999 do
    let s = Printf.sprintf "k%d:%s" (i land 255) (string_of_int (i * 31)) in
    Hashtbl.replace h (i land 255) (s, [ i; i + 1 ]);
    match Hashtbl.find_opt h ((i * 7) land 255) with
    | Some (s', l) -> acc := !acc + String.length s' + List.length l
    | None -> ()
  done;
  !acc

(** Seconds both loops take on an uncontended core of the host the
    baseline in README.md was taken on.  Normalised times are reported
    in seconds at that speed. *)
let reference_s = 0.0013

(** Time one run of both loops. *)
let measure () =
  let t0 = now () in
  ignore (Sys.opaque_identity (compute ()));
  ignore (Sys.opaque_identity (alloc ()));
  now () -. t0

let last = ref nan
let last_at = ref neg_infinity

(** The host's current loop time: re-measured when the last sample is
    more than 50 ms old, so it costs a few percent of the timed phase. *)
let current () =
  if now () -. !last_at > 0.05 then begin
    last := measure ();
    last_at := now ()
  end;
  !last

(** [seconds] at the reference speed, given the loop time [c] measured
    next to them. *)
let normalise ~c seconds = seconds *. reference_s /. c
