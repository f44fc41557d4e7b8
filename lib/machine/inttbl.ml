(** Hash table keyed by ints with an arithmetic hash (see the
    interface).  Separate chaining; a bucket's chain is a list of
    mutable cells, so [replace] of a bound key allocates nothing. *)

type 'a chain = Nil | Cons of { key : int; mutable data : 'a; mutable next : 'a chain }

type 'a t = {
  mutable buckets : 'a chain array;  (** length [1 lsl (63 - shift)] *)
  mutable shift : int;
  mutable size : int;
}

(* 2^62 / golden ratio, rounded to odd: products of nearby keys differ
   in their top bits. *)
let golden = 0x278D_DE6E_5FD2_9F05

let[@inline] index t key = (key * golden) lsr t.shift

let create n =
  let rec bits b = if 1 lsl b >= n || b >= 30 then b else bits (b + 1) in
  let b = bits 4 in
  { buckets = Array.make (1 lsl b) Nil; shift = 63 - b; size = 0 }

let length t = t.size

(* The chain walks are top-level functions taking the key as an
   argument: a local closure over it would be allocated on every
   lookup. *)
let rec find_in key default = function
  | Nil -> default
  | Cons c -> if c.key = key then c.data else find_in key default c.next

let find t key ~default = find_in key default (Array.unsafe_get t.buckets (index t key))

let rec find_opt_in key = function
  | Nil -> None
  | Cons c -> if c.key = key then Some c.data else find_opt_in key c.next

let find_opt t key = find_opt_in key (Array.unsafe_get t.buckets (index t key))

let rec mem_in key = function Nil -> false | Cons c -> c.key = key || mem_in key c.next

let mem t key = mem_in key (Array.unsafe_get t.buckets (index t key))

(* Double the buckets and relink every cell into its new chain. *)
let grow t =
  let old = t.buckets in
  t.shift <- t.shift - 1;
  t.buckets <- Array.make (2 * Array.length old) Nil;
  let rec relink = function
    | Nil -> ()
    | Cons c as cell ->
      let next = c.next in
      let i = index t c.key in
      c.next <- t.buckets.(i);
      t.buckets.(i) <- cell;
      relink next
  in
  Array.iter relink old

(* Whether [key] was bound in the chain, now to [data]. *)
let rec rebind key data = function
  | Nil -> false
  | Cons c ->
    if c.key = key then begin
      c.data <- data;
      true
    end
    else rebind key data c.next

let replace t key data =
  let i = index t key in
  if not (rebind key data t.buckets.(i)) then begin
    t.buckets.(i) <- Cons { key; data; next = t.buckets.(i) };
    t.size <- t.size + 1;
    if t.size > 2 * Array.length t.buckets then grow t
  end

(* Unlink [key]'s cell from bucket [i]'s chain; [prev] is the cell
   before [chain], [Nil] at the head. *)
let rec unlink t i key prev chain =
  match chain with
  | Nil -> ()
  | Cons c ->
    if c.key = key then begin
      (match prev with Nil -> t.buckets.(i) <- c.next | Cons p -> p.next <- c.next);
      t.size <- t.size - 1
    end
    else unlink t i key chain c.next

let remove t key =
  let i = index t key in
  unlink t i key Nil t.buckets.(i)

let iter f t =
  let rec go = function
    | Nil -> ()
    | Cons c ->
      f c.key c.data;
      go c.next
  in
  Array.iter go t.buckets

let fold f t init =
  let rec go acc = function Nil -> acc | Cons c -> go (f c.key c.data acc) c.next in
  Array.fold_left go init t.buckets

(* The cells are mutable, so a copy needs its own: sharing a chain
   would let [replace] or [remove] on one table show in the other. *)
let copy t =
  let rec copy_chain = function
    | Nil -> Nil
    | Cons c -> Cons { key = c.key; data = c.data; next = copy_chain c.next }
  in
  { t with buckets = Array.map copy_chain t.buckets }
