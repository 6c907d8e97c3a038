(* Linear probing over two parallel arrays.  A free slot holds key -1,
   which is why negative keys are rejected; there is no deletion, so a
   probe stops at the first free slot.  The load factor stays at most
   1/2. *)

type t = {
  mutable keys : int array;
  mutable vals : int array;
  mutable shift : int;  (* Sys.int_size - log2 capacity *)
  mutable count : int;
}

let empty = -1

(* Fibonacci hashing: the top log2-capacity bits of the product, so
   keys that differ only in high bits (word indices strided by a page)
   still spread over the table. *)
let multiplier = 0x2545_F491_4F6C_DD1D

let[@inline] home t key = (key * multiplier) lsr t.shift

let create n =
  let bits = ref 4 in
  while 1 lsl !bits < 2 * n do
    incr bits
  done;
  let cap = 1 lsl !bits in
  { keys = Array.make cap empty; vals = Array.make cap 0;
    shift = Sys.int_size - !bits; count = 0 }

let length t = t.count

(* The slot holding [key], or the free slot where it would go. *)
let[@inline] slot t key =
  let keys = t.keys in
  let mask = Array.length keys - 1 in
  let i = ref (home t key) in
  let k = ref (Array.unsafe_get keys !i) in
  while !k <> key && !k <> empty do
    i := (!i + 1) land mask;
    k := Array.unsafe_get keys !i
  done;
  !i

(* The slot holding [key], -1 if it is unbound. *)
let[@inline] index t key =
  if key < 0 then -1
  else
    let i = slot t key in
    if Array.unsafe_get t.keys i = key then i else -1

let mem t key = index t key >= 0

let find t key =
  let i = index t key in
  if i < 0 then raise Not_found else Array.unsafe_get t.vals i

let find_or t key ~default =
  let i = index t key in
  if i < 0 then default else Array.unsafe_get t.vals i

let grow t =
  let keys = t.keys and vals = t.vals in
  let cap = 2 * Array.length keys in
  t.shift <- t.shift - 1;
  t.keys <- Array.make cap empty;
  t.vals <- Array.make cap 0;
  for j = 0 to Array.length keys - 1 do
    let k = Array.unsafe_get keys j in
    if k <> empty then begin
      let i = slot t k in
      Array.unsafe_set t.keys i k;
      Array.unsafe_set t.vals i (Array.unsafe_get vals j)
    end
  done

let replace t key v =
  if key < 0 then invalid_arg "Int_tbl.replace: negative key";
  let i = slot t key in
  if Array.unsafe_get t.keys i = key then Array.unsafe_set t.vals i v
  else begin
    let i =
      if 2 * (t.count + 1) <= Array.length t.keys then i
      else begin
        grow t;
        slot t key
      end
    in
    Array.unsafe_set t.keys i key;
    Array.unsafe_set t.vals i v;
    t.count <- t.count + 1
  end
