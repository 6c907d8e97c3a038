type t = {
  name : string;
  page_shift : int;
  pages : int array;  (* -1 = empty *)
  (* Recency as a last-use stamp per entry: the larger, the more
     recent.  Stamps are distinct, so they order the entries exactly
     as LRU ages would, and a touch is one store instead of an age
     update across the whole TLB. *)
  last_use : int array;
  mutable clock : int;
  mutable mru : int;  (* the most recently used entry *)
  mutable accesses : int;
  mutable misses : int;
}

let is_pow2 n = n > 0 && n land (n - 1) = 0

let log2 n =
  let rec go n acc = if n <= 1 then acc else go (n lsr 1) (acc + 1) in
  go n 0

let create ~name ~entries ~page_bytes =
  if entries <= 0 then invalid_arg "Tlb.create: entries <= 0";
  if not (is_pow2 page_bytes) then
    invalid_arg "Tlb.create: page_bytes not a power of 2";
  {
    name;
    page_shift = log2 page_bytes;
    pages = Array.make entries (-1);
    (* entry 0 most recent, entry [entries - 1] least *)
    last_use = Array.init entries (fun i -> -i);
    clock = 1;
    mru = 0;
    accesses = 0;
    misses = 0;
  }

let touch t i =
  t.last_use.(i) <- t.clock;
  t.clock <- t.clock + 1;
  t.mru <- i

let find t page =
  let n = Array.length t.pages in
  let i = ref 0 in
  while !i < n && t.pages.(!i) <> page do
    incr i
  done;
  if !i < n then !i else -1

(* Victim: the first empty entry if any, else the least recently
   used. *)
let victim t =
  let n = Array.length t.pages in
  let best = ref 0 and best_use = ref max_int and i = ref 0 in
  while !i < n do
    if t.pages.(!i) = -1 then begin
      best := !i;
      i := n
    end
    else begin
      if t.last_use.(!i) < !best_use then begin
        best := !i;
        best_use := t.last_use.(!i)
      end;
      incr i
    end
  done;
  !best

let access t ~addr =
  t.accesses <- t.accesses + 1;
  let page = addr lsr t.page_shift in
  (* Repeat hit on the most recent page: touching the most recent
     entry leaves the recency order as it is, so skipping the touch is
     exact, not a shortcut. *)
  if t.pages.(t.mru) = page then true
  else begin
    let i = find t page in
    if i >= 0 then begin
      touch t i;
      true
    end
    else begin
      t.misses <- t.misses + 1;
      let v = victim t in
      t.pages.(v) <- page;
      touch t v;
      false
    end
  end

let name t = t.name
let accesses t = t.accesses
let misses t = t.misses

let miss_rate t =
  if t.accesses = 0 then 0.0
  else float_of_int t.misses /. float_of_int t.accesses

let reset_stats t =
  t.accesses <- 0;
  t.misses <- 0

let flush t = Array.fill t.pages 0 (Array.length t.pages) (-1)

let pp_stats ppf t =
  Format.fprintf ppf "%s: %d accesses, %d misses (%.2f%%)" t.name t.accesses
    t.misses (100.0 *. miss_rate t)
