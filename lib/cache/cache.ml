type t = {
  name : string;
  sets : int;
  ways : int;
  line_bytes : int;
  line_shift : int;
  set_mask : int;
  (* tags.(set * ways + way): line address (addr lsr line_shift), -1 empty *)
  tags : int array;
  (* lru.(set * ways + way): age, 0 = most recent *)
  lru : int array;
  dirty : bool array;
  mutable accesses : int;
  mutable misses : int;
  mutable writebacks : int;
}

type access_result = {
  hit : bool;
  dirty_evict : int;
}

let is_pow2 n = n > 0 && n land (n - 1) = 0

let log2 n =
  let rec go n acc = if n <= 1 then acc else go (n lsr 1) (acc + 1) in
  go n 0

let create ~name ~sets ~ways ~line_bytes =
  if not (is_pow2 sets) then invalid_arg "Cache.create: sets not a power of 2";
  if ways <= 0 then invalid_arg "Cache.create: ways <= 0";
  if not (is_pow2 line_bytes) then
    invalid_arg "Cache.create: line_bytes not a power of 2";
  (* Way [w] of every set starts at age [w].  Filled by a loop over an
     int array: a polymorphic [Array.init] costs more than the rest of
     the hierarchy's construction, which every [Sim.run] pays. *)
  let lru = Array.make (sets * ways) 0 in
  for set = 0 to sets - 1 do
    for way = 1 to ways - 1 do
      lru.((set * ways) + way) <- way
    done
  done;
  {
    name;
    sets;
    ways;
    line_bytes;
    line_shift = log2 line_bytes;
    set_mask = sets - 1;
    tags = Array.make (sets * ways) (-1);
    lru;
    dirty = Array.make (sets * ways) false;
    accesses = 0;
    misses = 0;
    writebacks = 0;
  }

let find_way t set line =
  let base = set * t.ways in
  let w = ref 0 in
  while !w < t.ways && t.tags.(base + !w) <> line do
    incr w
  done;
  if !w < t.ways then !w else -1

let touch t set way =
  (* Make [way] most-recently-used: increment ages below its current
     age (nothing to do when it already is). *)
  let base = set * t.ways in
  let age = t.lru.(base + way) in
  if age <> 0 then begin
    for w = 0 to t.ways - 1 do
      if t.lru.(base + w) < age then t.lru.(base + w) <- t.lru.(base + w) + 1
    done;
    t.lru.(base + way) <- 0
  end

let victim_way t set =
  (* prefer the first empty way, else the oldest *)
  let base = set * t.ways in
  let best = ref 0 and best_age = ref (-1) and w = ref 0 in
  while !w < t.ways do
    if t.tags.(base + !w) = -1 then begin
      best := !w;
      w := t.ways
    end
    else begin
      if t.lru.(base + !w) > !best_age then begin
        best := !w;
        best_age := t.lru.(base + !w)
      end;
      incr w
    end
  done;
  !best

let access t ~addr ~write =
  t.accesses <- t.accesses + 1;
  let line = addr lsr t.line_shift in
  let set = line land t.set_mask in
  let way = find_way t set line in
  if way >= 0 then begin
    touch t set way;
    if write then t.dirty.((set * t.ways) + way) <- true;
    { hit = true; dirty_evict = -1 }
  end
  else begin
    t.misses <- t.misses + 1;
    let way = victim_way t set in
    let slot = (set * t.ways) + way in
    let evicted =
      if t.tags.(slot) >= 0 && t.dirty.(slot) then begin
        t.writebacks <- t.writebacks + 1;
        t.tags.(slot) lsl t.line_shift
      end
      else -1
    in
    t.tags.(slot) <- line;
    t.dirty.(slot) <- write;
    touch t set way;
    { hit = false; dirty_evict = evicted }
  end

let probe t ~addr =
  let line = addr lsr t.line_shift in
  let set = line land t.set_mask in
  find_way t set line >= 0

let name t = t.name
let size_bytes t = t.sets * t.ways * t.line_bytes
let line_bytes t = t.line_bytes
let accesses t = t.accesses
let misses t = t.misses
let writebacks t = t.writebacks

let miss_rate t =
  if t.accesses = 0 then 0.0 else float_of_int t.misses /. float_of_int t.accesses

let reset_stats t =
  t.accesses <- 0;
  t.misses <- 0;
  t.writebacks <- 0

let flush t =
  Array.fill t.tags 0 (Array.length t.tags) (-1);
  Array.fill t.dirty 0 (Array.length t.dirty) false

let pp_stats ppf t =
  Format.fprintf ppf "%s: %d accesses, %d misses (%.2f%%), %d writebacks"
    t.name t.accesses t.misses (100.0 *. miss_rate t) t.writebacks
