open T1000_machine

type unit_state = {
  mutable conf : int;  (* -1 = empty *)
  mutable ready_at : int;
  mutable last_use : int;
  mutable loaded_at : int;  (* for FIFO *)
  mutable pins : int;
}

type t = {
  units : unit_state array;  (* limited mode *)
  unlimited : int Int_tbl.t;  (* conf -> ready_at *)
  is_unlimited : bool;
  penalty : int;
  replacement : Mconfig.pfu_replacement;
  mutable rng : int;
  mutable hits : int;
  mutable misses : int;
  mutable stalls : int;
  mutable prefetches : int;
}

let create ~n ~penalty ~replacement =
  let n_units, is_unlimited =
    match n with Some n -> (max n 0, false) | None -> (0, true)
  in
  {
    units =
      Array.init n_units (fun _ ->
          { conf = -1; ready_at = 0; last_use = -1; loaded_at = -1; pins = 0 });
    unlimited = Int_tbl.create 64;
    is_unlimited;
    penalty;
    replacement;
    rng = 0x2545F491;
    hits = 0;
    misses = 0;
    stalls = 0;
    prefetches = 0;
  }

type outcome =
  | Ready of {
      unit_id : int;
      at : int;
      hit : bool;
    }
  | Stall

let next_rng t =
  (* xorshift, deterministic across runs *)
  let x = t.rng in
  let x = x lxor (x lsl 13) in
  let x = x lxor (x lsr 7) in
  let x = (x lxor (x lsl 17)) land max_int in
  t.rng <- x;
  x

(* Unlimited mode: the unit is the configuration itself. *)
let claim_unlimited t ~now ~conf =
  if Int_tbl.mem t.unlimited conf then t.hits <- t.hits + 1
  else begin
    t.misses <- t.misses + 1;
    Int_tbl.replace t.unlimited conf (now + t.penalty)
  end;
  conf

let find_conf t conf =
  let n = Array.length t.units in
  let i = ref 0 in
  while !i < n && t.units.(!i).conf <> conf do
    incr i
  done;
  if !i < n then !i else -1

(* The unit a load may overwrite, -1 when every unit is pinned: the
   first empty unpinned unit; else, among the unpinned units in index
   order, the first with the strictly smallest last use (LRU) or load
   time (FIFO), or the [next_rng mod count]-th (Random_det). *)
let pick_victim t =
  let n = Array.length t.units in
  let empty = ref (-1) and i = ref 0 in
  while !empty < 0 && !i < n do
    let u = t.units.(!i) in
    if u.conf = -1 && u.pins = 0 then empty := !i;
    incr i
  done;
  if !empty >= 0 then !empty
  else
    match t.replacement with
    | Mconfig.Lru | Mconfig.Fifo ->
        let lru = t.replacement = Mconfig.Lru in
        let best = ref (-1) and best_stamp = ref 0 in
        for i = 0 to n - 1 do
          let u = t.units.(i) in
          if u.pins = 0 then begin
            let stamp = if lru then u.last_use else u.loaded_at in
            if !best < 0 || stamp < !best_stamp then begin
              best := i;
              best_stamp := stamp
            end
          end
        done;
        !best
    | Mconfig.Random_det ->
        let count = ref 0 in
        for i = 0 to n - 1 do
          if t.units.(i).pins = 0 then incr count
        done;
        if !count = 0 then -1
        else begin
          let k = ref (next_rng t mod !count) and v = ref (-1) and i = ref 0 in
          while !v < 0 do
            if t.units.(!i).pins = 0 then
              if !k = 0 then v := !i else decr k;
            incr i
          done;
          !v
        end

let claim t ~now ~conf =
  if t.is_unlimited then claim_unlimited t ~now ~conf
  else if Array.length t.units = 0 then -1
  else begin
    let i = find_conf t conf in
    if i >= 0 then begin
      let u = t.units.(i) in
      t.hits <- t.hits + 1;
      u.last_use <- now;
      u.pins <- u.pins + 1;
      i
    end
    else begin
      match pick_victim t with
      | -1 ->
          t.stalls <- t.stalls + 1;
          -1
      | v ->
          let u = t.units.(v) in
          t.misses <- t.misses + 1;
          u.conf <- conf;
          u.ready_at <- now + t.penalty;
          u.last_use <- now;
          u.loaded_at <- now;
          u.pins <- 1;
          v
    end
  end

let ready_at t ~unit_id =
  if t.is_unlimited then Int_tbl.find t.unlimited unit_id
  else t.units.(unit_id).ready_at

let request t ~now ~conf =
  let hits = t.hits in
  match claim t ~now ~conf with
  | -1 -> Stall
  | unit_id ->
      Ready
        { unit_id; at = max now (ready_at t ~unit_id); hit = t.hits > hits }

let prefetch t ~now ~conf =
  if t.is_unlimited then begin
    if not (Int_tbl.mem t.unlimited conf) then begin
      t.prefetches <- t.prefetches + 1;
      Int_tbl.replace t.unlimited conf (now + t.penalty)
    end
  end
  else if Array.length t.units > 0 && find_conf t conf < 0 then begin
    (* best-effort: load into an unpinned victim, or silently give up *)
    match pick_victim t with
    | -1 -> ()
    | v ->
        let u = t.units.(v) in
        t.prefetches <- t.prefetches + 1;
        u.conf <- conf;
        u.ready_at <- now + t.penalty;
        u.last_use <- now;
        u.loaded_at <- now;
        u.pins <- 0
  end

let release t ~unit_id =
  if not t.is_unlimited then begin
    let u = t.units.(unit_id) in
    if u.pins > 0 then u.pins <- u.pins - 1
  end

let selfcheck t =
  if t.hits < 0 || t.misses < 0 || t.stalls < 0 || t.prefetches < 0 then
    Some
      (Printf.sprintf
         "negative counter (hits %d, misses %d, stalls %d, prefetches %d)"
         t.hits t.misses t.stalls t.prefetches)
  else if t.is_unlimited then None
  else begin
    let n = Array.length t.units in
    let rec go i =
      if i >= n then None
      else begin
        let u = t.units.(i) in
        if u.pins < 0 then
          Some (Printf.sprintf "unit %d has negative pin count %d" i u.pins)
        else begin
          let rec dup j =
            if j >= n then -1
            else if u.conf >= 0 && t.units.(j).conf = u.conf then j
            else dup (j + 1)
          in
          match dup (i + 1) with
          | -1 -> go (i + 1)
          | j ->
              Some
                (Printf.sprintf
                   "configuration %d loaded in units %d and %d" u.conf i j)
        end
      end
    in
    go 0
  end

let charge_stalls t n = t.stalls <- t.stalls + n
let hits t = t.hits
let misses t = t.misses
let prefetches t = t.prefetches
let reconfigs t = t.misses
let stalls t = t.stalls

let pp_stats ppf t =
  Format.fprintf ppf "pfu: %d hits, %d misses/reconfigs, %d dispatch stalls"
    t.hits t.misses t.stalls
