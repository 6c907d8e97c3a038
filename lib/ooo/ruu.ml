type entry = {
  ri : int;
  mutable slot : int;
  mutable mem_addr : int;
  mutable eid : int;
  mutable pfu_unit : int;
  mutable min_issue : int;
  mutable dep1 : int;
  mutable dep2 : int;
  mutable dep3 : int;
  mutable issued : bool;
  mutable complete_at : int;
  mutable seq : int;
  mutable id : int;
  mutable pending : int;
  mutable ready_at : int;
  mutable waiters : int;
  mutable in_ready : bool;
  mutable prev_ready : int;
  mutable next_ready : int;
}

type t = {
  ring : entry array;
      (* capacity [mask + 1]: [size] rounded up to a power of two, so a
         seq's ring index is [seq land mask] rather than [seq mod size] *)
  mask : int;
  size : int;  (* the window: occupancy never exceeds it *)
  mutable head : int;  (* seq of oldest in-flight *)
  mutable tail : int;  (* seq of next dispatch *)
  mutable next_id : int;
  (* Ready list: unissued entries whose ready cycle has passed, doubly
     linked through [prev_ready]/[next_ready] (ring indices, -1 = nil)
     in increasing seq order. *)
  mutable first : int;
  mutable last : int;
  (* Pending heap: (ready cycle, ring index, id) of entries whose last
     producer has issued but whose ready cycle is still ahead, a binary
     min-heap on the cycle.  Records of squashed entries stay behind
     and are discarded when they surface (their id no longer matches). *)
  mutable h_at : int array;
  mutable h_ri : int array;
  mutable h_id : int array;
  mutable h_len : int;
  (* Next-cycle list: (ring index, id) of entries whose ready cycle is
     [nc_at], appended in enqueue order.  It takes the common case — no
     unissued producer, [min_issue = now + 1] — off the heap.  Stale
     records are discarded on drain, like heap records. *)
  mutable nc_ri : int array;
  mutable nc_id : int array;
  mutable nc_len : int;
  mutable nc_at : int;
  (* Waiter nodes: node [n] says "consumer at ring index [w_ri.(n)],
     dispatch [w_id.(n)], waits on the producer whose list holds n".
     Lists hang off [entry.waiters] and are threaded through [w_next];
     free nodes form a list from [w_free]. *)
  mutable w_next : int array;
  mutable w_ri : int array;
  mutable w_id : int array;
  mutable w_free : int;
}

let fresh_entry ri =
  {
    ri;
    slot = -1;
    mem_addr = -1;
    eid = -1;
    pfu_unit = -1;
    min_issue = 0;
    dep1 = -1;
    dep2 = -1;
    dep3 = -1;
    issued = false;
    complete_at = max_int;
    seq = -1;
    id = -1;
    pending = 0;
    ready_at = 0;
    waiters = -1;
    in_ready = false;
    prev_ready = -1;
    next_ready = -1;
  }

(* Free-list initialisation of waiter nodes [from, to_) *)
let thread_free t from to_ =
  for n = from to to_ - 1 do
    t.w_next.(n) <- (if n + 1 < to_ then n + 1 else t.w_free)
  done;
  if from < to_ then t.w_free <- from

let create ~size =
  if size <= 0 then invalid_arg "Ruu.create: size <= 0";
  let cap = ref 1 in
  while !cap < size do
    cap := 2 * !cap
  done;
  let heap = 2 * size and nodes = 3 * size in
  let t =
    {
      ring = Array.init !cap fresh_entry;
      mask = !cap - 1;
      size;
      head = 0;
      tail = 0;
      next_id = 0;
      first = -1;
      last = -1;
      h_at = Array.make heap 0;
      h_ri = Array.make heap 0;
      h_id = Array.make heap 0;
      h_len = 0;
      nc_ri = Array.make size 0;
      nc_id = Array.make size 0;
      nc_len = 0;
      nc_at = 0;
      w_next = Array.make nodes (-1);
      w_ri = Array.make nodes 0;
      w_id = Array.make nodes 0;
      w_free = -1;
    }
  in
  thread_free t 0 nodes;
  t

let size t = t.size
let occupancy t = t.tail - t.head
let is_full t = occupancy t >= t.size
let is_empty t = t.tail = t.head
let head_seq t = t.head
let tail_seq t = t.tail

let push t =
  if is_full t then invalid_arg "Ruu.push: full";
  let e = t.ring.(t.tail land t.mask) in
  e.slot <- -1;
  e.mem_addr <- -1;
  e.eid <- -1;
  e.pfu_unit <- -1;
  e.min_issue <- 0;
  e.dep1 <- -1;
  e.dep2 <- -1;
  e.dep3 <- -1;
  e.issued <- false;
  e.complete_at <- max_int;
  e.seq <- t.tail;
  e.id <- t.next_id;
  e.pending <- 0;
  e.ready_at <- 0;
  e.waiters <- -1;
  e.in_ready <- false;
  e.prev_ready <- -1;
  e.next_ready <- -1;
  t.next_id <- t.next_id + 1;
  t.tail <- t.tail + 1;
  e

let in_flight t seq = seq >= t.head && seq < t.tail

(* Out of line, so that [get] stays small enough to inline. *)
let not_in_flight seq =
  invalid_arg (Printf.sprintf "Ruu.get: seq %d not in flight" seq)

let get t seq =
  if not (in_flight t seq) then not_in_flight seq
  else t.ring.(seq land t.mask)

let at t ri = t.ring.(ri)

let pop t =
  if is_empty t then invalid_arg "Ruu.pop: empty";
  let e = t.ring.(t.head land t.mask) in
  t.head <- t.head + 1;
  e

(* ---------- scheduler ---------- *)

let first_ready t = t.first

(* Insert into the seq-ordered ready list, searching from the young
   end: newly ready entries are usually among the youngest. *)
let insert_ready t e =
  let after = ref t.last in
  while !after >= 0 && t.ring.(!after).seq > e.seq do
    after := t.ring.(!after).prev_ready
  done;
  let a = !after in
  let b = if a < 0 then t.first else t.ring.(a).next_ready in
  e.prev_ready <- a;
  e.next_ready <- b;
  if a < 0 then t.first <- e.ri else t.ring.(a).next_ready <- e.ri;
  if b < 0 then t.last <- e.ri else t.ring.(b).prev_ready <- e.ri;
  e.in_ready <- true

(* Unlink from the ready list.  [e.next_ready] is left as it was, so an
   issue walk can step past an entry it just removed. *)
let unlink_ready t e =
  let a = e.prev_ready and b = e.next_ready in
  if a < 0 then t.first <- b else t.ring.(a).next_ready <- b;
  if b < 0 then t.last <- a else t.ring.(b).prev_ready <- a;
  e.in_ready <- false

let grow a len fill =
  let b = Array.make (2 * len) fill in
  Array.blit a 0 b 0 len;
  b

let heap_push t ~at ~ri ~id =
  let cap = Array.length t.h_at in
  if t.h_len = cap then begin
    t.h_at <- grow t.h_at cap 0;
    t.h_ri <- grow t.h_ri cap 0;
    t.h_id <- grow t.h_id cap 0
  end;
  let i = ref t.h_len in
  t.h_len <- t.h_len + 1;
  let continue = ref true in
  while !continue && !i > 0 do
    let parent = (!i - 1) / 2 in
    if t.h_at.(parent) > at then begin
      t.h_at.(!i) <- t.h_at.(parent);
      t.h_ri.(!i) <- t.h_ri.(parent);
      t.h_id.(!i) <- t.h_id.(parent);
      i := parent
    end
    else continue := false
  done;
  t.h_at.(!i) <- at;
  t.h_ri.(!i) <- ri;
  t.h_id.(!i) <- id

(* Remove the root: sift the last record down from the top. *)
let heap_pop t =
  let n = t.h_len - 1 in
  t.h_len <- n;
  if n > 0 then begin
    let at = t.h_at.(n) and ri = t.h_ri.(n) and id = t.h_id.(n) in
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 in
      if l >= n then continue := false
      else begin
        let c = if l + 1 < n && t.h_at.(l + 1) < t.h_at.(l) then l + 1 else l in
        if t.h_at.(c) < at then begin
          t.h_at.(!i) <- t.h_at.(c);
          t.h_ri.(!i) <- t.h_ri.(c);
          t.h_id.(!i) <- t.h_id.(c);
          i := c
        end
        else continue := false
      end
    done;
    t.h_at.(!i) <- at;
    t.h_ri.(!i) <- ri;
    t.h_id.(!i) <- id
  end

(* Move a batch the caller has not drained with [wake] into the heap,
   where it waits for its cycle exactly as if it had been pushed there. *)
let spill_next_cycle t =
  for i = 0 to t.nc_len - 1 do
    heap_push t ~at:t.nc_at ~ri:t.nc_ri.(i) ~id:t.nc_id.(i)
  done;
  t.nc_len <- 0

let next_cycle_push t e ~at =
  if t.nc_len > 0 && t.nc_at <> at then spill_next_cycle t;
  let cap = Array.length t.nc_ri in
  if t.nc_len = cap then begin
    t.nc_ri <- grow t.nc_ri cap 0;
    t.nc_id <- grow t.nc_id cap 0
  end;
  t.nc_ri.(t.nc_len) <- e.ri;
  t.nc_id.(t.nc_len) <- e.id;
  t.nc_len <- t.nc_len + 1;
  t.nc_at <- at

(* All producers have issued: ready now, next cycle, or at [ready_at]. *)
let enqueue t e ~now =
  if e.ready_at <= now then insert_ready t e
  else if e.ready_at = now + 1 then next_cycle_push t e ~at:e.ready_at
  else heap_push t ~at:e.ready_at ~ri:e.ri ~id:e.id

let alloc_node t =
  if t.w_free < 0 then begin
    let cap = Array.length t.w_next in
    t.w_next <- grow t.w_next cap (-1);
    t.w_ri <- grow t.w_ri cap 0;
    t.w_id <- grow t.w_id cap 0;
    thread_free t cap (2 * cap)
  end;
  let n = t.w_free in
  t.w_free <- t.w_next.(n);
  n

let free_waiters t e =
  let n = ref e.waiters in
  while !n >= 0 do
    let next = t.w_next.(!n) in
    t.w_next.(!n) <- t.w_free;
    t.w_free <- !n;
    n := next
  done;
  e.waiters <- -1

let depend t e seq =
  if seq >= 0 && in_flight t seq then begin
    let p = t.ring.(seq land t.mask) in
    if p.issued then begin
      if p.complete_at > e.ready_at then e.ready_at <- p.complete_at
    end
    else begin
      let n = alloc_node t in
      t.w_next.(n) <- p.waiters;
      t.w_ri.(n) <- e.ri;
      t.w_id.(n) <- e.id;
      p.waiters <- n;
      e.pending <- e.pending + 1
    end
  end

let schedule t e ~now =
  e.ready_at <- e.min_issue;
  depend t e e.dep1;
  if e.dep2 <> e.dep1 then depend t e e.dep2;
  if e.dep3 <> e.dep1 && e.dep3 <> e.dep2 then depend t e e.dep3;
  if e.pending = 0 then enqueue t e ~now

let next_wake t =
  let h = if t.h_len > 0 then t.h_at.(0) else max_int in
  if t.nc_len > 0 && t.nc_at < h then t.nc_at else h

let wake t ~now =
  if t.nc_len > 0 && t.nc_at <= now then begin
    for i = 0 to t.nc_len - 1 do
      let e = t.ring.(t.nc_ri.(i)) in
      if e.id = t.nc_id.(i) then insert_ready t e
    done;
    t.nc_len <- 0
  end;
  while t.h_len > 0 && t.h_at.(0) <= now do
    let ri = t.h_ri.(0) and id = t.h_id.(0) in
    heap_pop t;
    let e = t.ring.(ri) in
    if e.id = id then insert_ready t e
  done

let issue t e ~now ~latency =
  e.issued <- true;
  e.complete_at <- now + latency;
  let c = e.complete_at in
  let n = ref e.waiters in
  while !n >= 0 do
    let node = !n in
    let w = t.ring.(t.w_ri.(node)) in
    if w.id = t.w_id.(node) then begin
      if c > w.ready_at then w.ready_at <- c;
      w.pending <- w.pending - 1;
      if w.pending = 0 then enqueue t w ~now
    end;
    n := t.w_next.(node)
  done;
  free_waiters t e;
  if e.in_ready then unlink_ready t e

let truncate t ~tail =
  if tail < t.head || tail > t.tail then
    invalid_arg
      (Printf.sprintf "Ruu.truncate: tail %d outside [%d, %d]" tail t.head
         t.tail);
  for seq = tail to t.tail - 1 do
    let e = t.ring.(seq land t.mask) in
    if e.in_ready then unlink_ready t e;
    free_waiters t e;
    e.id <- -1
  done;
  t.tail <- tail

(* ---------- audits ---------- *)

(* The readiness predicate the per-cycle window scan used before the
   scheduler became event driven: not issued, past its earliest issue
   cycle, and every producer either committed or issued with its
   result available.  Kept only as the reference for [audit_ready]. *)
let scan_ready t e ~now =
  let dep_ready seq =
    seq < 0
    || (not (in_flight t seq))
    ||
    let p = t.ring.(seq land t.mask) in
    p.issued && p.complete_at <= now
  in
  (not e.issued)
  && now >= e.min_issue
  && dep_ready e.dep1 && dep_ready e.dep2 && dep_ready e.dep3

let audit_ready t ~now =
  (* walk the window and the ready list side by side *)
  let rec go seq ri =
    if seq >= t.tail then
      if ri < 0 then None
      else
        Some
          (Printf.sprintf "ready list holds seq %d outside the window"
             t.ring.(ri).seq)
    else begin
      let e = t.ring.(seq land t.mask) in
      let listed = ri >= 0 && ri = e.ri in
      let expected = scan_ready t e ~now in
      if listed <> expected || listed <> e.in_ready then
        Some
          (Printf.sprintf
             "seq %d (slot %d) is %s the ready list but %s ready at cycle %d"
             seq e.slot
             (if listed then "on" else "off")
             (if expected then "is" else "is not")
             now)
      else go (seq + 1) (if listed then e.next_ready else ri)
    end
  in
  go t.head t.first

let audit_waiting t =
  (* live records per ring index, and the cycle the last one carries *)
  let count = Array.make (Array.length t.ring) 0 in
  let rec_at = Array.make (Array.length t.ring) 0 in
  let note ri id at =
    if t.ring.(ri).id = id then begin
      count.(ri) <- count.(ri) + 1;
      rec_at.(ri) <- at
    end
  in
  for i = 0 to t.nc_len - 1 do
    note t.nc_ri.(i) t.nc_id.(i) t.nc_at
  done;
  for i = 0 to t.h_len - 1 do
    note t.h_ri.(i) t.h_id.(i) t.h_at.(i)
  done;
  let wake_at = next_wake t in
  let rec go seq =
    if seq >= t.tail then None
    else begin
      let e = t.ring.(seq land t.mask) in
      let n = count.(e.ri) in
      count.(e.ri) <- 0;
      let waiting = (not e.issued) && e.pending = 0 && not e.in_ready in
      if waiting && n <> 1 then
        Some
          (Printf.sprintf
             "seq %d (slot %d) waits for cycle %d with %d live wake records"
             seq e.slot e.ready_at n)
      else if (not waiting) && n > 0 then
        Some
          (Printf.sprintf "seq %d (slot %d) is not waiting but has %d live \
                           wake records"
             seq e.slot n)
      else if waiting && rec_at.(e.ri) <> e.ready_at then
        Some
          (Printf.sprintf "seq %d (slot %d) is ready at cycle %d but its wake \
                           record says %d"
             seq e.slot e.ready_at rec_at.(e.ri))
      else if waiting && wake_at > e.ready_at then
        Some
          (Printf.sprintf "next wake %d is after seq %d's ready cycle %d"
             wake_at seq e.ready_at)
      else go (seq + 1)
    end
  in
  match go t.head with
  | Some _ as v -> v
  | None -> (
      (* the window's counts were cleared: what is left is outside it *)
      match Array.find_index (fun n -> n > 0) count with
      | Some ri ->
          Some
            (Printf.sprintf "ring slot %d is outside the window but has a live \
                             wake record"
               ri)
      | None -> None)

let selfcheck t =
  if t.head > t.tail then
    Some (Printf.sprintf "head seq %d is ahead of tail seq %d" t.head t.tail)
  else if occupancy t > t.size then
    Some
      (Printf.sprintf "occupancy %d exceeds window size %d" (occupancy t)
         t.size)
  else begin
    let rec go seq =
      if seq >= t.tail then None
      else begin
        let e = t.ring.(seq land t.mask) in
        if e.seq <> seq then
          Some
            (Printf.sprintf "ring slot %d holds seq %d, expected %d"
               (seq land t.mask) e.seq seq)
        else if e.dep1 >= seq || e.dep2 >= seq || e.dep3 >= seq then
          Some
            (Printf.sprintf
               "entry seq %d depends on a producer no older than itself \
                (deps %d/%d/%d)"
               seq e.dep1 e.dep2 e.dep3)
        else if e.issued && e.complete_at = max_int then
          Some
            (Printf.sprintf "entry seq %d issued without a completion time"
               seq)
        else if (not e.issued) && e.complete_at <> max_int then
          Some
            (Printf.sprintf "entry seq %d has a completion time but never \
                             issued"
               seq)
        else if e.pending < 0 || (e.issued && e.pending <> 0) then
          Some
            (Printf.sprintf "entry seq %d counts %d unissued producers" seq
               e.pending)
        else go (seq + 1)
      end
    in
    go t.head
  end
