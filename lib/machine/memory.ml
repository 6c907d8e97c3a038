open T1000_isa

let page_bits = 12
let page_bytes = 1 lsl page_bits
let page_mask = page_bytes - 1

(* A 32-bit address is [dir:10 | table:10 | offset:12].  A missing
   table is [no_table], a missing page [Bytes.empty]. *)
let table_bits = 10
let table_mask = (1 lsl table_bits) - 1
let dir_size = 1 lsl (32 - page_bits - table_bits)
let no_table : Bytes.t array = [||]

type t = {
  dir : Bytes.t array array;
  mutable pages : int;
  (* The page of the last lookup that found one: accesses cluster, so
     most of them skip the directory walk.  [last_key] (the address
     shifted right by [page_bits]) is -1 when empty. *)
  mutable last_key : int;
  mutable last_page : Bytes.t;
}

let create () =
  { dir = Array.make dir_size no_table; pages = 0; last_key = -1;
    last_page = Bytes.empty }

(* The allocated page holding key, or [Bytes.empty] if there is none.
   Keys come from normalized addresses, so both indices are in range. *)
let find_page t key =
  if key = t.last_key then t.last_page
  else
    let table = Array.unsafe_get t.dir (key lsr table_bits) in
    if table == no_table then Bytes.empty
    else begin
      let p = Array.unsafe_get table (key land table_mask) in
      if p != Bytes.empty then begin
        t.last_key <- key;
        t.last_page <- p
      end;
      p
    end

let page_of t addr =
  let key = addr lsr page_bits in
  let p = find_page t key in
  if p != Bytes.empty then p
  else begin
    let d = key lsr table_bits in
    let table =
      let table = t.dir.(d) in
      if table != no_table then table
      else begin
        let table = Array.make (1 lsl table_bits) Bytes.empty in
        t.dir.(d) <- table;
        table
      end
    in
    let p = Bytes.make page_bytes '\000' in
    table.(key land table_mask) <- p;
    t.pages <- t.pages + 1;
    p
  end

let normalize addr = addr land 0xFFFF_FFFF

let load_byte t addr =
  let addr = normalize addr in
  let p = find_page t (addr lsr page_bits) in
  if p == Bytes.empty then 0
  else Char.code (Bytes.unsafe_get p (addr land page_mask))

let store_byte t addr v =
  let addr = normalize addr in
  let p = page_of t addr in
  Bytes.unsafe_set p (addr land page_mask) (Char.unsafe_chr (v land 0xFF))

let load_half t addr = load_byte t addr lor (load_byte t (addr + 1) lsl 8)

let store_half t addr v =
  store_byte t addr v;
  store_byte t (addr + 1) (v lsr 8)

let load_word t addr =
  let addr = normalize addr in
  (* Fast path: word within one page. *)
  if addr land page_mask <= page_bytes - 4 then
    let p = find_page t (addr lsr page_bits) in
    if p == Bytes.empty then 0
    else begin
      let off = addr land page_mask in
      let b0 = Char.code (Bytes.unsafe_get p off)
      and b1 = Char.code (Bytes.unsafe_get p (off + 1))
      and b2 = Char.code (Bytes.unsafe_get p (off + 2))
      and b3 = Char.code (Bytes.unsafe_get p (off + 3)) in
      Word.sext32 (b0 lor (b1 lsl 8) lor (b2 lsl 16) lor (b3 lsl 24))
    end
  else
    Word.sext32
      (load_byte t addr
      lor (load_byte t (addr + 1) lsl 8)
      lor (load_byte t (addr + 2) lsl 16)
      lor (load_byte t (addr + 3) lsl 24))

let store_word t addr v =
  let addr = normalize addr in
  let v = Word.to_u32 v in
  if addr land page_mask <= page_bytes - 4 then begin
    let p = page_of t addr in
    let off = addr land page_mask in
    Bytes.unsafe_set p off (Char.unsafe_chr (v land 0xFF));
    Bytes.unsafe_set p (off + 1) (Char.unsafe_chr ((v lsr 8) land 0xFF));
    Bytes.unsafe_set p (off + 2) (Char.unsafe_chr ((v lsr 16) land 0xFF));
    Bytes.unsafe_set p (off + 3) (Char.unsafe_chr ((v lsr 24) land 0xFF))
  end
  else begin
    store_byte t addr v;
    store_byte t (addr + 1) (v lsr 8);
    store_byte t (addr + 2) (v lsr 16);
    store_byte t (addr + 3) (v lsr 24)
  end

let clear t =
  Array.fill t.dir 0 dir_size no_table;
  t.pages <- 0;
  t.last_key <- -1;
  t.last_page <- Bytes.empty

let touched_pages t = t.pages

let blit_words t addr ws =
  Array.iteri (fun i w -> store_word t (addr + (4 * i)) w) ws

let read_words t addr n = Array.init n (fun i -> load_word t (addr + (4 * i)))
