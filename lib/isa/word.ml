type t = int

let mask32 = 0xFFFF_FFFF

let sext32 v =
  let v = v land mask32 in
  if v land 0x8000_0000 <> 0 then v - 0x1_0000_0000 else v

let to_u32 v = v land mask32

let add a b = sext32 (a + b)
let sub a b = sext32 (a - b)
let mul_lo a b = sext32 (a * b)

let mul_hi_signed a b =
  (* Products of two 32-bit values fit in a 63-bit OCaml int only up to
     62 bits of magnitude; 32x32 -> 64 can overflow by one bit.  Split one
     operand to stay exact. *)
  let a_lo = a land 0xFFFF and a_hi = a asr 16 in
  let p_lo = a_lo * b and p_hi = a_hi * b in
  let full_shifted = p_hi + (p_lo asr 16) in
  sext32 (full_shifted asr 16)

let mul_hi_unsigned a b =
  let a = to_u32 a and b = to_u32 b in
  let a_lo = a land 0xFFFF and a_hi = a lsr 16 in
  let p_lo = a_lo * b and p_hi = a_hi * b in
  let full_shifted = p_hi + (p_lo lsr 16) in
  sext32 (full_shifted lsr 16)

let div_signed a b =
  if b = 0 then (0, a)
  else (sext32 (a / b), sext32 (a mod b))

let div_unsigned a b =
  let a = to_u32 a and b = to_u32 b in
  if b = 0 then (0, sext32 a)
  else (sext32 (a / b), sext32 (a mod b))

let logand a b = sext32 (a land b)
let logor a b = sext32 (a lor b)
let logxor a b = sext32 (a lxor b)
let lognor a b = sext32 (lnot (a lor b))

let sll a sh = sext32 (a lsl (sh land 31))
let srl a sh = sext32 (to_u32 a lsr (sh land 31))
let sra a sh = sext32 (a asr (sh land 31))
let slt a b = if a < b then 1 else 0
let sltu a b = if to_u32 a < to_u32 b then 1 else 0

let sext8 v =
  let v = v land 0xFF in
  if v land 0x80 <> 0 then v - 0x100 else v

let sext16 v =
  let v = v land 0xFFFF in
  if v land 0x8000 <> 0 then v - 0x1_0000 else v

let zext8 v = v land 0xFF
let zext16 v = v land 0xFFFF

let bits_for_nonneg v =
  (* Minimum bits to hold a non-negative value (ignoring sign bit): a
     fixed binary-search cascade over the position of the leading one,
     six steps for any native int instead of one step per bit. *)
  let v = ref v and n = ref 0 in
  if !v lsr 32 <> 0 then begin n := 32; v := !v lsr 32 end;
  if !v lsr 16 <> 0 then begin n := !n + 16; v := !v lsr 16 end;
  if !v lsr 8 <> 0 then begin n := !n + 8; v := !v lsr 8 end;
  if !v lsr 4 <> 0 then begin n := !n + 4; v := !v lsr 4 end;
  if !v lsr 2 <> 0 then begin n := !n + 2; v := !v lsr 2 end;
  if !v lsr 1 <> 0 then begin n := !n + 1; v := !v lsr 1 end;
  !n + !v

let width_signed v =
  if v >= 0 then 1 + bits_for_nonneg v
  else 1 + bits_for_nonneg (lnot v)

let width_unsigned v =
  let v = to_u32 v in
  if v = 0 then 1 else bits_for_nonneg v

let pp ppf v = Format.fprintf ppf "0x%08x" (to_u32 v)
