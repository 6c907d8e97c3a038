open T1000_isa

(* Per slot, the OR of the sign-normalised magnitudes seen so far; a
   width is read off it only when queried (bitwidth.mli: why that is
   exact). *)
type t = {
  res : int array;
  opd : int array;
  seen : bool array;
}

let create ~n_slots =
  {
    res = Array.make n_slots 0;
    opd = Array.make n_slots 0;
    seen = Array.make n_slots false;
  }

let magnitude v = v lxor (v asr (Sys.int_size - 1))

let record t i src1 src2 result =
  t.seen.(i) <- true;
  t.res.(i) <- t.res.(i) lor magnitude result;
  t.opd.(i) <- t.opd.(i) lor magnitude src1 lor magnitude src2

let executed t i = t.seen.(i)
let result_width t i = if t.seen.(i) then Word.width_signed t.res.(i) else 32

let operand_width t i =
  if t.seen.(i) then Word.width_signed t.opd.(i) else 32

let instr_width t i = max (result_width t i) (operand_width t i)

let pp ppf t =
  Format.fprintf ppf "@[<v>";
  Array.iteri
    (fun i seen ->
      if seen then
        Format.fprintf ppf "%4d: opd<=%2d res<=%2d@," i (operand_width t i)
          (result_width t i))
    t.seen;
  Format.fprintf ppf "@]"
