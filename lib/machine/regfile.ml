open T1000_isa

(* Slots 0-31 are the GPRs; 32 is HI, 33 is LO. *)
type t = { regs : int array }

let create () = { regs = Array.make Instr.dep_reg_count 0 }
let get t r = Array.unsafe_get t.regs (r : Reg.t :> int)

let set t r v =
  let i = (r : Reg.t :> int) in
  if i <> 0 then Array.unsafe_set t.regs i v

let hi t = t.regs.(Instr.hi_reg)
let lo t = t.regs.(Instr.lo_reg)
let set_hi t v = t.regs.(Instr.hi_reg) <- v
let set_lo t v = t.regs.(Instr.lo_reg) <- v
let reset t = Array.fill t.regs 0 (Array.length t.regs) 0
let copy t = { regs = Array.copy t.regs }

let pp ppf t =
  Format.fprintf ppf "@[<v>";
  for i = 0 to 31 do
    Format.fprintf ppf "r%-2d = %a@," i Word.pp t.regs.(i)
  done;
  Format.fprintf ppf "hi  = %a@,lo  = %a@]" Word.pp (hi t) Word.pp (lo t)
