open T1000_isa
open T1000_asm
open T1000_machine

type t = {
  program : Program.t;
  counts : int array;
  bitwidth : Bitwidth.t;
  total_instrs : int;
  total_weight : int;
}

let collect ?(max_steps = 1_000_000_000) ?ext_eval ~init program =
  let n = Program.length program in
  let counts = Array.make n 0 in
  let bw = Bitwidth.create ~n_slots:n in
  let mem = Memory.create () in
  let regs = Regfile.create () in
  init mem regs;
  let interp = Interp.create ~regs ~mem ?ext_eval program in
  Interp.set_observer interp (fun i src1 src2 result ->
      counts.(i) <- counts.(i) + 1;
      Bitwidth.record bw i src1 src2 result);
  let total = Interp.run ~max_steps interp in
  let code = Interp.code interp in
  let weight = ref 0 in
  Array.iteri
    (fun i c -> weight := !weight + (c * Instr.latency code.(i)))
    counts;
  { program; counts; bitwidth = bw; total_instrs = total; total_weight = !weight }

let program t = t.program
let count t i = t.counts.(i)
let total_instrs t = t.total_instrs
let total_weight t = t.total_weight
let bitwidth t = t.bitwidth
let instr_width t i = Bitwidth.instr_width t.bitwidth i
let operand_width t i = Bitwidth.operand_width t.bitwidth i

let pp_hot ?(limit = 20) ppf t =
  let idx = Array.init (Array.length t.counts) (fun i -> i) in
  Array.sort (fun a b -> compare t.counts.(b) t.counts.(a)) idx;
  Format.fprintf ppf "@[<v>hottest instructions of %s:@,"
    (Program.name t.program);
  Array.iteri
    (fun rank i ->
      if rank < limit && t.counts.(i) > 0 then
        Format.fprintf ppf "%8d x %4d: %a (w<=%d)@," t.counts.(i) i Instr.pp
          (Program.get t.program i) (instr_width t i))
    idx;
  Format.fprintf ppf "@]"
