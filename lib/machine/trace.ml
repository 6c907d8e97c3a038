open T1000_isa

type entry = {
  index : int;
  instr : Instr.t;
  mem_addr : int;
}

let pp_entry ppf e =
  if e.mem_addr >= 0 then
    Format.fprintf ppf "%6d: %a  [0x%08x]" e.index Instr.pp e.instr e.mem_addr
  else Format.fprintf ppf "%6d: %a" e.index Instr.pp e.instr
