open T1000_isa

type fu = Alu | Mult | Load | Store | Pfu | No_fu
type control = Not_control | Cond_branch | Direct_jump | Indirect_jump

type slot = {
  fu : fu;
  latency : int;
  use1 : int;
  use2 : int;
  def1 : int;
  def2 : int;
  control : control;
  target : int;
  ext : int;
  cfgld : int;
}

type t = {
  instrs : Instr.t array;
  slots : slot array;
}

let fu_of (i : Instr.t) =
  match Instr.fu_class i with
  | Op.Fu_int_alu | Op.Fu_branch -> Alu
  | Op.Fu_int_mult | Op.Fu_int_div -> Mult
  | Op.Fu_mem_read -> Load
  | Op.Fu_mem_write -> Store
  | Op.Fu_pfu -> Pfu
  | Op.Fu_none -> No_fu

let two = function
  | [] -> (-1, -1)
  | [ a ] -> (a, -1)
  | a :: b :: _ -> (a, b)

let decode (i : Instr.t) =
  let use1, use2 = two (Instr.uses i) and def1, def2 = two (Instr.defs i) in
  let control, target =
    match i with
    | Instr.Branch (_, _, _, t) -> (Cond_branch, t)
    | Instr.Jump t | Instr.Jal t -> (Direct_jump, t)
    | Instr.Jr _ | Instr.Jalr _ -> (Indirect_jump, -1)
    | _ -> (Not_control, -1)
  in
  {
    fu = fu_of i;
    latency = Instr.latency i;
    use1;
    use2;
    def1;
    def2;
    control;
    target;
    ext = (match i with Instr.Ext { eid; _ } -> eid | _ -> -1);
    cfgld = (match i with Instr.Cfgld eid -> eid | _ -> -1);
  }

let of_code instrs = { instrs; slots = Array.map decode instrs }
