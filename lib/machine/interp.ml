open T1000_isa
open T1000_asm

exception Fault of string

let fault fmt = Format.kasprintf (fun s -> raise (Fault s)) fmt

type t = {
  program : Program.t;
  code : Instr.t array;  (* unshared copy for fast unsafe access *)
  regs : Regfile.t;
  mem : Memory.t;
  ext_eval : int -> Word.t -> Word.t -> Word.t;
  mutable pc : int;
  mutable halted : bool;
  mutable steps : int;
  mutable mem_addr : int;  (* effective address of the last [exec] *)
  mutable observer : (int -> Word.t -> Word.t -> Word.t -> unit) option;
}

let no_ext eid _ _ = fault "extended instruction %d has no evaluator" eid

let create ?regs ?mem ?(ext_eval = no_ext) program =
  let regs = match regs with Some r -> r | None -> Regfile.create () in
  let mem = match mem with Some m -> m | None -> Memory.create () in
  {
    program;
    code = Program.instrs program;
    regs;
    mem;
    ext_eval;
    pc = 0;
    halted = false;
    steps = 0;
    mem_addr = -1;
    observer = None;
  }

let set_observer t f = t.observer <- Some f
let clear_observer t = t.observer <- None
let pc t = t.pc
let halted t = t.halted
let steps t = t.steps
let mem t = t.mem
let regs t = t.regs
let program t = t.program
let code t = t.code
let mem_addr t = t.mem_addr

let check_align addr n =
  if addr land (n - 1) <> 0 then
    fault "unaligned %d-byte access at 0x%08x" n addr

let alu_eval (op : Op.alu) a b =
  match op with
  | Op.Add | Op.Addu -> Word.add a b
  | Op.Sub | Op.Subu -> Word.sub a b
  | Op.And -> Word.logand a b
  | Op.Or -> Word.logor a b
  | Op.Xor -> Word.logxor a b
  | Op.Nor -> Word.lognor a b
  | Op.Slt -> Word.slt a b
  | Op.Sltu -> Word.sltu a b

let shift_eval (op : Op.shift) v sh =
  match op with
  | Op.Sll -> Word.sll v sh
  | Op.Srl -> Word.srl v sh
  | Op.Sra -> Word.sra v sh

let exec t =
  if t.halted then -1
  else begin
    let n = Array.length t.code in
    if t.pc < 0 || t.pc >= n then
      fault "execution left the program at slot %d" t.pc;
    let index = t.pc in
    let instr = Array.unsafe_get t.code index in
    let regs = t.regs in
    (* Observation bookkeeping (cheap; only consulted when an observer is
       installed). *)
    let o_src1 = ref 0 and o_src2 = ref 0 and o_result = ref 0 in
    let mem_addr = ref (-1) in
    let next = ref (index + 1) in
    (match instr with
    | Instr.Alu_rrr (op, rd, rs, rt) ->
        let a = Regfile.get regs rs and b = Regfile.get regs rt in
        let v = alu_eval op a b in
        o_src1 := a;
        o_src2 := b;
        o_result := v;
        Regfile.set regs rd v
    | Instr.Alu_rri (op, rt, rs, imm) ->
        let a = Regfile.get regs rs in
        let v = alu_eval op a (Word.sext32 imm) in
        o_src1 := a;
        o_src2 := imm;
        o_result := v;
        Regfile.set regs rt v
    | Instr.Shift_imm (op, rd, rt, sh) ->
        let a = Regfile.get regs rt in
        let v = shift_eval op a sh in
        o_src1 := a;
        o_src2 := sh;
        o_result := v;
        Regfile.set regs rd v
    | Instr.Shift_reg (op, rd, rt, rs) ->
        let a = Regfile.get regs rt and sh = Regfile.get regs rs in
        let v = shift_eval op a (sh land 31) in
        o_src1 := a;
        o_src2 := sh;
        o_result := v;
        Regfile.set regs rd v
    | Instr.Lui (rt, imm) ->
        let v = Word.sext32 (imm lsl 16) in
        o_result := v;
        Regfile.set regs rt v
    | Instr.Muldiv (op, rs, rt) ->
        let a = Regfile.get regs rs and b = Regfile.get regs rt in
        o_src1 := a;
        o_src2 := b;
        (match op with
        | Op.Mult ->
            Regfile.set_lo regs (Word.mul_lo a b);
            Regfile.set_hi regs (Word.mul_hi_signed a b)
        | Op.Multu ->
            Regfile.set_lo regs (Word.mul_lo a b);
            Regfile.set_hi regs (Word.mul_hi_unsigned a b)
        | Op.Div ->
            let q, r = Word.div_signed a b in
            Regfile.set_lo regs q;
            Regfile.set_hi regs r
        | Op.Divu ->
            let q, r = Word.div_unsigned a b in
            Regfile.set_lo regs q;
            Regfile.set_hi regs r);
        o_result := Regfile.lo regs
    | Instr.Mfhi rd ->
        let v = Regfile.hi regs in
        o_result := v;
        Regfile.set regs rd v
    | Instr.Mflo rd ->
        let v = Regfile.lo regs in
        o_result := v;
        Regfile.set regs rd v
    | Instr.Load (w, rt, rs, off) ->
        let base = Regfile.get regs rs in
        let addr = Word.to_u32 (Word.add base (Word.sext32 off)) in
        mem_addr := addr;
        o_src1 := base;
        let v =
          match w with
          | Op.LB -> Word.sext8 (Memory.load_byte t.mem addr)
          | Op.LBU -> Memory.load_byte t.mem addr
          | Op.LH ->
              check_align addr 2;
              Word.sext16 (Memory.load_half t.mem addr)
          | Op.LHU ->
              check_align addr 2;
              Memory.load_half t.mem addr
          | Op.LW ->
              check_align addr 4;
              Memory.load_word t.mem addr
        in
        o_result := v;
        Regfile.set regs rt v
    | Instr.Store (w, rt, rs, off) ->
        let base = Regfile.get regs rs in
        let addr = Word.to_u32 (Word.add base (Word.sext32 off)) in
        let v = Regfile.get regs rt in
        mem_addr := addr;
        o_src1 := base;
        o_src2 := v;
        (match w with
        | Op.SB -> Memory.store_byte t.mem addr v
        | Op.SH ->
            check_align addr 2;
            Memory.store_half t.mem addr v
        | Op.SW ->
            check_align addr 4;
            Memory.store_word t.mem addr v)
    | Instr.Branch (c, rs, rt, tgt) ->
        let a = Regfile.get regs rs and b = Regfile.get regs rt in
        o_src1 := a;
        o_src2 := b;
        let taken =
          match c with
          | Op.Beq -> a = b
          | Op.Bne -> a <> b
          | Op.Blez -> a <= 0
          | Op.Bgtz -> a > 0
          | Op.Bltz -> a < 0
          | Op.Bgez -> a >= 0
        in
        if taken then next := tgt
    | Instr.Jump tgt -> next := tgt
    | Instr.Jal tgt ->
        let ret = Encoding.address_of_index (index + 1) in
        o_result := ret;
        Regfile.set regs Reg.ra (Word.sext32 ret);
        next := tgt
    | Instr.Jr rs ->
        let a = Regfile.get regs rs in
        o_src1 := a;
        next := Encoding.index_of_address (Word.to_u32 a)
    | Instr.Jalr (rd, rs) ->
        let a = Regfile.get regs rs in
        let ret = Encoding.address_of_index (index + 1) in
        o_src1 := a;
        o_result := ret;
        Regfile.set regs rd (Word.sext32 ret);
        next := Encoding.index_of_address (Word.to_u32 a)
    | Instr.Ext { eid; dst; src1; src2 } ->
        let a = Regfile.get regs src1 and b = Regfile.get regs src2 in
        let v = t.ext_eval eid a b in
        o_src1 := a;
        o_src2 := b;
        o_result := v;
        Regfile.set regs dst v
    | Instr.Cfgld _ | Instr.Nop -> ()
    | Instr.Halt -> t.halted <- true);
    t.pc <- !next;
    t.steps <- t.steps + 1;
    t.mem_addr <- !mem_addr;
    (match t.observer with
    | None -> ()
    | Some f -> f index !o_src1 !o_src2 !o_result);
    index
  end

let step t =
  let index = exec t in
  if index < 0 then None
  else
    Some
      {
        Trace.index;
        instr = Array.unsafe_get t.code index;
        mem_addr = t.mem_addr;
      }

let run ?(max_steps = 1_000_000_000) t =
  let start = t.steps in
  let rec go () =
    if t.halted then t.steps - start
    else if t.steps - start >= max_steps then
      fault "program did not halt within %d steps" max_steps
    else begin
      ignore (exec t);
      go ()
    end
  in
  go ()
