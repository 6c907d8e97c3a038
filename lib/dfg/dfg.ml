open T1000_isa

type operand =
  | Input of int
  | Const of int
  | Node of int

type node_op =
  | N_alu of Op.alu
  | N_shift of Op.shift

type node = {
  op : node_op;
  a : operand;
  b : operand;
  width : int;
}

type t = {
  nodes : node array;
  n_inputs : int;
}

let check_operand ~n_inputs ~pos = function
  | Input p ->
      if p < 0 || p >= n_inputs then
        invalid_arg (Printf.sprintf "Dfg.make: input port %d out of range" p)
  | Const _ -> ()
  | Node i ->
      if i < 0 || i >= pos then
        invalid_arg
          (Printf.sprintf "Dfg.make: node %d referenced at position %d" i pos)

let make ~n_inputs nodes =
  if Array.length nodes = 0 then invalid_arg "Dfg.make: empty node array";
  if n_inputs < 0 || n_inputs > 2 then
    invalid_arg "Dfg.make: n_inputs must be 0-2";
  Array.iteri
    (fun pos n ->
      check_operand ~n_inputs ~pos n.a;
      check_operand ~n_inputs ~pos n.b)
    nodes;
  { nodes = Array.copy nodes; n_inputs }

let nodes t = Array.copy t.nodes
let n_inputs t = t.n_inputs
let size t = Array.length t.nodes
let root t = Array.length t.nodes - 1

let node_eval op a b =
  match op with
  | N_alu Op.Add | N_alu Op.Addu -> Word.add a b
  | N_alu Op.Sub | N_alu Op.Subu -> Word.sub a b
  | N_alu Op.And -> Word.logand a b
  | N_alu Op.Or -> Word.logor a b
  | N_alu Op.Xor -> Word.logxor a b
  | N_alu Op.Nor -> Word.lognor a b
  | N_alu Op.Slt -> Word.slt a b
  | N_alu Op.Sltu -> Word.sltu a b
  | N_shift Op.Sll -> Word.sll a (b land 31)
  | N_shift Op.Srl -> Word.srl a (b land 31)
  | N_shift Op.Sra -> Word.sra a (b land 31)

(* Node results go to a per-domain scratch array, grown on demand, so
   an evaluation allocates nothing and pool domains never share one. *)
let scratch = Domain.DLS.new_key (fun () -> Array.make 16 0)

(* Closed, unlike a local closure over [results], which would be
   allocated on every call. *)
let[@inline] operand results v0 v1 = function
  | Input 0 -> v0
  | Input _ -> v1
  | Const c -> Word.sext32 c
  | Node j -> results.(j)

let eval t v0 v1 =
  let n = Array.length t.nodes in
  let results =
    let r = Domain.DLS.get scratch in
    if Array.length r >= n then r
    else begin
      let r = Array.make (Int.max n (2 * Array.length r)) 0 in
      Domain.DLS.set scratch r;
      r
    end
  in
  for i = 0 to n - 1 do
    let nd = Array.unsafe_get t.nodes i in
    results.(i) <-
      node_eval nd.op (operand results v0 v1 nd.a) (operand results v0 v1 nd.b)
  done;
  results.(n - 1)

let node_latency = function
  | N_alu op -> Op.alu_latency op
  | N_shift op -> Op.shift_latency op

let base_latency t =
  let n = Array.length t.nodes in
  let depth = Array.make n 0 in
  let operand_depth = function
    | Input _ | Const _ -> 0
    | Node i -> depth.(i)
  in
  for i = 0 to n - 1 do
    let nd = t.nodes.(i) in
    depth.(i) <-
      node_latency nd.op + max (operand_depth nd.a) (operand_depth nd.b)
  done;
  depth.(n - 1)

let serial_latency t =
  Array.fold_left (fun acc nd -> acc + node_latency nd.op) 0 t.nodes

let max_width t = Array.fold_left (fun acc nd -> max acc nd.width) 0 t.nodes

let pp_operand ppf = function
  | Input p -> Format.fprintf ppf "in%d" p
  | Const c -> Format.fprintf ppf "#%d" c
  | Node i -> Format.fprintf ppf "n%d" i

let pp_node_op ppf = function
  | N_alu op -> Op.pp_alu ppf op
  | N_shift op -> Op.pp_shift ppf op

let pp ppf t =
  Format.fprintf ppf "@[<v>dfg(%d inputs, %d nodes)@," t.n_inputs
    (Array.length t.nodes);
  Array.iteri
    (fun i nd ->
      Format.fprintf ppf "n%d = %a %a, %a  [w%d]@," i pp_node_op nd.op
        pp_operand nd.a pp_operand nd.b nd.width)
    t.nodes;
  Format.fprintf ppf "@]"

let to_dot ?(name = "extinstr") t =
  let buf = Buffer.create 256 in
  let bpf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  bpf "digraph %S {\n  rankdir=BT;\n  node [fontname=monospace];\n" name;
  for p = 0 to t.n_inputs - 1 do
    bpf "  in%d [shape=invtriangle, label=\"in%d\"];\n" p p
  done;
  Array.iteri
    (fun i nd ->
      let label = Format.asprintf "%a" pp_node_op nd.op in
      let shape =
        if i = Array.length t.nodes - 1 then
          "shape=doublecircle, style=bold"
        else "shape=circle"
      in
      bpf "  n%d [%s, label=\"%s\\nw%d\"];\n" i shape label nd.width;
      let edge tag = function
        | Input p -> bpf "  in%d -> n%d [label=\"%s\"];\n" p i tag
        | Const c ->
            bpf "  c%d_%s [shape=plaintext, label=\"#%d\"];\n" i tag c;
            bpf "  c%d_%s -> n%d;\n" i tag i
        | Node j -> bpf "  n%d -> n%d [label=\"%s\"];\n" j i tag
      in
      edge "a" nd.a;
      edge "b" nd.b)
    t.nodes;
  bpf "}\n";
  Buffer.contents buf
