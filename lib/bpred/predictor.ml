type spec =
  | Perfect
  | Static
  | Bimodal of int
  | Gshare of int

let min_bits = 1
let max_bits = 20
let default_bits = 11
let btb_entries = 512

let validate_spec = function
  | Perfect | Static -> ()
  | Bimodal bits | Gshare bits ->
      if bits < min_bits || bits > max_bits then
        invalid_arg
          (Printf.sprintf
             "branch predictor table bits must be in [%d, %d], got %d"
             min_bits max_bits bits)

let spec_to_string = function
  | Perfect -> "perfect"
  | Static -> "static"
  | Bimodal bits -> Printf.sprintf "bimodal@%d" bits
  | Gshare bits -> Printf.sprintf "gshare@%d" bits

let pp_spec ppf s = Format.pp_print_string ppf (spec_to_string s)

let spec_of_string s =
  let s = String.trim s in
  let kind, bits_part =
    match String.index_opt s ':' with
    | Some i ->
        (String.sub s 0 i, Some (String.sub s (i + 1) (String.length s - i - 1)))
    | None -> (
        match String.index_opt s '@' with
        | Some i ->
            ( String.sub s 0 i,
              Some (String.sub s (i + 1) (String.length s - i - 1)) )
        | None -> (s, None))
  in
  let bits =
    match bits_part with
    | None -> Ok default_bits
    | Some b -> (
        match int_of_string_opt (String.trim b) with
        | Some n when n >= min_bits && n <= max_bits -> Ok n
        | Some n ->
            Error
              (Printf.sprintf "table bits must be in [%d, %d], got %d"
                 min_bits max_bits n)
        | None -> Error (Printf.sprintf "bad table bits %S" b))
  in
  match (String.lowercase_ascii kind, bits_part, bits) with
  | "perfect", None, _ -> Ok Perfect
  | "static", None, _ -> Ok Static
  | (("perfect" | "static") as k), Some _, _ ->
      Error (Printf.sprintf "%s takes no table-bits suffix" k)
  | "bimodal", _, Ok bits -> Ok (Bimodal bits)
  | "gshare", _, Ok bits -> Ok (Gshare bits)
  | ("bimodal" | "gshare"), _, Error e -> Error e
  | k, _, _ ->
      Error
        (Printf.sprintf
           "unknown predictor %S (expected perfect, static, \
            bimodal[:BITS] or gshare[:BITS])"
           k)

let is_perfect = function Perfect -> true | _ -> false

type t = {
  spec : spec;
  (* 2-bit saturating counters, one per byte; empty for
     Perfect/Static. *)
  counters : Bytes.t;
  mask : int;
  mutable hist : int;  (* global direction history (Gshare) *)
  hist_mask : int;
  (* Tagged direct-mapped BTB: [btb_tags.(set) = index] marks a valid
     entry.  -1 = empty. *)
  btb_tags : int array;
  btb_targets : int array;
}

let create spec =
  validate_spec spec;
  let table_bits =
    match spec with Bimodal b | Gshare b -> b | Perfect | Static -> 0
  in
  let entries = if table_bits = 0 then 0 else 1 lsl table_bits in
  let hist_bits =
    match spec with Gshare b -> Int.min b 16 | Perfect | Static | Bimodal _ -> 0
  in
  {
    spec;
    (* weakly taken *)
    counters = Bytes.make (Int.max entries 1) '\002';
    mask = Int.max (entries - 1) 0;
    hist = 0;
    hist_mask = (1 lsl hist_bits) - 1;
    btb_tags = Array.make btb_entries (-1);
    btb_targets = Array.make btb_entries 0;
  }

let spec t = t.spec

let counter_slot t ~index =
  match t.spec with
  | Bimodal _ -> index land t.mask
  | Gshare _ -> (index lxor t.hist) land t.mask
  | Perfect | Static -> 0

let predict_dir t ~index ~target =
  match t.spec with
  | Perfect -> true
  | Static -> target < index
  | Bimodal _ | Gshare _ ->
      Char.code (Bytes.unsafe_get t.counters (counter_slot t ~index)) >= 2

let push_history t ~taken =
  if t.hist_mask <> 0 then
    t.hist <- ((t.hist lsl 1) lor Bool.to_int taken) land t.hist_mask

let train_dir t ~index ~taken =
  (match t.spec with
  | Perfect | Static -> ()
  | Bimodal _ | Gshare _ ->
      let slot = counter_slot t ~index in
      let c = Char.code (Bytes.unsafe_get t.counters slot) in
      let c' = if taken then Int.min 3 (c + 1) else Int.max 0 (c - 1) in
      if c' <> c then Bytes.unsafe_set t.counters slot (Char.chr c'));
  push_history t ~taken

let spec_dir t ~taken = push_history t ~taken
let history t = t.hist
let set_history t h = t.hist <- h

let btb_lookup t ~index =
  let set = index land (btb_entries - 1) in
  if t.btb_tags.(set) = index then Some t.btb_targets.(set) else None

let btb_update t ~index ~target =
  let set = index land (btb_entries - 1) in
  t.btb_tags.(set) <- index;
  t.btb_targets.(set) <- target
