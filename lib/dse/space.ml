open T1000_ooo
module Bp = T1000_bpred.Predictor

type point = {
  pfus : int;
  penalty : int;
  lut_budget : int;
  replacement : Mconfig.pfu_replacement;
  gain : float;
  width : int;
  bpred : Bp.spec;
}

type t = {
  ax_pfus : int list;
  ax_penalties : int list;
  ax_lut_budgets : int list;
  ax_replacements : Mconfig.pfu_replacement list;
  ax_gains : float list;
  ax_widths : int list;
  ax_bpreds : Bp.spec list;
}

let default =
  {
    ax_pfus = [ 1; 2; 4; 8 ];
    ax_penalties = [ 0; 10; 50; 100; 500 ];
    ax_lut_budgets = [ 75; 150; 300 ];
    ax_replacements = [ Mconfig.Lru; Mconfig.Fifo; Mconfig.Random_det ];
    ax_gains = [ 0.001; 0.005; 0.02 ];
    ax_widths = [ 2; 4; 8 ];
    ax_bpreds = [ Bp.Perfect ];
  }

let repl_to_string = function
  | Mconfig.Lru -> "lru"
  | Mconfig.Fifo -> "fifo"
  | Mconfig.Random_det -> "rand"

let validate s =
  let axis name = function
    | [] -> T1000.Fault.invalid_config "axes: %s axis is empty" name
    | _ -> ()
  in
  axis "pfus" s.ax_pfus;
  axis "penalty" s.ax_penalties;
  axis "lut" s.ax_lut_budgets;
  axis "repl" s.ax_replacements;
  axis "gain" s.ax_gains;
  axis "width" s.ax_widths;
  axis "bpred" s.ax_bpreds;
  List.iter
    (fun n ->
      if n <= 0 then
        T1000.Fault.invalid_config "axes: pfus must be positive, got %d" n)
    s.ax_pfus;
  List.iter
    (fun p ->
      if p < 0 then
        T1000.Fault.invalid_config "axes: penalty must be non-negative, got %d"
          p)
    s.ax_penalties;
  List.iter
    (fun b ->
      if b <= 0 then
        T1000.Fault.invalid_config "axes: lut budget must be positive, got %d"
          b)
    s.ax_lut_budgets;
  List.iter
    (fun g ->
      if not (g >= 0.0 && g <= 1.0) then
        T1000.Fault.invalid_config "axes: gain must be in [0, 1], got %g" g)
    s.ax_gains;
  List.iter
    (fun w ->
      if w <> 2 && w <> 4 && w <> 8 then
        T1000.Fault.invalid_config "axes: width must be 2, 4 or 8, got %d" w)
    s.ax_widths;
  List.iter
    (fun b ->
      try Bp.validate_spec b
      with Invalid_argument m -> T1000.Fault.invalid_config "axes: %s" m)
    s.ax_bpreds

let size s =
  List.length s.ax_pfus * List.length s.ax_penalties
  * List.length s.ax_lut_budgets
  * List.length s.ax_replacements
  * List.length s.ax_gains * List.length s.ax_widths
  * List.length s.ax_bpreds

(* Canonical nested order, penalty innermost: the members of each
   penalty-monotone group come out adjacent and penalty-ascending.
   The bpred axis is outermost — a singleton [Perfect] axis (the
   default) leaves the historical 6-axis order untouched. *)
let enumerate s =
  List.concat_map
    (fun bpred ->
      List.concat_map
        (fun pfus ->
          List.concat_map
            (fun lut_budget ->
              List.concat_map
                (fun replacement ->
                  List.concat_map
                    (fun gain ->
                      List.concat_map
                        (fun width ->
                          List.map
                            (fun penalty ->
                              {
                                pfus;
                                penalty;
                                lut_budget;
                                replacement;
                                gain;
                                width;
                                bpred;
                              })
                            s.ax_penalties)
                        s.ax_widths)
                    s.ax_gains)
                s.ax_replacements)
            s.ax_lut_budgets)
        s.ax_pfus)
    s.ax_bpreds

(* First, middle and last of one axis (whole axis when it is short). *)
let coarse_axis xs =
  match xs with
  | [] | [ _ ] | [ _; _ ] | [ _; _; _ ] -> xs
  | _ ->
      let arr = Array.of_list xs in
      let n = Array.length arr in
      List.sort_uniq compare [ arr.(0); arr.((n - 1) / 2); arr.(n - 1) ]

let coarse s =
  {
    ax_pfus = coarse_axis s.ax_pfus;
    ax_penalties = coarse_axis s.ax_penalties;
    ax_lut_budgets = coarse_axis s.ax_lut_budgets;
    ax_replacements = coarse_axis s.ax_replacements;
    ax_gains = coarse_axis s.ax_gains;
    ax_widths = coarse_axis s.ax_widths;
    ax_bpreds = coarse_axis s.ax_bpreds;
  }

let index_in name xs v =
  let rec go i = function
    | [] ->
        T1000.Fault.invalid_config "axes: %s value not on the %s axis" name
          name
    | x :: tl -> if x = v then i else go (i + 1) tl
  in
  go 0 xs

(* Position of a point in [enumerate s], without materializing the
   list. *)
let rank s p =
  let i_bpred = index_in "bpred" s.ax_bpreds p.bpred in
  let i_pfus = index_in "pfus" s.ax_pfus p.pfus in
  let i_lut = index_in "lut" s.ax_lut_budgets p.lut_budget in
  let i_repl = index_in "repl" s.ax_replacements p.replacement in
  let i_gain = index_in "gain" s.ax_gains p.gain in
  let i_width = index_in "width" s.ax_widths p.width in
  let i_pen = index_in "penalty" s.ax_penalties p.penalty in
  let n_pfus = List.length s.ax_pfus in
  let n_lut = List.length s.ax_lut_budgets in
  let n_repl = List.length s.ax_replacements in
  let n_gain = List.length s.ax_gains in
  let n_width = List.length s.ax_widths in
  let n_pen = List.length s.ax_penalties in
  (((((i_bpred * n_pfus) + i_pfus) * n_lut + i_lut) * n_repl + i_repl) * n_gain
  + i_gain)
  * n_width * n_pen
  + (i_width * n_pen) + i_pen

let compare_points s a b = compare (rank s a) (rank s b)

let refine s ~stride p =
  let on_axis xs v rebuild =
    let arr = Array.of_list xs in
    let i =
      let rec find k = if arr.(k) = v then k else find (k + 1) in
      find 0
    in
    List.filter_map
      (fun j ->
        if j >= 0 && j < Array.length arr && j <> i then
          Some (rebuild arr.(j))
        else None)
      [ i - stride; i + stride ]
  in
  on_axis s.ax_pfus p.pfus (fun v -> { p with pfus = v })
  @ on_axis s.ax_penalties p.penalty (fun v -> { p with penalty = v })
  @ on_axis s.ax_lut_budgets p.lut_budget (fun v -> { p with lut_budget = v })
  @ on_axis s.ax_replacements p.replacement (fun v ->
        { p with replacement = v })
  @ on_axis s.ax_gains p.gain (fun v -> { p with gain = v })
  @ on_axis s.ax_widths p.width (fun v -> { p with width = v })
  @ on_axis s.ax_bpreds p.bpred (fun v -> { p with bpred = v })

let initial_stride s =
  let longest =
    List.fold_left max 1
      [
        List.length s.ax_pfus;
        List.length s.ax_penalties;
        List.length s.ax_lut_budgets;
        List.length s.ax_replacements;
        List.length s.ax_gains;
        List.length s.ax_widths;
        List.length s.ax_bpreds;
      ]
  in
  max 1 ((longest - 1) / 4)

(* [Perfect] (the default) is elided from both keys so every
   historical journal key, fault label and frontier row survives the
   axis addition byte-for-byte. *)
let bpred_suffix p =
  match p.bpred with
  | Bp.Perfect -> ""
  | b -> "." ^ Bp.spec_to_string b

let key p =
  Printf.sprintf "p%d.pen%d.lut%d.%s.g%g.w%d%s" p.pfus p.penalty p.lut_budget
    (repl_to_string p.replacement)
    p.gain p.width (bpred_suffix p)

let group_key p =
  Printf.sprintf "p%d.lut%d.%s.g%g.w%d%s" p.pfus p.lut_budget
    (repl_to_string p.replacement)
    p.gain p.width (bpred_suffix p)

(* The same width presets as the A5 machine sweep. *)
let machine_of_width = function
  | 2 ->
      {
        Mconfig.default with
        Mconfig.fetch_width = 2;
        decode_width = 2;
        issue_width = 2;
        commit_width = 2;
        ruu_size = 32;
        n_int_alu = 2;
        n_mem_ports = 1;
      }
  | 4 -> Mconfig.default
  | 8 ->
      {
        Mconfig.default with
        Mconfig.fetch_width = 8;
        decode_width = 8;
        issue_width = 8;
        commit_width = 8;
        ruu_size = 128;
        n_int_alu = 8;
        n_mem_ports = 4;
      }
  | w -> T1000.Fault.invalid_config "machine width must be 2, 4 or 8, got %d" w

let setup ctx p =
  let s =
    T1000.Experiment.setup ctx ~n_pfus:(Some p.pfus) ~penalty:p.penalty
      T1000.Runner.Selective
  in
  let s =
    {
      s with
      T1000.Runner.replacement = p.replacement;
      gain_threshold = p.gain;
      lut_budget = p.lut_budget;
      machine =
        { (machine_of_width p.width) with Mconfig.bpred = p.bpred };
    }
  in
  T1000.Runner.validate s;
  s

(* -------- --axes parsing -------- *)

let parse_values name conv s =
  let parts =
    String.split_on_char ',' s |> List.map String.trim
    |> List.filter (fun v -> v <> "")
  in
  if parts = [] then Error (Printf.sprintf "axis %s: no values" name)
  else
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | v :: tl -> (
          match conv v with
          | Some x -> go (x :: acc) tl
          | None -> Error (Printf.sprintf "axis %s: bad value %S" name v))
    in
    Result.map (List.sort_uniq compare) (go [] parts)

let of_spec spec =
  let groups =
    String.split_on_char ':' spec |> List.map String.trim
    |> List.filter (fun g -> g <> "")
  in
  if groups = [] then Error "empty --axes spec"
  else
    let int_conv v = int_of_string_opt v in
    let float_conv v = float_of_string_opt v in
    let repl_conv = function
      | "lru" -> Some Mconfig.Lru
      | "fifo" -> Some Mconfig.Fifo
      | "rand" -> Some Mconfig.Random_det
      | _ -> None
    in
    (* ':' delimits axis groups, so predictor table bits use the '@'
       spelling here: bpred=perfect,gshare@12. *)
    let bpred_conv v = Result.to_option (Bp.spec_of_string v) in
    let rec go s = function
      | [] -> (
          match validate s with
          | () -> Ok s
          | exception T1000.Fault.Error (T1000.Fault.Invalid_config msg) ->
              Error msg)
      | g :: tl -> (
          match String.index_opt g '=' with
          | None ->
              Error
                (Printf.sprintf
                   "bad axis group %S (expected axis=v,v,...; axes: pfus \
                    penalty lut repl gain width bpred)"
                   g)
          | Some i -> (
              let name = String.trim (String.sub g 0 i) in
              let values =
                String.sub g (i + 1) (String.length g - i - 1)
              in
              match name with
              | "pfus" ->
                  Result.bind (parse_values name int_conv values) (fun vs ->
                      go { s with ax_pfus = vs } tl)
              | "penalty" ->
                  Result.bind (parse_values name int_conv values) (fun vs ->
                      go { s with ax_penalties = vs } tl)
              | "lut" ->
                  Result.bind (parse_values name int_conv values) (fun vs ->
                      go { s with ax_lut_budgets = vs } tl)
              | "repl" ->
                  Result.bind (parse_values name repl_conv values) (fun vs ->
                      go { s with ax_replacements = vs } tl)
              | "gain" ->
                  Result.bind (parse_values name float_conv values) (fun vs ->
                      go { s with ax_gains = vs } tl)
              | "width" ->
                  Result.bind (parse_values name int_conv values) (fun vs ->
                      go { s with ax_widths = vs } tl)
              | "bpred" ->
                  Result.bind (parse_values name bpred_conv values) (fun vs ->
                      go { s with ax_bpreds = vs } tl)
              | _ ->
                  Error
                    (Printf.sprintf
                       "unknown axis %S (axes: pfus penalty lut repl gain \
                        width bpred)"
                       name)))
    in
    go default groups

let pp ppf s =
  let ints name xs =
    Format.fprintf ppf "  %-8s %s@," name
      (String.concat " " (List.map string_of_int xs))
  in
  Format.fprintf ppf "@[<v>";
  ints "pfus" s.ax_pfus;
  ints "penalty" s.ax_penalties;
  ints "lut" s.ax_lut_budgets;
  Format.fprintf ppf "  %-8s %s@," "repl"
    (String.concat " " (List.map repl_to_string s.ax_replacements));
  Format.fprintf ppf "  %-8s %s@," "gain"
    (String.concat " " (List.map (Printf.sprintf "%g") s.ax_gains));
  ints "width" s.ax_widths;
  Format.fprintf ppf "  %-8s %s@," "bpred"
    (String.concat " " (List.map Bp.spec_to_string s.ax_bpreds));
  Format.fprintf ppf "  %d points@]" (size s)
