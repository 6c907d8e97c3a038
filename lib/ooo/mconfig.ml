type pfu_replacement =
  | Lru
  | Fifo
  | Random_det

type t = {
  fetch_width : int;
  decode_width : int;
  issue_width : int;
  commit_width : int;
  ruu_size : int;
  ifq_size : int;
  n_int_alu : int;
  n_int_mult : int;
  n_mem_ports : int;
  n_pfus : int option;
  pfu_reconfig_cycles : int;
  pfu_replacement : pfu_replacement;
  bpred : T1000_bpred.Predictor.spec;
  cache : T1000_cache.Hierarchy.config;
  max_cycles : int;
  progress_window : int;
}

let default =
  {
    fetch_width = 4;
    decode_width = 4;
    issue_width = 4;
    commit_width = 4;
    ruu_size = 64;
    ifq_size = 16;
    n_int_alu = 4;
    n_int_mult = 1;
    n_mem_ports = 2;
    n_pfus = Some 0;
    pfu_reconfig_cycles = 10;
    pfu_replacement = Lru;
    bpred = T1000_bpred.Predictor.Perfect;
    cache = T1000_cache.Hierarchy.default_config;
    max_cycles = 2_000_000_000;
    progress_window = 1_000_000;
  }

let with_pfus ?(replacement = Lru) ?(penalty = 10) n t =
  {
    t with
    n_pfus = n;
    pfu_reconfig_cycles = penalty;
    pfu_replacement = replacement;
  }

let pp ppf t =
  Format.fprintf ppf
    "@[<v>T1000 machine: %d-wide, RUU %d, %d ALU / %d mult / %d mem, PFUs %s \
     (reconfig %d)@]"
    t.issue_width t.ruu_size t.n_int_alu t.n_int_mult t.n_mem_ports
    (match t.n_pfus with
    | None -> "unlimited"
    | Some n -> string_of_int n)
    t.pfu_reconfig_cycles
