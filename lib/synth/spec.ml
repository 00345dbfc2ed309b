type 'a outcome = Solved of 'a | Timeout | Infeasible

type options = {
  max_gates : int;
  solution_cap : int;
  all_shapes : bool;
  use_dsd : bool;
  basis : Stp_chain.Gate.code list option;
  max_depth : int option;
}

let default_options =
  { max_gates = 14; solution_cap = 2000; all_shapes = false; use_dsd = true;
    basis = None; max_depth = None }
