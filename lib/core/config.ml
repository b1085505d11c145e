type t = {
  use_cost_model : bool;
  use_fusion : bool;
  use_micro_kernel : bool;
  tuning_trials : int;
  seed : int;
}

let default =
  {
    use_cost_model = true;
    use_fusion = true;
    use_micro_kernel = true;
    tuning_trials = 100;
    seed = 0xC41;
  }

let baseline =
  {
    default with
    use_cost_model = false;
    use_fusion = false;
    use_micro_kernel = false;
  }

let with_only ?(cost_model = false) ?(fusion = false) ?(micro_kernel = false)
    () =
  {
    baseline with
    use_cost_model = cost_model;
    use_fusion = fusion;
    use_micro_kernel = micro_kernel;
  }
