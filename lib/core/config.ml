type t = {
  use_cost_model : bool;
  use_fusion : bool;
  use_micro_kernel : bool;
  multilevel : bool;
  parallel_refinement : bool;
  solver_engine : Analytical.Solver.engine;
  calibration : Arch.Machine.calibration option;
  tuning_trials : int;
  seed : int;
}

let default =
  {
    use_cost_model = true;
    use_fusion = true;
    use_micro_kernel = true;
    multilevel = true;
    parallel_refinement = true;
    solver_engine = `Batched;
    calibration = None;
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

let engine_of_string = function
  | "batched" -> Some `Batched
  | "reference" -> Some `Reference
  | _ -> None

let engine_to_string = function
  | `Batched -> "batched"
  | `Reference -> "reference"
