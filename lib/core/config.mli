(** Chimera configuration, including the ablation switches of the
    Figure 10 study (cost model C, fusion F, micro kernel M). *)

type t = {
  use_cost_model : bool;
      (** analytical inter-block optimization; when off, tile sizes are
          found by sampling [tuning_trials] random candidates per block
          order and measuring them on the simulator (the paper's
          ablation fallback). *)
  use_fusion : bool;
      (** fuse the chain into one kernel; when off, each stage compiles
          to its own kernel with the intermediate spilled to DRAM. *)
  use_micro_kernel : bool;
      (** substitute the tuned hardware micro kernel; when off, the
          naive un-blocked kernel is used. *)
  multilevel : bool;
      (** plan sub-blocks for every on-chip level (Section IV-C). *)
  parallel_refinement : bool;
      (** split tiles until there is at least one block per core. *)
  solver_engine : Analytical.Solver.engine;
      (** descent engine for every per-order solve ([`Batched] by
          default); both engines land on identical plans — the knob
          exists for benchmarks and equivalence checks (the CLI's
          [--engine]). *)
  calibration : Arch.Machine.calibration option;
      (** sim-fitted cost correction installed on the machine before
          planning ([None] by default = raw analytical DV); affects the
          outermost level's cost estimate only, never the chosen plan
          (the CLI's [--calibration]). *)
  tuning_trials : int;
      (** random samples per block order when [use_cost_model] is off. *)
  seed : int;  (** PRNG seed for the sampling fallback. *)
}

val default : t
(** Everything on: cost model, fusion, micro kernel, multilevel planning,
    parallel refinement; 100 tuning trials; seed 0xC41. *)

val baseline : t
(** Everything off — the [baseline] bar of Figure 10. *)

val with_only :
  ?cost_model:bool -> ?fusion:bool -> ?micro_kernel:bool -> unit -> t
(** {!baseline} with the listed features switched on: the v-C / v-F /
    v-M / v-CF... variants of the ablation study. *)

val engine_of_string : string -> Analytical.Solver.engine option
(** ["batched"] or ["reference"]; [None] otherwise. *)

val engine_to_string : Analytical.Solver.engine -> string
(** Inverse of {!engine_of_string}. *)
