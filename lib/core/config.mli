(** Chimera configuration: the ablation switches of the Figure 10 study
    (cost model C, fusion F, micro kernel M) and the sampling fallback's
    budget.  The cost-model path always plans every on-chip level
    (Section IV-C), refines the outermost one for the machine's cores,
    and solves with the default engine; the reference engine is a test
    oracle reached through {!Analytical.Planner}'s [?engine], not a
    configuration. *)

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
  tuning_trials : int;
      (** random samples per block order when [use_cost_model] is off. *)
  seed : int;  (** PRNG seed for the sampling fallback. *)
}

val default : t
(** Everything on: cost model, fusion, micro kernel; 100 tuning trials;
    seed 0xC41. *)

val baseline : t
(** Everything off — the [baseline] bar of Figure 10. *)

val with_only :
  ?cost_model:bool -> ?fusion:bool -> ?micro_kernel:bool -> unit -> t
(** {!baseline} with the listed features switched on: the v-C / v-F /
    v-M / v-CF... variants of the ablation study. *)
