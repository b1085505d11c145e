(** Chimera: the analytical optimizing framework for compute-intensive
    operator fusion — the paper's primary contribution, assembled.

    Given an operator chain and a target machine, [optimize] performs
    block decomposition, inter-block reordering against the analytical
    data-movement model (Section IV), intra-block scheduling through the
    replaceable micro-kernel registry (Section V), and produces compiled
    fused kernels that can be executed numerically, simulated against
    the memory hierarchy, cost-estimated, and emitted as source text.

    The {!Config} switches expose the ablation axes of Figure 10. *)

type unit_ = {
  sub_chain : Ir.Chain.t;
      (** the whole chain when fused; one stage when unfused. *)
  kernel : Codegen.Kernel.t;
  tuner : Tuner.result option;
      (** present when the sampling fallback chose the tiling. *)
}
(** One generated kernel. *)

type compiled = {
  chain : Ir.Chain.t;
  machine : Arch.Machine.t;
  config : Config.t;
  units : unit_ list;  (** in execution order. *)
}
(** The result of {!optimize}. *)

val split_stages : Ir.Chain.t -> Ir.Chain.t list
(** The unfused view: one single-stage chain per stage (standalone loop
    nests, intermediates spilled to DRAM). *)

val registry_for : Config.t -> Microkernel.Registry.t
(** The micro-kernel registry the configuration selects: the tuned
    kernels, or the naive ones when [use_micro_kernel] is off. *)

type unit_plan = {
  level_plans : Analytical.Planner.level_plan list;
      (** per-level plans, innermost first (cost-model path); empty on
          the sampling path. *)
  tuner_result : Tuner.result option;
      (** present when the sampling fallback chose the tiling. *)
}
(** The *decision* half of compiling one sub-chain: everything the
    planner or tuner chose, and nothing tied to the current process
    (no micro-kernel closures).  Values are plain data, so the
    compilation service can marshal them to a plan cache and rebuild
    kernels later with {!kernel_of_unit_plan}. *)

exception No_feasible_tiling of string
(** Raised by {!optimize} (carrying the sub-chain name) when the
    sampling fallback finds no feasible tiling. *)

val plan_unit :
  ?check:(unit -> unit) -> ?pool:Util.Pool.t -> ?obs:Obs.Trace.ctx ->
  Config.t ->
  machine:Arch.Machine.t -> registry:Microkernel.Registry.t -> Ir.Chain.t ->
  (unit_plan, [ `No_feasible_tiling ]) result
(** Run the expensive half of {!optimize} for one sub-chain: the
    analytical planner — {!Analytical.Planner.optimize_multilevel} over
    every on-chip level, the outermost refined for the machine's cores —
    or the sampling tuner when [use_cost_model] is off.  The analytical path raises [Failure] when no candidate order
    admits a feasible tiling, exactly as {!Analytical.Planner.optimize}
    does.  [check] is the cooperative cancellation hook threaded into
    every planner and tuner search loop; the compilation service uses
    it to enforce per-request deadlines, catching whatever it raises.
    [pool] fans the planner's per-order solves across a shared domain
    pool ({!Analytical.Planner.optimize}'s [pool]); the chosen plan is
    identical to the serial one.  [obs] traces the whole decision as a
    ["plan.unit"] span (children: ["planner.level"] / ["order"] /
    ["tuner.search"]). *)

val kernel_of_unit_plan :
  ?obs:Obs.Trace.ctx ->
  machine:Arch.Machine.t -> registry:Microkernel.Registry.t ->
  Ir.Chain.t -> unit_plan -> unit_
(** The cheap half: pair a previously computed {!unit_plan} with the
    machine's micro kernel.  [optimize = kernel_of_unit_plan . plan_unit]
    per sub-chain, so rebuilding from a cached plan is exact. *)

val optimize :
  ?config:Config.t -> machine:Arch.Machine.t -> Ir.Chain.t -> compiled
(** Compile a chain for a machine.  Raises {!No_feasible_tiling} if the
    sampling path finds no feasible tiling. *)

val reports : compiled -> (string * Sim.Perf.report) list
(** Per-kernel performance estimates, in execution order. *)

val total_time_seconds : compiled -> float
(** Sum of the kernels' estimated times (kernels run back to back). *)

val measure : compiled -> Sim.Trace.stats list
(** Replay each kernel against the simulated memory hierarchy. *)

val total_time_measured_seconds : compiled -> float
(** Like {!total_time_seconds} but with each kernel's DRAM traffic taken
    from the simulator instead of the analytical model. *)

val source : compiled -> string
(** Emitted source text of every kernel. *)

val run : compiled -> Sim.Exec.env -> unit
(** Execute the compiled kernels numerically on an environment created
    by [Sim.Exec.make_env] for the original chain. *)

val optimization_time_seconds : (unit -> 'a) -> 'a * float
(** Wall-clock helper used to report compilation overhead (§VI-E). *)
