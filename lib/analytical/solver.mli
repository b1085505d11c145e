(** The constrained optimizer for one block execution order:
    [min_S DV(S)  s.t.  MU(S) <= MemoryCapacity]  (Equation 1).

    The paper solves the real relaxation with Lagrange multipliers and
    floor-rounds; the closed form exists only for specific chain shapes
    ({!Closed_form}), so this module implements the general equivalent: a
    deterministic multi-start coordinate descent over a geometric grid of
    integer tile sizes.  DV is non-increasing and MU non-decreasing in
    every tile size, so descent under the feasibility constraint walks to
    the capacity boundary exactly like the Lagrange solution; the
    closed-form point (when available) is injected as an extra start.

    The descent evaluates DV/MU through a {!Movement.evaluator} compiled
    once per (chain, perm) — flat arithmetic on a tile-size vector — so
    the thousands of model evaluations per solve cost nanoseconds, not
    a re-derivation of the symbolic analysis (see docs/PERF.md). *)

type solution = { tiling : Tiling.t; movement : Movement.result }
(** A feasible tiling and its Algorithm-1 analysis. *)

type engine = [ `Batched | `Reference ]
(** [`Batched] (default) submits each axis sweep's whole candidate
    frontier to {!Movement.batch_sweep} — one structure-of-arrays pass
    with per-axis partial-product memoization and a per-lane DV cutoff
    at the descent's incumbent — then replays the sequential adoption
    rule over the lanes, so it lands on the identical final tiling as
    the single-candidate reference engine (the equivalence suite
    asserts this with [=]).  [`Reference] evaluates one candidate at a
    time and re-runs the full {!Movement.analyze} per evaluation — the
    pre-compilation behaviour, kept as the oracle for the equivalence
    tests that prove both engines pick identical plans and for the
    planner bench's baseline.  It is not a user knob: the compiler and
    the service always plan with the default. *)

type verdict =
  | Feasible of solution
  | Infeasible  (** even the minimal tiling exceeds the capacity. *)
  | Pruned of { lb_dv : float }
      (** skipped by branch-and-bound: [lb_dv], the order's certified
          DV lower bound over its whole search box, already exceeds the
          caller's incumbent ([prune_above]) — or exactly ties it from
          a later enumeration position, which the earliest-minimum
          tie-break makes equally unwinnable.  The witness value is
          kept so the planner can record it in the plan's optimality
          {!Certificate.t}. *)

val candidate_sizes : int -> int list
(** The tile-size grid for an axis of the given extent: powers of two up
    to the extent, merged with the extent's halvings
    [extent, ceil(extent/2), ceil(extent/4), ...], sorted, deduplicated. *)

val solve :
  Ir.Chain.t -> perm:string list -> capacity_bytes:int ->
  ?full_tile:string list -> ?max_tile:(string -> int) ->
  ?min_tile:(string -> int) -> ?extra_starts:Tiling.t list ->
  ?boundary_grow:bool -> ?uniform_start:bool -> ?check:(unit -> unit) ->
  ?engine:engine -> ?prune_above:float * int -> ?enum_index:int ->
  ?template:Movement.template -> ?obs:Obs.Trace.ctx -> unit -> verdict * int
(** Best feasible tiling for one permutation, plus the number of DV/MU
    model evaluations spent.

    [template] supplies a pre-built {!Movement.compile_template} so a
    caller solving many orders of the same chain pays the IR traversal
    once; when absent the solve compiles its own evaluator.

    [obs] (default disabled) brackets the solve in a ["solver.descent"]
    span recording the evaluation count; the descent loop itself is
    never instrumented, so a disabled context costs one branch per
    solve.

    [prune_above] is the branch-and-bound incumbent as
    [(best_dv, best_enum_index)]: before descending,
    {!Movement.dv_lower_bound} certifies a DV lower bound over the whole
    search box (the capacity-relaxed all-upper-bounds corner, varying
    trip counts priced at their real ratios), and the order is {!Pruned}
    for the cost of a single evaluation when the bound is *strictly*
    above the incumbent DV, or when the raw (unshaved) bound exactly
    ties it and this order's [enum_index] is larger than the
    incumbent's: the planner keeps the earliest-enumerated minimum-DV
    order, so a later order whose every achievable DV is at least the
    incumbent's cannot be selected.  Both rules preserve the ranked
    winner exactly, and accesses the bound cannot certify (a varying
    axis touching two dimensions of one reference) leave the gate open,
    so the caller's selection is unchanged by pruning.  [enum_index]
    (default [max_int], which disables the tie rule) is this order's
    position in the caller's enumeration.

    [check] (default a no-op) is a cooperative cancellation hook,
    called at entry and before every descent sweep and boundary-grow
    pass; a caller enforcing a wall-clock budget makes it raise, and
    the exception propagates out of the solve.

    [full_tile] axes are fixed at [min extent (max_tile axis)]
    (convolution windows); [max_tile] bounds every axis (used for
    sub-block nesting in multi-level planning; defaults to the extents);
    [extra_starts] seeds additional descent starting points.
    [min_tile] floors tile sizes (the intra-block stage's native-tile
    requirement; relaxed automatically when even the floored block
    exceeds capacity).  [boundary_grow] (push tiles onto the MU =
    capacity boundary) and
    [uniform_start] (the balanced Lagrange-like seed) are both on by
    default; the internals ablation bench switches them off to show
    their contribution. *)

val solve_for_perm :
  Ir.Chain.t -> perm:string list -> capacity_bytes:int ->
  ?full_tile:string list -> ?max_tile:(string -> int) ->
  ?min_tile:(string -> int) -> ?extra_starts:Tiling.t list ->
  ?boundary_grow:bool -> ?uniform_start:bool -> ?check:(unit -> unit) ->
  ?engine:engine -> unit -> solution option
(** {!solve} without pruning, collapsed to an option — [None] when even
    the minimal tiling exceeds [capacity_bytes]. *)

val better : solution -> solution -> bool
(** [better a b] when [a] strictly improves on [b]: smaller DV, or equal
    DV with fewer blocks (larger tiles). *)
