(** Which loops of a fused chain can be partitioned across cores, and
    how well a given tiling fills them.

    A loop is safely parallel when every stage that uses it treats it as
    a spatial (non-reduction) loop and every stage iterates it — cores
    then own disjoint slices of every stage's work and of the
    intermediate, with no cross-core reduction or recomputation.  For
    the GEMM chain this is [b, m]; for convolution chains [n, oh, ow];
    for a single operator, all of its spatial loops. *)

val parallel_axes : Ir.Chain.t -> string list
(** The safely-parallel fused axes, in chain order. *)

val task_count : Ir.Chain.t -> Tiling.t -> float
(** Number of independent parallel tasks the tiling produces: the
    product of the parallel axes' trip counts. *)

val task_groups : Ir.Chain.t -> Tiling.t -> (float * int) list
(** The tasks' relative costs as [(weight, count)] groups, heaviest
    first, with distinct weights.  A task's weight is the product of
    its per-axis block spans; on each parallel axis a block spans
    either the full tile or the ragged edge, so there are at most
    [2^d] groups for [d] parallel axes and the counts sum to
    {!task_count}. *)

val efficiency : Ir.Chain.t -> Tiling.t -> cores:int -> float
(** Load-balance efficiency in (0, 1]: ideal time (total work / cores)
    over the makespan of a longest-processing-time schedule of the
    tasks — heaviest first, each onto the least-loaded core, ties to
    the lowest core index.  Above 20000 tasks the imbalance is
    negligible and [min 1 (tasks/cores)] is returned.

    The schedule runs on {!task_groups}: the heaviest group is dealt
    round-robin from all-zero loads, the rest through a min-heap keyed
    on (load, core index).  Cost is O(2{^d} log 2{^d} + cores + q + r
    log cores) for [q] rounds of the heaviest group and [r] remaining
    tasks, instead of O(tasks x cores) for a scan per task.

    The result is bit-identical to that per-task scan over the
    enumerated task list: every task lands on the core the scan would
    pick, every load is built by the same float additions in the same
    order, and the total work is summed per group only while that sum
    is an exact integer below 2{^53} — otherwise in task enumeration
    order (first parallel axis outermost). *)
