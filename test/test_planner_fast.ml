(* The fast planner: compiled Movement evaluators, the certified
   branch-and-bound lower bound, the shared domain pool, and — the
   acceptance criterion of the speedup work — exact plan equivalence
   with the reference path (Movement.analyze per evaluation, no
   pruning, serial) on every workload x preset. *)

open Helpers

let qcheck = QCheck_alcotest.to_alcotest

let presets =
  List.map
    (fun name -> (name, Option.get (Arch.Presets.by_name name)))
    [ "cpu"; "gpu"; "npu" ]

let workloads () =
  List.map
    (fun (c : Workloads.Gemm_configs.t) ->
      (c.name, Workloads.Gemm_configs.chain ~softmax:false c))
    Workloads.Gemm_configs.all
  @ List.map
      (fun (c : Workloads.Conv_configs.t) ->
        (c.name, Workloads.Conv_configs.chain ~relu:false c))
      Workloads.Conv_configs.all

(* A pool with real worker domains even on a single-core CI machine
   (where [Pool.global] has one lane and runs everything inline). *)
let with_pool f =
  let pool = Util.Pool.create ~domains:3 () in
  Fun.protect ~finally:(fun () -> Util.Pool.shutdown pool) (fun () -> f pool)

(* ----------------------------------------------------------------- *)
(* Compiled evaluator = Movement.analyze, bit for bit                 *)
(* ----------------------------------------------------------------- *)

(* Exact [=] on the float DV: the evaluator performs the identical
   float operations in the identical order, and the planner relies on
   that to swap engines without moving any plan. *)
let prop_compile_matches_analyze name arb =
  QCheck.Test.make
    ~name:("compiled evaluator = analyze on random " ^ name)
    ~count:300 arb
    (fun (chain, seed) ->
      let prng = Util.Prng.create ~seed in
      let perm = Test_properties.random_perm_of prng chain in
      let tiling = Test_properties.random_tiling_of prng chain in
      let r = Analytical.Movement.analyze chain ~perm ~tiling in
      let ev = Analytical.Movement.compile chain ~perm in
      let dv, mu = Analytical.Movement.eval ev ~tiling in
      dv = r.Analytical.Movement.dv_bytes
      && mu = r.Analytical.Movement.mu_bytes)

let prop_compile_matches_analyze_charged =
  QCheck.Test.make
    ~name:"compiled evaluator = analyze with charged intermediates"
    ~count:150 Test_properties.arbitrary_conv_setup
    (fun (chain, seed) ->
      let prng = Util.Prng.create ~seed in
      let perm = Test_properties.random_perm_of prng chain in
      let tiling = Test_properties.random_tiling_of prng chain in
      let r =
        Analytical.Movement.analyze ~charge_intermediates:true chain ~perm
          ~tiling
      in
      let ev =
        Analytical.Movement.compile ~charge_intermediates:true chain ~perm
      in
      let dv, mu = Analytical.Movement.eval ev ~tiling in
      dv = r.Analytical.Movement.dv_bytes
      && mu = r.Analytical.Movement.mu_bytes)

(* [eval_array] is the allocation-light path the solver actually
   descends on; it must agree with the Tiling-keyed entry point. *)
let prop_eval_array_matches_eval =
  QCheck.Test.make ~name:"eval_array = eval through axis_names"
    ~count:150 Test_properties.arbitrary_gemm_setup
    (fun (chain, seed) ->
      let prng = Util.Prng.create ~seed in
      let perm = Test_properties.random_perm_of prng chain in
      let tiling = Test_properties.random_tiling_of prng chain in
      let ev = Analytical.Movement.compile chain ~perm in
      let tiles =
        Array.map
          (fun axis -> Analytical.Tiling.get tiling axis)
          (Analytical.Movement.axis_names ev)
      in
      Analytical.Movement.eval_array ev tiles
      = Analytical.Movement.eval ev ~tiling)

(* ----------------------------------------------------------------- *)
(* Batched SoA lanes = eval_array, bit for bit                        *)
(* ----------------------------------------------------------------- *)

(* The solver's batched engine sweeps whole candidate frontiers through
   [batch_sweep]'s memoized lanes; zero plan drift requires every lane
   to reproduce [eval_array]'s floats exactly ([=], not approximately).
   The property drives a random base point, a random axis frontier and
   a probe through one compiled batch, and additionally pins the
   cutoff contract: with the cutoff set to a lane's exact DV, lanes at
   or below it stay exact and lanes above it report [infinity]. *)
let prop_batch_matches_eval_array name arb =
  QCheck.Test.make
    ~name:("batched lanes = eval_array on random " ^ name)
    ~count:200 arb
    (fun (chain, seed) ->
      let prng = Util.Prng.create ~seed in
      let perm = Test_properties.random_perm_of prng chain in
      let ev = Analytical.Movement.compile chain ~perm in
      let axes = Analytical.Movement.axis_names ev in
      let n = Array.length axes in
      let base =
        Array.map
          (fun axis ->
            1 + Util.Prng.int prng ~bound:(Ir.Chain.extent_of chain axis))
          axes
      in
      let b = Analytical.Movement.compile_batch ev in
      let bdv, bmu = Analytical.Movement.batch_load b base in
      let load_ok = (bdv, bmu) = Analytical.Movement.eval_array ev base in
      let axis = Util.Prng.int prng ~bound:n in
      let extent = Ir.Chain.extent_of chain axes.(axis) in
      let count = 1 + Util.Prng.int prng ~bound:8 in
      let values =
        Array.init count (fun _ -> 1 + Util.Prng.int prng ~bound:extent)
      in
      let lane_exact v =
        let lane = Array.copy base in
        lane.(axis) <- v;
        Analytical.Movement.eval_array ev lane
      in
      let dv =
        Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout count
      in
      let mu = Bigarray.Array1.create Bigarray.int Bigarray.c_layout count in
      ignore (Analytical.Movement.batch_sweep b ~axis ~values ~count ~dv ~mu ());
      let sweep_ok = ref true in
      Array.iteri
        (fun k v ->
          if (dv.{k}, mu.{k}) <> lane_exact v then sweep_ok := false)
        values;
      let probe_ok =
        Analytical.Movement.batch_probe b ~axis values.(0)
        = lane_exact values.(0)
      in
      (* Cutoff contract: exact at or below, infinity above. *)
      let cutoff = fst (lane_exact values.(0)) in
      ignore
        (Analytical.Movement.batch_sweep b ~axis ~values ~count ~cutoff ~dv
           ~mu ());
      let cutoff_ok = ref true in
      Array.iteri
        (fun k v ->
          let exact, _ = lane_exact v in
          let want = if exact <= cutoff then exact else infinity in
          if dv.{k} <> want then cutoff_ok := false)
        values;
      load_ok && !sweep_ok && probe_ok && !cutoff_ok)

(* ----------------------------------------------------------------- *)
(* The branch-and-bound bound never undercuts a real point            *)
(* ----------------------------------------------------------------- *)

(* Random search box, mimicking the solver's use: non-fused axes stay
   at 1, full-tile axes are pinned at their (possibly capped) bound,
   the rest vary in [1, bound].  Whenever the bound speaks (Some), it
   must sit at or below the DV of every point the solver could visit —
   here one random point per trial. *)
let prop_lower_bound_sound name arb =
  QCheck.Test.make
    ~name:("dv_lower_bound is sound on random " ^ name)
    ~count:300 arb
    (fun (chain, seed) ->
      let prng = Util.Prng.create ~seed in
      let perm = Test_properties.random_perm_of prng chain in
      let ev = Analytical.Movement.compile chain ~perm in
      let axes = Analytical.Movement.axis_names ev in
      let n = Array.length axes in
      let fused = Analytical.Movement.fused_axes chain in
      let full_tile = Analytical.Permutations.full_tile_axes chain in
      let bounds = Array.make n 1 and fixed = Array.make n true in
      Array.iteri
        (fun i axis ->
          if List.mem axis fused then begin
            let extent = Ir.Chain.extent_of chain axis in
            let b = 1 + Util.Prng.int prng ~bound:extent in
            bounds.(i) <- b;
            fixed.(i) <- List.mem axis full_tile || b <= 1
          end)
        axes;
      let tiles =
        Array.mapi
          (fun i _ ->
            if fixed.(i) then bounds.(i)
            else 1 + Util.Prng.int prng ~bound:bounds.(i))
          axes
      in
      let dv, _ = Analytical.Movement.eval_array ev tiles in
      match Analytical.Movement.dv_lower_bound ev ~bounds ~fixed with
      | None -> true (* gate open: never wrong, just never prunes *)
      | Some lb -> lb <= dv)

(* ----------------------------------------------------------------- *)
(* Plan equivalence: fast path = reference path                       *)
(* ----------------------------------------------------------------- *)

let plan_signature (p : Analytical.Planner.plan) =
  (p.perm, Analytical.Tiling.bindings p.tiling)

let check_same_plan what (fast : Analytical.Planner.plan)
    (reference : Analytical.Planner.plan) =
  check_true
    (Printf.sprintf "%s: same order and tiling" what)
    (plan_signature fast = plan_signature reference);
  check_true
    (Printf.sprintf "%s: bit-identical DV" what)
    (fast.movement.Analytical.Movement.dv_bytes
    = reference.movement.Analytical.Movement.dv_bytes);
  check_int
    (Printf.sprintf "%s: identical MU" what)
    reference.movement.Analytical.Movement.mu_bytes
    fast.movement.Analytical.Movement.mu_bytes;
  check_int
    (Printf.sprintf "%s: same order space" what)
    reference.candidates_evaluated fast.candidates_evaluated

(* The acceptance sweep: for every workload x preset, the multilevel
   plan of the fast path (compiled evaluators + pruning + pool) is
   identical — order, tiling, exact DV/MU — to the pre-change serial
   reference planner.  Slow: the reference path re-runs the full
   un-pruned Movement.analyze search. *)
let multilevel_equivalence_case (preset, machine) =
  slow_case
    (Printf.sprintf "multilevel plans on %s match the reference planner"
       preset)
    (fun () ->
      with_pool (fun pool ->
          List.iter
            (fun (name, chain) ->
              let reference =
                Analytical.Planner.optimize_multilevel ~prune:false
                  ~engine:`Reference chain ~machine
              in
              let fast =
                Analytical.Planner.optimize_multilevel ~pool chain ~machine
              in
              check_int
                (Printf.sprintf "%s/%s: level count" preset name)
                (List.length reference) (List.length fast);
              List.iter2
                (fun (r : Analytical.Planner.level_plan)
                     (f : Analytical.Planner.level_plan) ->
                  check_same_plan
                    (Printf.sprintf "%s/%s@%s" preset name
                       r.level.Arch.Level.name)
                    f.plan r.plan;
                  (* Each order's bound check costs one model eval, and
                     the batched engine honestly counts work the
                     single-candidate path skips: the incumbent's own
                     lane in every axis sweep and the base reload after
                     an adoption — at most a couple of lanes per axis
                     visit, so well under half the sweep's lane count.
                     The fast path may therefore exceed the reference
                     by one eval per order plus that per-sweep margin,
                     and never by a blowup. *)
                  check_true
                    (Printf.sprintf "%s/%s@%s: pruning never inflates evals"
                       preset name r.level.Arch.Level.name)
                    (f.plan.solver_evals
                    <= r.plan.solver_evals + r.plan.candidates_evaluated
                       + (r.plan.solver_evals / 2)))
                reference fast)
            (workloads ())))

(* Same exactness at a single level through [explore]: the pooled,
   pruned ranking keeps the identical head. *)
let explore_head_cases =
  List.map
    (fun (label, chain) ->
      case ("pooled pruned explore keeps the best order on " ^ label)
        (fun () ->
          with_pool (fun pool ->
              List.iter
                (fun (preset, machine) ->
                  let capacity_bytes =
                    (Arch.Machine.primary_on_chip machine)
                      .Arch.Level.capacity_bytes
                  in
                  let reference, ref_stats =
                    Analytical.Planner.explore chain ~capacity_bytes
                      ~prune:false ~engine:`Reference ()
                  in
                  let fast =
                    Analytical.Planner.optimize chain ~capacity_bytes ~pool ()
                  in
                  let best = List.hd reference in
                  check_true
                    (Printf.sprintf "%s/%s: same winner" preset label)
                    (plan_signature fast
                    = ( best.Analytical.Planner.c_perm,
                        Analytical.Tiling.bindings
                          best.Analytical.Planner.c_tiling ));
                  check_true
                    (Printf.sprintf "%s/%s: same winning DV" preset label)
                    (fast.movement.Analytical.Movement.dv_bytes
                    = best.Analytical.Planner.c_dv_bytes);
                  check_int
                    (Printf.sprintf "%s/%s: full order space considered"
                       preset label)
                    ref_stats.Analytical.Planner.evaluated
                    fast.candidates_evaluated)
                presets)))
    [
      ("gemm", small_gemm_chain ());
      ("softmax gemm", small_gemm_chain ~softmax:true ());
      ("conv", small_conv_chain ());
      ("figure2", figure2_chain ());
    ]

(* Tie-aware pruning: on a real (non-gapped) GEMM the box lower bound
   ties the winner's DV for whole classes of orders, so in-descent
   pruning only fires at all because ties behind the tie-break are
   excludable.  The pruned plan must keep the exact reference winner,
   actually prune, and still emit a certificate the independent
   checker accepts. *)
let tie_prune_case =
  case "tie pruning fires on a real GEMM and the certificate checks"
    (fun () ->
      let c = List.hd Workloads.Gemm_configs.all in
      let chain = Workloads.Gemm_configs.chain ~softmax:false c in
      List.iter
        (fun (preset, machine) ->
          let level = Arch.Machine.primary_on_chip machine in
          let capacity_bytes = level.Arch.Level.capacity_bytes in
          let plan = Analytical.Planner.optimize chain ~capacity_bytes () in
          let reference, _ =
            Analytical.Planner.explore chain ~capacity_bytes ~prune:false
              ~engine:`Reference ()
          in
          let best = List.hd reference in
          check_true
            (preset ^ ": pruned plan keeps the reference winner")
            (plan_signature plan
            = ( best.Analytical.Planner.c_perm,
                Analytical.Tiling.bindings best.Analytical.Planner.c_tiling
              ));
          check_true
            (preset ^ ": tie pruning fired")
            (plan.Analytical.Planner.perms_pruned > 0);
          check_true
            (preset ^ ": certificate checks clean after pruning")
            (Verify.Cert_check.check_level_plans chain
               [
                 {
                   Analytical.Planner.level;
                   plan;
                   feed_bandwidth_gbps = 1.0;
                   cost_seconds = 0.0;
                 };
               ]
            = []))
        presets)

(* Pruning bookkeeping: every order is either solved or pruned, and
   pruned ones spent no descent. *)
let prune_accounting_case =
  case "explore accounts every order as solved or pruned" (fun () ->
      let chain = small_conv_chain () in
      List.iter
        (fun (preset, machine) ->
          let capacity_bytes =
            (Arch.Machine.primary_on_chip machine).Arch.Level.capacity_bytes
          in
          let ranked, stats =
            Analytical.Planner.explore chain ~capacity_bytes ~prune:true ()
          in
          check_int
            (preset ^ ": ranked + pruned = evaluated")
            stats.Analytical.Planner.evaluated
            (List.length ranked + stats.Analytical.Planner.pruned);
          check_true
            (preset ^ ": pruning is a subset")
            (stats.Analytical.Planner.pruned >= 0
            && stats.Analytical.Planner.pruned
               < stats.Analytical.Planner.evaluated))
        presets)

(* ----------------------------------------------------------------- *)
(* The domain pool                                                    *)
(* ----------------------------------------------------------------- *)

exception Boom of int

let pool_tests =
  [
    case "run returns results in index order" (fun () ->
        with_pool (fun pool ->
            check_int "lanes" 3 (Util.Pool.size pool);
            let out = Util.Pool.run pool (fun i -> i * i) 100 in
            Array.iteri (fun i v -> check_int "square" (i * i) v) out;
            check_int "length" 100 (Array.length out)));
    case "empty and singleton jobs" (fun () ->
        with_pool (fun pool ->
            check_int "empty" 0 (Array.length (Util.Pool.run pool succ 0));
            check_int "singleton" 1 (Util.Pool.run pool succ 1).(0)));
    case "a raising task re-raises after the job settles" (fun () ->
        with_pool (fun pool ->
            match Util.Pool.run pool (fun i -> if i = 17 then raise (Boom i) else i) 64 with
            | _ -> Alcotest.fail "expected Boom"
            | exception Boom 17 -> ()
            | exception e ->
                Alcotest.failf "wrong exception: %s" (Printexc.to_string e)));
    case "nested run falls back inline and still answers" (fun () ->
        with_pool (fun pool ->
            let out =
              Util.Pool.run pool
                (fun i ->
                  Array.fold_left ( + ) 0
                    (Util.Pool.run pool (fun j -> (10 * i) + j) 4))
                8
            in
            Array.iteri
              (fun i v -> check_int "nested sum" ((40 * i) + 6) v)
              out));
    case "max_workers:1 is serial but correct" (fun () ->
        with_pool (fun pool ->
            let out = Util.Pool.run ~max_workers:1 pool (fun i -> i + 1) 32 in
            Array.iteri (fun i v -> check_int "succ" (i + 1) v) out));
    case "a single-lane pool runs everything inline" (fun () ->
        let pool = Util.Pool.create ~domains:1 () in
        let out = Util.Pool.run pool (fun i -> 2 * i) 16 in
        Array.iteri (fun i v -> check_int "double" (2 * i) v) out;
        Util.Pool.shutdown pool);
    case "shutdown is idempotent and leaves run usable inline" (fun () ->
        let pool = Util.Pool.create ~domains:2 () in
        Util.Pool.shutdown pool;
        Util.Pool.shutdown pool;
        let out = Util.Pool.run pool (fun i -> i - 1) 8 in
        Array.iteri (fun i v -> check_int "pred" (i - 1) v) out);
    case "the global pool answers and has at least one lane" (fun () ->
        let pool = Util.Pool.global () in
        check_true "size" (Util.Pool.size pool >= 1);
        let out = Util.Pool.run pool (fun i -> 3 * i) 10 in
        check_int "value" 27 out.(9));
  ]

(* ----------------------------------------------------------------- *)
(* Permutation memoization                                            *)
(* ----------------------------------------------------------------- *)

let memo_tests =
  [
    case "candidates and classify are memoized per structure" (fun () ->
        let chain = small_gemm_chain () in
        check_true "candidates shared"
          (Analytical.Permutations.candidates chain
          == Analytical.Permutations.candidates chain);
        check_true "classify shared"
          (Analytical.Permutations.classify chain
          == Analytical.Permutations.classify chain);
        (* An equal but distinct chain value hits the same cache entry:
           the key is the chain's structure, not its identity. *)
        check_true "structural key"
          (Analytical.Permutations.candidates chain
          == Analytical.Permutations.candidates (small_gemm_chain ())));
    case "memoization does not leak across structures" (fun () ->
        check_true "different chains differ"
          (Analytical.Permutations.candidates (small_gemm_chain ())
          != Analytical.Permutations.candidates (small_conv_chain ())));
  ]

(* ----------------------------------------------------------------- *)
(* Strict verification over pooled-planner output                     *)
(* ----------------------------------------------------------------- *)

let lint_strict_cases =
  List.map
    (fun (preset, machine) ->
      case ("pooled plans pass lint --strict on " ^ preset) (fun () ->
          with_pool (fun pool ->
              List.iter
                (fun chain ->
                  match
                    Service.Batch.compile ~pool
                      ~verify:Service.Batch.Verify_strict ~machine chain
                  with
                  | Ok r ->
                      check_true
                        (chain.Ir.Chain.name ^ " freshly compiled")
                        (r.Service.Batch.source = Service.Batch.Compiled);
                      check_true
                        (chain.Ir.Chain.name ^ " no error diagnostics")
                        (Verify.Diagnostic.ok r.Service.Batch.verification)
                  | Error e ->
                      Alcotest.failf "%s: %s" chain.Ir.Chain.name
                        (Service.Error.to_string e))
                [
                  small_gemm_chain ();
                  small_gemm_chain ~softmax:true ();
                  small_conv_chain ();
                  figure2_chain ();
                ])))
    presets

let suites =
  [
    ( "planner_fast.evaluator",
      List.map qcheck
        [
          prop_compile_matches_analyze "gemm chains"
            Test_properties.arbitrary_gemm_setup;
          prop_compile_matches_analyze "conv chains"
            Test_properties.arbitrary_conv_setup;
          prop_compile_matches_analyze_charged;
          prop_eval_array_matches_eval;
          prop_batch_matches_eval_array "gemm chains"
            Test_properties.arbitrary_gemm_setup;
          prop_batch_matches_eval_array "conv chains"
            Test_properties.arbitrary_conv_setup;
          prop_lower_bound_sound "gemm chains"
            Test_properties.arbitrary_gemm_setup;
          prop_lower_bound_sound "conv chains"
            Test_properties.arbitrary_conv_setup;
        ] );
    ( "planner_fast.equivalence",
      explore_head_cases
      @ [ prune_accounting_case; tie_prune_case ]
      @ List.map multilevel_equivalence_case presets );
    ("planner_fast.pool", pool_tests);
    ("planner_fast.memo", memo_tests);
    ("planner_fast.lint", lint_strict_cases);
  ]
