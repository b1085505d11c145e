(* Planner performance: cold-plan latency of the batched-engine
   planner (SoA frontier sweeps with in-descent lane cutoffs,
   tie-aware branch-and-bound, shared compile templates) against the
   pre-compilation reference path (full Movement.analyze per
   evaluation, no pruning), over every workload and machine preset.
   Both paths choose identical plans — the equivalence suite asserts
   it — so this section is purely about time, model-evaluation counts
   and prune accounting (the [prune%] / [saved] columns).

   The fast path's time includes optimality-certificate emission (the
   evidence trail plus one witness-applicability probe per level, see
   docs/CERTIFY.md), so the speedups already price it in; the [cert]
   columns additionally time the independent checker pass
   (Verify.Cert_check over the multilevel plans) as a fraction of the
   cold plan it certifies — the budget is < 5%.  The checker runs on
   the same domain pool as the planner it is priced against (its
   per-order re-checks are independent, so they fan out just like the
   per-order solves do), matching how the service verifies.

   Two closing passes pin the rest of the engine's contract: the
   model-vs-simulator residual per preset (outermost plans replayed
   through the simulated DRAM walk, mean relative error of the
   analytical DV against the measured traffic — see docs/PERF.md) and
   a minor-words-per-eval count on a representative GEMM and conv,
   bounding both engines' per-eval allocation (the batched descent's
   allocation-free hot path, and the reference engine's Tiling.rebind
   hoist).
   scripts/check_planner_perf.py gates the emitted JSON in CI. *)

let presets = [ "cpu"; "gpu"; "npu" ]

let chains () =
  List.map
    (fun (c : Workloads.Gemm_configs.t) ->
      (c.name, "gemm", Workloads.Gemm_configs.chain ~softmax:false c))
    Workloads.Gemm_configs.all
  @ List.map
      (fun (c : Workloads.Conv_configs.t) ->
        (c.name, "conv", Workloads.Conv_configs.chain ~relu:false c))
      Workloads.Conv_configs.all

let sum_plans f level_plans =
  List.fold_left
    (fun acc (lp : Analytical.Planner.level_plan) ->
      acc + f lp.Analytical.Planner.plan)
    0 level_plans

let timed f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, (Unix.gettimeofday () -. t0) *. 1e3)

(* -- model-vs-simulator residual ---------------------------------- *)

(* Replaying a plan through the block-walk simulator costs one LRU pass
   per block visit; outermost-level plans have few blocks, but a cap
   keeps a pathological row from dominating the bench.  Skips are
   logged — a silently-thinned residual would overstate its own
   coverage. *)
let calib_max_blocks = 20_000.0

(* -- allocation accounting ------------------------------------------ *)

(* Minor words allocated per model evaluation for one cold plan.  The
   batched engine's descent must stay allocation-light (lanes and
   scratch are hoisted per solve); the reference engine's per-eval
   axis-table derivation is hoisted through [Tiling.rebind], which this
   pins against regression. *)
let minor_words_per_eval f =
  ignore (f ());
  (* warm: memo tables, lazy compiles *)
  Gc.minor ();
  let w0 = Gc.minor_words () in
  let plans = f () in
  let dw = Gc.minor_words () -. w0 in
  let evals =
    sum_plans (fun (p : Analytical.Planner.plan) -> p.solver_evals) plans
  in
  dw /. float_of_int (max 1 evals)

(* Minimum over [reps] runs: the paths timed here are deterministic, so
   the spread between repetitions is scheduler/allocator noise and the
   minimum is the least-polluted sample — single-shot ratios made the
   overhead columns jump by 2x between invocations on busy runners. *)
let timed_min ~reps f =
  let r, ms0 = timed f in
  let best = ref ms0 in
  for _ = 2 to reps do
    let _, ms = timed f in
    if ms < !best then best := ms
  done;
  (r, !best)

let run () =
  Common.section "planner"
    "Cold-plan latency: compiled evaluators + pruning vs reference path";
  let pool = Util.Pool.global () in
  Printf.printf "domain pool: %d lane(s)\n" (Util.Pool.size pool);
  let table =
    Util.Table.create
      ~columns:
        [
          "preset"; "config"; "ref (ms)"; "fast (ms)"; "speedup";
          "ref evals"; "fast evals"; "saved"; "pruned"; "prune %";
          "cert (ms)"; "cert %";
        ]
  in
  let all_ratios = ref [] in
  let cert_pcts = ref [] in
  let cert_mss = ref [] in
  let fast_mss = ref [] in
  let family_ratios : (string, float list ref) Hashtbl.t =
    Hashtbl.create 4
  in
  let calib_errs : (string, float list ref) Hashtbl.t = Hashtbl.create 4 in
  let calib_skipped = ref 0 in
  List.iter
    (fun preset ->
      let machine = Option.get (Arch.Presets.by_name preset) in
      List.iter
        (fun (name, family, chain) ->
          (* Warm the (memoised) order enumeration for both paths, so
             the comparison isolates the solve itself. *)
          ignore (Analytical.Permutations.candidates chain);
          let ref_plans, ref_ms =
            timed (fun () ->
                Analytical.Planner.optimize_multilevel ~prune:false
                  ~engine:`Reference chain ~machine)
          in
          let fast_plans, fast_ms =
            timed_min ~reps:3 (fun () ->
                Analytical.Planner.optimize_multilevel ~pool chain ~machine)
          in
          let ref_evals =
            sum_plans
              (fun (p : Analytical.Planner.plan) -> p.solver_evals)
              ref_plans
          in
          let fast_evals =
            sum_plans
              (fun (p : Analytical.Planner.plan) -> p.solver_evals)
              fast_plans
          in
          let pruned =
            sum_plans
              (fun (p : Analytical.Planner.plan) -> p.perms_pruned)
              fast_plans
          in
          let evaluated =
            sum_plans
              (fun (p : Analytical.Planner.plan) -> p.candidates_evaluated)
              fast_plans
          in
          let prune_rate =
            float_of_int pruned /. float_of_int (max 1 evaluated)
          in
          let evals_saved = ref_evals - fast_evals in
          (* Residual sample: the outermost (DRAM-fed) level's plan
             replayed through the block-walk simulator; its measured
             fill traffic is the ground truth the analytical DV is
             judged against. *)
          let outer_lp =
            List.nth fast_plans (List.length fast_plans - 1)
          in
          let outer_plan = outer_lp.Analytical.Planner.plan in
          let dv =
            outer_plan.Analytical.Planner.movement.Analytical.Movement.dv_bytes
          in
          let sim_dram_bytes =
            let blocks =
              Sim.Trace.block_count
                ~perm:outer_plan.Analytical.Planner.perm
                ~tiling:outer_plan.Analytical.Planner.tiling
            in
            if blocks > calib_max_blocks then begin
              incr calib_skipped;
              Printf.printf
                "residual: skipping %s/%s (%.0f blocks > %.0f cap)\n"
                preset name blocks calib_max_blocks;
              None
            end
            else begin
              let stats =
                Sim.Trace.measure_chain chain
                  ~levels:[ outer_lp.Analytical.Planner.level ]
                  ~perm:outer_plan.Analytical.Planner.perm
                  ~tiling:outer_plan.Analytical.Planner.tiling ()
              in
              Some stats.Sim.Trace.dram_bytes
            end
          in
          let rel_err =
            Option.map (fun b -> Float.abs (dv -. b) /. Float.max 1.0 b)
              sim_dram_bytes
          in
          Option.iter
            (fun e ->
              match Hashtbl.find_opt calib_errs preset with
              | Some r -> r := e :: !r
              | None -> Hashtbl.add calib_errs preset (ref [ e ]))
            rel_err;
          (* The independent certificate check, priced against the cold
             plan it certifies.  The pass must find nothing: a genuine
             plan's certificate always verifies. *)
          let cert_ds, cert_ms =
            timed_min ~reps:3 (fun () ->
                Verify.Cert_check.check_level_plans ~require_certificates:true
                  ~pool chain fast_plans)
          in
          if cert_ds <> [] then
            failwith
              (Printf.sprintf "%s/%s: certificate check found %d finding(s)"
                 preset name (List.length cert_ds));
          let cert_pct = 100.0 *. cert_ms /. fast_ms in
          cert_pcts := cert_pct :: !cert_pcts;
          cert_mss := cert_ms :: !cert_mss;
          fast_mss := fast_ms :: !fast_mss;
          let speedup = ref_ms /. fast_ms in
          all_ratios := speedup :: !all_ratios;
          let bucket =
            match Hashtbl.find_opt family_ratios family with
            | Some r -> r
            | None ->
                let r = ref [] in
                Hashtbl.add family_ratios family r;
                r
          in
          bucket := speedup :: !bucket;
          Util.Table.add_row table
            [
              preset; name;
              Printf.sprintf "%.1f" ref_ms;
              Printf.sprintf "%.1f" fast_ms;
              Printf.sprintf "%.1fx" speedup;
              string_of_int ref_evals;
              string_of_int fast_evals;
              string_of_int evals_saved;
              string_of_int pruned;
              Printf.sprintf "%.0f%%" (100.0 *. prune_rate);
              Printf.sprintf "%.2f" cert_ms;
              Printf.sprintf "%.1f%%" cert_pct;
            ];
          Common.record_json
            (Printf.sprintf "%s/%s" preset name)
            [
              ("preset", Util.Json.String preset);
              ("config", Util.Json.String name);
              ("family", Util.Json.String family);
              ("ref_ms", Util.Json.Float ref_ms);
              ("fast_ms", Util.Json.Float fast_ms);
              ("speedup", Util.Json.Float speedup);
              ("ref_evals", Util.Json.Int ref_evals);
              ("fast_evals", Util.Json.Int fast_evals);
              ("perms_pruned", Util.Json.Int pruned);
              ("prune_rate", Util.Json.Float prune_rate);
              ("evals_saved", Util.Json.Int evals_saved);
              ("cert_check_ms", Util.Json.Float cert_ms);
              ("cert_check_pct", Util.Json.Float cert_pct);
              ( "sim_dram_bytes",
                match sim_dram_bytes with
                | Some b -> Util.Json.Float b
                | None -> Util.Json.Null );
              ( "calib_rel_err",
                match rel_err with
                | Some e -> Util.Json.Float e
                | None -> Util.Json.Null );
            ])
        (chains ()))
    presets;
  Common.print_table table;
  let gm = Util.Stats.geomean !all_ratios in
  Printf.printf "geomean cold-plan speedup: %.1fx" gm;
  Hashtbl.iter
    (fun family ratios ->
      Printf.printf "  (%s %.1fx)" family (Util.Stats.geomean !ratios))
    family_ratios;
  print_newline ();
  let cert_mean =
    List.fold_left ( +. ) 0.0 !cert_pcts
    /. float_of_int (List.length !cert_pcts)
  in
  let cert_max = List.fold_left Float.max 0.0 !cert_pcts in
  let cert_aggregate =
    100.0 *. List.fold_left ( +. ) 0.0 !cert_mss
    /. List.fold_left ( +. ) 0.0 !fast_mss
  in
  Printf.printf
    "certificate check overhead: aggregate %.2f%% (mean %.2f%% / max %.2f%%) \
     of cold-plan time (budget < 5%%)\n"
    cert_aggregate cert_mean cert_max;
  (* -- model-vs-simulator residual per preset ---------------------- *)
  let calib_fields =
    List.concat_map
      (fun preset ->
        let errs =
          match Hashtbl.find_opt calib_errs preset with
          | Some r -> !r
          | None -> []
        in
        let rows = List.length errs in
        let raw_err =
          if rows = 0 then 0.0
          else List.fold_left ( +. ) 0.0 errs /. float_of_int rows
        in
        Printf.printf
          "residual %s: mean |DV - sim| / sim %.2f%% over %d row(s)\n" preset
          (100.0 *. raw_err) rows;
        [
          (Printf.sprintf "calib_%s_rows" preset, Util.Json.Int rows);
          ( Printf.sprintf "calib_%s_raw_rel_err" preset,
            Util.Json.Float raw_err );
        ])
      presets
  in
  if !calib_skipped > 0 then
    Printf.printf "residual: %d row(s) skipped by the block cap\n"
      !calib_skipped;
  (* -- allocation accounting on a representative GEMM and conv ------ *)
  let machine = Option.get (Arch.Presets.by_name "cpu") in
  let alloc_rows =
    List.map
      (fun (name, family, chain, batched_bound, reference_bound) ->
        let batched =
          minor_words_per_eval (fun () ->
              Analytical.Planner.optimize_multilevel ~prune:false chain
                ~machine)
        in
        let reference =
          minor_words_per_eval (fun () ->
              Analytical.Planner.optimize_multilevel ~prune:false
                ~engine:`Reference chain ~machine)
        in
        Printf.printf
          "allocation (%s %s): %.1f minor words/eval batched, %.1f \
           reference\n"
          family name batched reference;
        (* The batched descent allocates no per-eval state (its lane
           kernels carry immediate accumulators and write floats into
           hoisted unboxed scratch); what remains is per-sweep and
           per-solve bookkeeping amortized over the lanes — measured
           ~33 words/eval on the GEMM row and ~44 on the conv row
           (more refs, so more probe/reload traffic per adoption).
           The reference engine pays [Movement.analyze]'s full result
           records every eval — ~2000 words on GEMM, ~3500 on conv,
           inherent to the trust anchor — and its bound pins the
           [Tiling.rebind] hoist on top: re-deriving the axis table per
           eval adds several hundred words and must trip this. *)
        if batched > batched_bound then
          failwith
            (Printf.sprintf
               "allocation regression: batched engine at %.1f words/eval \
                (bound %.0f) on %s"
               batched batched_bound name);
        if reference > reference_bound then
          failwith
            (Printf.sprintf
               "allocation regression: reference engine at %.1f words/eval \
                (bound %.0f) on %s — was the Tiling.rebind hoist lost?"
               reference reference_bound name);
        [
          ( Printf.sprintf "alloc_words_per_eval_batched_%s" name,
            Util.Json.Float batched );
          ( Printf.sprintf "alloc_words_per_eval_reference_%s" name,
            Util.Json.Float reference );
        ])
      [
        (let c = List.hd Workloads.Gemm_configs.all in
         (c.name, "gemm", Workloads.Gemm_configs.chain ~softmax:false c, 40.0, 2300.0));
        (let c = List.nth Workloads.Conv_configs.all 2 in
         (c.name, "conv", Workloads.Conv_configs.chain ~relu:false c, 50.0, 3800.0));
      ]
  in
  Common.record_json "summary"
    (("geomean_speedup", Util.Json.Float gm)
    :: ("cert_check_aggregate_pct", Util.Json.Float cert_aggregate)
    :: ("cert_check_mean_pct", Util.Json.Float cert_mean)
    :: ("cert_check_max_pct", Util.Json.Float cert_max)
    :: ("pool_lanes", Util.Json.Int (Util.Pool.size pool))
    :: ("calib_skipped_rows", Util.Json.Int !calib_skipped)
    :: (calib_fields @ List.concat alloc_rows)
    @ List.of_seq
        (Seq.map
           (fun (family, ratios) ->
             ( "geomean_" ^ family,
               Util.Json.Float (Util.Stats.geomean !ratios) ))
           (Hashtbl.to_seq family_ratios)))
