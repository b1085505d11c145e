open Helpers

let machine = Arch.Presets.xeon_gold_6240

let config_tests =
  [
    case "default enables everything" (fun () ->
        let c = Chimera.Config.default in
        check_true "cost model" c.Chimera.Config.use_cost_model;
        check_true "fusion" c.Chimera.Config.use_fusion;
        check_true "micro kernel" c.Chimera.Config.use_micro_kernel);
    case "baseline disables the three ablation axes" (fun () ->
        let c = Chimera.Config.baseline in
        check_false "cost model" c.Chimera.Config.use_cost_model;
        check_false "fusion" c.Chimera.Config.use_fusion;
        check_false "micro kernel" c.Chimera.Config.use_micro_kernel);
    case "with_only builds the ablation variants" (fun () ->
        let c = Chimera.Config.with_only ~fusion:true () in
        check_true "fusion" c.Chimera.Config.use_fusion;
        check_false "others off" c.Chimera.Config.use_cost_model);
  ]

let registry_tests =
  [
    case "tuned registry lowers the tuned kernels" (fun () ->
        let r = Chimera.Compiler.registry_for Chimera.Config.default in
        check_string "cpu"
          "cpu.avx512.outer_product"
          (Microkernel.Registry.lower r ~name:"matmul" ~machine)
            .Microkernel.Kernel_sig.id);
    case "naive registry lowers the naive kernels" (fun () ->
        let r =
          Chimera.Compiler.registry_for
            { Chimera.Config.default with use_micro_kernel = false }
        in
        check_string "cpu naive" "cpu.avx512.naive"
          (Microkernel.Registry.lower r ~name:"matmul" ~machine)
            .Microkernel.Kernel_sig.id;
        check_string "gpu naive" "gpu.wmma.naive"
          (Microkernel.Registry.lower r ~name:"matmul"
             ~machine:Arch.Presets.nvidia_a100)
            .Microkernel.Kernel_sig.id);
  ]

let split_tests =
  [
    case "split_stages yields one single-stage chain per stage" (fun () ->
        let chain = figure2_chain () in
        let subs = Chimera.Compiler.split_stages chain in
        check_int "two" 2 (List.length subs);
        List.iter
          (fun (sub : Ir.Chain.t) ->
            check_int "one stage" 1 (Ir.Chain.stage_count sub);
            (* Every tensor of an unfused stage is IO: the intermediate
               spills. *)
            Alcotest.(check (list string))
              "no intermediates" []
              (Ir.Chain.intermediate_names sub))
          subs);
    case "split keeps the epilogue on its stage" (fun () ->
        let chain = small_gemm_chain ~softmax:true () in
        match Chimera.Compiler.split_stages chain with
        | [ first; second ] ->
            check_true "softmax on gemm1"
              (match (List.hd first.Ir.Chain.stages).Ir.Chain.epilogue with
              | Ir.Chain.Softmax _ -> true
              | _ -> false);
            check_true "gemm2 plain"
              ((List.hd second.Ir.Chain.stages).Ir.Chain.epilogue
              = Ir.Chain.Identity)
        | _ -> Alcotest.fail "expected two sub-chains");
  ]

let optimize_tests =
  [
    case "fused compilation yields one kernel" (fun () ->
        let compiled = Chimera.Compiler.optimize ~machine (figure2_chain ()) in
        check_int "one unit" 1 (List.length compiled.Chimera.Compiler.units));
    case "unfused compilation yields one kernel per stage" (fun () ->
        let config = { Chimera.Config.default with use_fusion = false } in
        let compiled =
          Chimera.Compiler.optimize ~config ~machine (figure2_chain ())
        in
        check_int "two units" 2 (List.length compiled.Chimera.Compiler.units));
    case "multilevel planning attaches a plan per on-chip level" (fun () ->
        let compiled = Chimera.Compiler.optimize ~machine (figure2_chain ()) in
        let kernel = (List.hd compiled.Chimera.Compiler.units).kernel in
        check_int "three levels" 3
          (List.length kernel.Codegen.Kernel.level_plans));
    case "parallel refinement fills the cores" (fun () ->
        let compiled =
          Chimera.Compiler.optimize ~machine
            (Ir.Chain.batch_gemm_chain ~name:"G2" ~batch:12 ~m:512 ~n:64
               ~k:64 ~l:512 ())
        in
        let kernel = (List.hd compiled.Chimera.Compiler.units).kernel in
        check_true "blocks >= cores"
          (Codegen.Kernel.block_count kernel
          >= float_of_int machine.Arch.Machine.cores));
    case "tuner path records its result" (fun () ->
        let config =
          {
            Chimera.Config.default with
            use_cost_model = false;
            tuning_trials = 5;
          }
        in
        let compiled =
          Chimera.Compiler.optimize ~config ~machine (small_gemm_chain ())
        in
        let unit_ = List.hd compiled.Chimera.Compiler.units in
        check_true "tuner used" (unit_.Chimera.Compiler.tuner <> None);
        match unit_.Chimera.Compiler.tuner with
        | Some r -> check_true "ran trials" (r.Chimera.Tuner.trials_run > 0)
        | None -> Alcotest.fail "expected tuner result");
    case "reports and totals are positive" (fun () ->
        let compiled = Chimera.Compiler.optimize ~machine (figure2_chain ()) in
        let reports = Chimera.Compiler.reports compiled in
        check_int "one report" 1 (List.length reports);
        check_true "positive total"
          (Chimera.Compiler.total_time_seconds compiled > 0.0);
        check_true "measured total positive"
          (Chimera.Compiler.total_time_measured_seconds compiled > 0.0));
    case "source emission covers every kernel" (fun () ->
        let config = { Chimera.Config.default with use_fusion = false } in
        let compiled =
          Chimera.Compiler.optimize ~config ~machine (figure2_chain ())
        in
        let src = Chimera.Compiler.source compiled in
        check_true "both kernels"
          (String.length src > 0
          &&
          let occurrences = ref 0 in
          String.iteri
            (fun i _ ->
              if
                i + 7 <= String.length src
                && String.sub src i 7 = "Chimera"
              then incr occurrences)
            src;
          !occurrences >= 2));
  ]

let ablation_tests =
  [
    slow_case "Figure 10 ordering: every feature helps, full wins" (fun () ->
        let chain =
          Ir.Chain.batch_gemm_chain ~name:"G2" ~batch:12 ~m:512 ~n:64 ~k:64
            ~l:512 ()
        in
        let time config =
          let config = { config with Chimera.Config.tuning_trials = 8 } in
          Chimera.Compiler.total_time_seconds
            (Chimera.Compiler.optimize ~config ~machine chain)
        in
        let full = time Chimera.Config.default in
        let baseline = time Chimera.Config.baseline in
        let v_c = time (Chimera.Config.with_only ~cost_model:true ()) in
        let v_f = time (Chimera.Config.with_only ~fusion:true ()) in
        let v_m = time (Chimera.Config.with_only ~micro_kernel:true ()) in
        check_true "cost model helps" (v_c < baseline);
        check_true "fusion helps" (v_f < baseline);
        check_true "micro kernel helps" (v_m < baseline);
        check_true "full beats all singles"
          (full < v_c && full < v_f && full < v_m);
        (* The paper's collective speedup is large (2.37 x 1.89 x 1.61). *)
        check_true "collective speedup > 3x" (baseline /. full > 3.0));
  ]

let tuner_tests =
  [
    case "tuner is deterministic for a seed" (fun () ->
        let chain = small_gemm_chain () in
        let run () =
          match
            Chimera.Tuner.search chain ~machine ~trials_per_order:4 ~seed:5 ()
          with
          | Ok r -> r
          | Error `No_feasible_tiling -> Alcotest.fail "no feasible sample"
        in
        let a = run () and b = run () in
        check_true "same tiling"
          (Analytical.Tiling.equal a.Chimera.Tuner.plan.Analytical.Planner.tiling
             b.Chimera.Tuner.plan.Analytical.Planner.tiling);
        check_float "same measurement" a.Chimera.Tuner.measured_dram_bytes
          b.Chimera.Tuner.measured_dram_bytes);
    case "tuner result is feasible" (fun () ->
        let chain = small_gemm_chain () in
        let r =
          match
            Chimera.Tuner.search chain ~machine ~trials_per_order:4 ~seed:5 ()
          with
          | Ok r -> r
          | Error `No_feasible_tiling -> Alcotest.fail "no feasible sample"
        in
        check_true "fits"
          (r.Chimera.Tuner.plan.Analytical.Planner.movement
             .Analytical.Movement.mu_bytes
          <= (Arch.Machine.primary_on_chip machine).Arch.Level.capacity_bytes));
    case "random_tiling honours full-tile axes" (fun () ->
        let chain = small_conv_chain () in
        let prng = Util.Prng.create ~seed:1 in
        let full_tile = Analytical.Permutations.full_tile_axes chain in
        for _ = 1 to 10 do
          let t = Chimera.Tuner.random_tiling chain ~prng ~full_tile in
          List.iter
            (fun axis ->
              check_int "full" (Ir.Chain.extent_of chain axis)
                (Analytical.Tiling.get t axis))
            full_tile
        done);
    case "analytical optimization beats the sampling tuner" (fun () ->
        (* Section VI-E: the analytical model wins on result quality. *)
        let chain =
          Ir.Chain.batch_gemm_chain ~name:"G1" ~batch:8 ~m:512 ~n:64 ~k:64
            ~l:512 ()
        in
        let analytic =
          Chimera.Compiler.total_time_seconds
            (Chimera.Compiler.optimize ~machine chain)
        in
        let config =
          {
            Chimera.Config.default with
            use_cost_model = false;
            tuning_trials = 8;
          }
        in
        let tuned =
          Chimera.Compiler.total_time_seconds
            (Chimera.Compiler.optimize ~config ~machine chain)
        in
        check_true "analytical at least as fast" (analytic <= tuned));
  ]

let suites =
  [
    ("chimera.config", config_tests);
    ("chimera.registry", registry_tests);
    ("chimera.split", split_tests);
    ("chimera.optimize", optimize_tests);
    ("chimera.ablation", ablation_tests);
    ("chimera.tuner", tuner_tests);
  ]
