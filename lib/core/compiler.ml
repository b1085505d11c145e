type unit_ = {
  sub_chain : Ir.Chain.t;
  kernel : Codegen.Kernel.t;
  tuner : Tuner.result option;
}

type compiled = {
  chain : Ir.Chain.t;
  machine : Arch.Machine.t;
  config : Config.t;
  units : unit_ list;
}

let split_stages (chain : Ir.Chain.t) =
  List.map
    (fun (stage : Ir.Chain.stage) ->
      Ir.Chain.make
        ~name:(chain.name ^ "." ^ stage.op.Ir.Operator.name)
        ~axes:chain.axes
        ~stages:
          [
            {
              Ir.Chain.op = stage.standalone;
              epilogue = stage.epilogue;
              standalone = stage.standalone;
            };
          ])
    chain.stages

let registry_for (config : Config.t) =
  if config.use_micro_kernel then Microkernel.Registry.default ()
  else begin
    let r = Microkernel.Registry.create () in
    Microkernel.Registry.register r ~name:"matmul" Microkernel.Cpu.naive_impl;
    Microkernel.Registry.register r ~name:"matmul" Microkernel.Gpu.naive_impl;
    (* The NPU always programs the cube through mad; its "naive" point is
       the same kernel without the packing benefit, approximated by the
       tuned kernel (the paper's ablation targets the CPU). *)
    Microkernel.Registry.register r ~name:"matmul" Microkernel.Npu.impl;
    r
  end

type unit_plan = {
  level_plans : Analytical.Planner.level_plan list;
  tuner_result : Tuner.result option;
}

exception No_feasible_tiling of string

let plan_unit ?check ?pool ?(obs = Obs.Trace.none) (config : Config.t)
    ~machine ~registry sub_chain =
  Obs.Trace.span obs "plan.unit"
    ~attrs:
      (if Obs.Trace.enabled obs then
         [ ("chain", sub_chain.Ir.Chain.name) ]
       else [])
    (fun obs ->
      (* The intra-block stage's native-tile floors, from the micro
         kernel that will be substituted. *)
      let micro =
        Microkernel.Registry.lower registry ~name:"matmul" ~machine
      in
      let min_tile = Codegen.Kernel.min_tile_floor ~micro sub_chain in
      if config.Config.use_cost_model then begin
        let level_plans =
          Analytical.Planner.optimize_multilevel
            ~min_blocks:machine.Arch.Machine.cores ~min_tile ?check ?pool ~obs
            sub_chain ~machine
        in
        Ok { level_plans; tuner_result = None }
      end
      else
        match
          Tuner.search sub_chain ~machine
            ~trials_per_order:config.Config.tuning_trials
            ~seed:config.Config.seed ?check ~obs ()
        with
        | Ok result -> Ok { level_plans = []; tuner_result = Some result }
        | Error `No_feasible_tiling -> Error `No_feasible_tiling)

let kernel_of_unit_plan ?(obs = Obs.Trace.none) ~machine ~registry sub_chain
    up =
  match up.tuner_result with
  | Some result ->
      let kernel =
        Codegen.Kernel.of_plan ~name:sub_chain.Ir.Chain.name ~chain:sub_chain
          ~machine ~registry ~plan:result.Tuner.plan ~obs ()
      in
      { sub_chain; kernel; tuner = Some result }
  | None ->
      let primary =
        match List.rev up.level_plans with
        | outer :: _ -> outer.Analytical.Planner.plan
        | [] -> invalid_arg "Compiler.kernel_of_unit_plan: empty plan"
      in
      let kernel =
        Codegen.Kernel.of_plan ~name:sub_chain.Ir.Chain.name ~chain:sub_chain
          ~machine ~registry ~plan:primary ~level_plans:up.level_plans ~obs ()
      in
      { sub_chain; kernel; tuner = None }

let compile_unit (config : Config.t) ~machine ~registry sub_chain =
  match plan_unit config ~machine ~registry sub_chain with
  | Ok up -> kernel_of_unit_plan ~machine ~registry sub_chain up
  | Error `No_feasible_tiling ->
      raise (No_feasible_tiling sub_chain.Ir.Chain.name)

let optimize ?(config = Config.default) ~machine chain =
  let registry = registry_for config in
  let sub_chains =
    if config.Config.use_fusion then [ chain ] else split_stages chain
  in
  let units = List.map (compile_unit config ~machine ~registry) sub_chains in
  { chain; machine; config; units }

let reports compiled =
  List.map
    (fun u ->
      (u.sub_chain.Ir.Chain.name, Sim.Perf.estimate ~kernels_launched:1 u.kernel))
    compiled.units

let total_time_seconds compiled =
  List.fold_left
    (fun acc (_, r) -> acc +. r.Sim.Perf.time_seconds)
    0.0 (reports compiled)

let measure compiled =
  List.map (fun u -> Sim.Trace.measure u.kernel) compiled.units

let total_time_measured_seconds compiled =
  List.fold_left
    (fun acc u ->
      let stats = Sim.Trace.measure u.kernel in
      let report =
        Sim.Perf.estimate ~kernels_launched:1
          ~dram_bytes:stats.Sim.Trace.dram_bytes u.kernel
      in
      acc +. report.Sim.Perf.time_seconds)
    0.0 compiled.units

let source compiled =
  String.concat "\n"
    (List.map (fun u -> Codegen.Source.emit u.kernel) compiled.units)

let run compiled env =
  List.iter (fun u -> Sim.Exec.run_kernel u.kernel env) compiled.units

let optimization_time_seconds f =
  let t0 = Sys.time () in
  let result = f () in
  let t1 = Sys.time () in
  (result, t1 -. t0)
