(* The paper's workload matrix as service requests: every Table IV/V
   workload on every machine preset, the request variants the wire form
   exposes, and the plans the service serves for them.  Shared by the
   fingerprint fixture, the allocation gates and the LPT oracle. *)

(* G1..G12 then C1..C8, each on cpu, gpu and npu: 60 requests. *)
let base_requests =
  let names =
    List.map (fun (g : Workloads.Gemm_configs.t) -> g.name)
      Workloads.Gemm_configs.all
    @ List.map (fun (c : Workloads.Conv_configs.t) -> c.name)
        Workloads.Conv_configs.all
  in
  List.concat_map
    (fun workload ->
      List.map
        (fun (arch, _) -> Service.Request.make ~workload ~arch ())
        Arch.Presets.all)
    names

(* Each base request plus its softmax / relu / batch=7 / unfused /
   tuner variants, in that order. *)
let request_variants =
  List.concat_map
    (fun (r : Service.Request.t) ->
      [
        r;
        { r with softmax = true };
        { r with relu = true };
        { r with batch = Some 7 };
        { r with fusion = false };
        { r with tuner = true };
      ])
    base_requests

(* A chain no builder would produce — negative access offsets and
   coefficients, extreme integers, an axis at the request extent limit —
   to pin the canonical encoding of every integer shape. *)
let forged_chain () =
  let big = Service.Request.max_axis_extent in
  let neg_access =
    [
      {
        Ir.Access.terms =
          [
            { Ir.Access.axis = "m"; coeff = -3 };
            { axis = "k"; coeff = min_int };
          ];
        offset = -7;
      };
      { terms = []; offset = min_int };
      { terms = [ { axis = "k"; coeff = max_int } ]; offset = -1 };
    ]
  in
  let input =
    {
      Ir.Operator.tensor = "A";
      dtype = Tensor.Dtype.Fp32;
      dims = [ big; -4; 0 ];
      access = neg_access;
    }
  in
  let output =
    {
      Ir.Operator.tensor = "C";
      dtype = Tensor.Dtype.Fp16;
      dims = [ big ];
      access =
        [ { Ir.Access.terms = [ { axis = "m"; coeff = 1 } ]; offset = -1 } ];
    }
  in
  let op =
    {
      Ir.Operator.name = "forged";
      axes = [ "m"; "k" ];
      reduction_axes = [ "k" ];
      inputs = [ input ];
      output;
      flops_per_point = -2;
    }
  in
  {
    Ir.Chain.name = "forged";
    axes = [ { Ir.Axis.name = "m"; extent = big }; { name = "k"; extent = 1 } ];
    stages =
      [ { op; epilogue = Ir.Chain.Softmax { axis = "m" }; standalone = op } ];
  }

(* (label, chain, machine, config) for every variant that resolves, then
   the forged chain under a config with negative integers. *)
let fingerprint_cases () =
  List.filter_map
    (fun r ->
      match Service.Request.resolve r with
      | Error _ -> None
      | Ok (chain, machine) ->
          Some
            ( Service.Request.describe r,
              chain,
              machine,
              Service.Request.config_of r ))
    request_variants
  @ [
      ( "forged",
        forged_chain (),
        Option.get (Arch.Presets.by_name "cpu"),
        { Chimera.Config.default with tuning_trials = -5; seed = min_int } );
    ]

(* One "label hex" line per case, as in fixtures/fingerprints_golden.txt. *)
let fingerprint_lines () =
  List.map
    (fun (label, chain, machine, config) ->
      label ^ " "
      ^ Service.Fingerprint.to_hex
          (Service.Fingerprint.of_request ~chain ~machine ~config))
    (fingerprint_cases ())

(* (label, kernel) for every unit of the plan the service serves for
   each base request, planned once per test run. *)
let served_kernels =
  lazy
    (List.concat_map
       (fun r ->
         let chain, machine = Result.get_ok (Service.Request.resolve r) in
         match
           Service.Batch.compile ~config:(Service.Request.config_of r) ~machine
             chain
         with
         | Error e -> failwith (Service.Error.to_string e)
         | Ok resp ->
             List.map
               (fun (u : Chimera.Compiler.unit_) ->
                 (Service.Request.describe r, u.kernel))
               resp.compiled.units)
       base_requests)
