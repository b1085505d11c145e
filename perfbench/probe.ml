(* In-process work on the same generated requests the program under
   test received: the reference plans answers are checked against, the
   simulator's DRAM traffic for those plans, and (traced runs) timings
   of calls into each layer's public functions. *)

module J = Util.Json
module R = Service.Request

let now = Clock.now

type plan = {
  req : R.t;
  line : string;  (** the request's wire form *)
  chain : Ir.Chain.t;
  machine : Arch.Machine.t;
  config : Chimera.Config.t;
  fp : Service.Fingerprint.t;
  unit_plan : Chimera.Compiler.unit_plan;
  unit_ : Chimera.Compiler.unit_;
  plan_ms : float;  (** one [Compiler.plan_unit] call, serial *)
  dram_mb : float;  (** simulated DRAM traffic of the plan *)
  model_dv_mb : float;  (** the model's predicted DV for it *)
}

let line_of req = J.to_string (R.to_json req)
let is_conv req = String.length req.R.workload > 0 && req.R.workload.[0] = 'C'

(* Plan one request in this process, the way the serve loop plans a
   fused request, and replay the plan through the simulator. *)
let plan req =
  match R.resolve req with
  | Error e -> failwith ("generated request rejected: " ^ Service.Error.to_string e)
  | Ok (chain, machine) -> (
      let config = R.config_of req in
      let registry = Chimera.Compiler.registry_for config in
      let t0 = now () in
      match Chimera.Compiler.plan_unit config ~machine ~registry chain with
      | Error `No_feasible_tiling -> failwith ("no feasible tiling for " ^ R.describe req)
      | Ok unit_plan ->
          let plan_ms = (now () -. t0) *. 1e3 in
          let unit_ = Chimera.Compiler.kernel_of_unit_plan ~machine ~registry chain unit_plan in
          let compiled = { Chimera.Compiler.chain; machine; config; units = [ unit_ ] } in
          let dram =
            List.fold_left
              (fun acc s -> acc +. s.Sim.Trace.dram_bytes)
              0. (Chimera.Compiler.measure compiled)
          in
          {
            req;
            line = line_of req;
            chain;
            machine;
            config;
            fp = Service.Fingerprint.of_request ~chain ~machine ~config;
            unit_plan;
            unit_;
            plan_ms;
            dram_mb = dram /. 1e6;
            model_dv_mb = Codegen.Kernel.predicted_dv_bytes unit_.Chimera.Compiler.kernel /. 1e6;
          })

(* A served fused plan must be the plan this process makes for the
   same request: same fingerprint, same order, tiling and volumes. *)
let check_served chk p answer =
  if Check.str "rung" answer = Some "fused" then
    if Check.str "fingerprint" answer <> Some (Service.Fingerprint.to_hex p.fp) then
      Check.violation chk
        (R.describe p.req ^ ": served fingerprint differs from the reference")
    else if J.member "units" answer <> Some (J.List [ Check.unit_json p.unit_ ]) then
      Check.violation chk
        (R.describe p.req ^ ": served plan differs from the reference plan")

let sim_dram_geomean plans =
  Pstats.geomean (Array.of_list (List.map (fun p -> p.dram_mb) plans))

(* Mean wall time of one call, in microseconds, over at least 2 ms. *)
let per_call_us f =
  let t0 = now () in
  let n = ref 0 in
  while !n < 5 || now () -. t0 < 0.002 do
    ignore (Sys.opaque_identity (f ()));
    incr n
  done;
  (now () -. t0) /. float_of_int !n *. 1e6

let entry p =
  { Service.Plan_cache.rung = Service.Plan_cache.Fused; degrade_reason = None;
    units = [ p.unit_plan ] }

let file_kb dir =
  let f = Service.Plan_cache.cache_file ~dir in
  if Sys.file_exists f then float_of_int (Unix.stat f).Unix.st_size /. 1024. else 0.

(* The cache write-back the serve loop does under --cache-dir: one
   whole-file save per new plan, into [dir] (which may hold an image
   already).  Returns per-save times (ms), the final file size (KB) and
   the median time to load the result into a fresh cache (ms). *)
let replay_saves ~dir plans =
  let cache = Service.Plan_cache.create () in
  ignore (Service.Plan_cache.load cache ~dir);
  let saves =
    List.map
      (fun p ->
        Service.Plan_cache.add cache p.fp (entry p);
        let t0 = now () in
        Service.Plan_cache.save cache ~dir;
        (now () -. t0) *. 1e3)
      plans
  in
  let loads =
    Array.init 3 (fun _ ->
        let c = Service.Plan_cache.create () in
        let t0 = now () in
        ignore (Service.Plan_cache.load c ~dir);
        (now () -. t0) *. 1e3)
  in
  (Array.of_list saves, file_kb dir, Pstats.median loads)

type layers = {
  parse_us : float;
  resolve_us : float;
  fingerprint_us : float;
  find_us : float;
  kernel_us : float;
  serialize_us : float;
  gemm_ms : float;
  conv_ms : float;
  prune_ratio : float;
  evals : float;
  cert_check_ms : float;
  cert_check_share : float;
  certified_frac : float;
  model_ratio : float;
}

let certificates p =
  List.filter_map
    (fun lp -> lp.Analytical.Planner.plan.Analytical.Planner.certificate)
    p.unit_plan.Chimera.Compiler.level_plans

(* Time each layer on every plan's request; a figure is the median over
   requests.  [answers] maps a request line to the answer the program
   served for it (the serializer is timed on real answers). [conv]
   supplies the conv plans when the workload has none of its own. *)
let layers ?(conv = []) ~answers plans =
  let med f = Pstats.median (Array.of_list (List.map f plans)) in
  let cache = Service.Plan_cache.create ~capacity:(max 1 (List.length plans)) () in
  List.iter (fun p -> Service.Plan_cache.add cache p.fp (entry p)) plans;
  let registry p = Chimera.Compiler.registry_for p.config in
  let checks =
    List.map
      (fun p ->
        let t0 = now () in
        let diags =
          Verify.Cert_check.check_level_plans p.chain p.unit_plan.Chimera.Compiler.level_plans
        in
        let ms = (now () -. t0) *. 1e3 in
        let ok =
          Verify.Cert_check.certified p.unit_plan.Chimera.Compiler.level_plans
          && Verify.Diagnostic.errors diags = []
        in
        (ms, ok))
      plans
  in
  let sum f l = List.fold_left (fun acc x -> acc +. f x) 0. l in
  let certs = List.concat_map certificates plans in
  let planner_ms pred =
    let ts = List.filter_map (fun p -> if pred p then Some p.plan_ms else None) (plans @ conv) in
    Pstats.median (Array.of_list ts)
  in
  let served p = Hashtbl.find_opt answers p.line in
  {
    parse_us =
      med (fun p -> per_call_us (fun () -> Result.map R.of_json (J.parse p.line)));
    resolve_us = med (fun p -> per_call_us (fun () -> R.resolve p.req));
    fingerprint_us =
      med (fun p ->
          per_call_us (fun () ->
              Service.Fingerprint.of_request ~chain:p.chain ~machine:p.machine ~config:p.config));
    find_us = med (fun p -> per_call_us (fun () -> Service.Plan_cache.find cache p.fp));
    kernel_us =
      med (fun p ->
          per_call_us (fun () ->
              Chimera.Compiler.kernel_of_unit_plan ~machine:p.machine ~registry:(registry p)
                p.chain p.unit_plan));
    serialize_us =
      Pstats.median
        (Array.of_list
           (List.filter_map
              (fun p -> Option.map (fun a -> per_call_us (fun () -> J.to_string a)) (served p))
              plans));
    gemm_ms = planner_ms (fun p -> not (is_conv p.req));
    conv_ms = planner_ms (fun p -> is_conv p.req);
    prune_ratio =
      float_of_int (List.fold_left (fun a c -> a + Analytical.Certificate.entries_pruned c) 0 certs)
      /. float_of_int
           (max 1 (List.fold_left (fun a c -> a + List.length c.Analytical.Certificate.entries) 0 certs));
    evals =
      Pstats.mean
        (Array.of_list
           (List.map
              (fun p ->
                float_of_int
                  (List.fold_left
                     (fun a lp -> a + lp.Analytical.Planner.plan.Analytical.Planner.solver_evals)
                     0 p.unit_plan.Chimera.Compiler.level_plans))
              plans));
    cert_check_ms = Pstats.median (Array.of_list (List.map fst checks));
    cert_check_share = sum fst checks /. sum (fun p -> p.plan_ms) plans;
    certified_frac =
      float_of_int (List.length (List.filter snd checks)) /. float_of_int (max 1 (List.length plans));
    model_ratio =
      Pstats.geomean (Array.of_list (List.map (fun p -> p.model_dv_mb /. p.dram_mb) plans));
  }
