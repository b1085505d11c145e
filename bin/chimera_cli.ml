(* The Chimera command-line driver.

   chimera optimize --workload G2 --arch cpu [--softmax] [--source]
   chimera run      --workload C3 --arch gpu [--relu]
   chimera compare  --workload G2 --arch cpu
   chimera lint     [--workload W|all] [--arch A|all] [--strict] [--json]
   chimera batch    --requests FILE|all [--jobs N] [--cache-dir DIR]
                    [--deadline-ms MS] [--failpoints SPEC] [--verify MODE]
                    [--trace FILE]
   chimera serve    [--cache-dir DIR] [--deadline-ms MS] [--failpoints SPEC]
                    [--verify MODE]
   chimera trace    [REQUESTS.jsonl] | [--workload G2 --arch cpu ...]
                    [-o trace.json] [--verify MODE]
   chimera fleet    [-n N] [--cache-dir DIR] [--chaos SPEC] [--trace]
                    [--flight-dir DIR]
   chimera loadgen  [--rps R] [--duration S] [--chaos SPEC] [--retries N]
                    [--trace] [--trace-out FILE] [--json]
   chimera slo      [REPORT.json] [--json]
   chimera metrics  --requests FILE|all [--prom]
   chimera list *)

open Cmdliner

let lookup_machine name =
  match Arch.Presets.by_name name with
  | Some m -> Ok m
  | None -> Error (`Msg (Printf.sprintf "unknown arch %S (cpu|gpu|npu)" name))

let lookup_chain ~workload ~softmax ~relu ~batch =
  match Workloads.Gemm_configs.by_name workload with
  | Some c -> Ok (Workloads.Gemm_configs.chain ~softmax ?batch_override:batch c)
  | None -> (
      match Workloads.Conv_configs.by_name workload with
      | Some c ->
          Ok (Workloads.Conv_configs.chain ~relu ?batch c)
      | None ->
          Error
            (`Msg
               (Printf.sprintf
                  "unknown workload %S (G1..G12 from Table IV, C1..C8 from \
                   Table V)"
                  workload)))

(* ---------------- arguments ---------------- *)

let workload_arg =
  let doc = "Workload: G1..G12 (batch-GEMM chains) or C1..C8 (conv chains)." in
  Arg.(required & opt (some string) None & info [ "w"; "workload" ] ~doc)

let arch_arg =
  let doc = "Target machine: cpu (Xeon Gold), gpu (A100) or npu (Ascend 910)." in
  Arg.(value & opt string "cpu" & info [ "a"; "arch" ] ~doc)

let softmax_arg =
  let doc = "Insert the attention softmax between the two GEMMs." in
  Arg.(value & flag & info [ "softmax" ] ~doc)

let relu_arg =
  let doc = "Insert ReLU after each convolution." in
  Arg.(value & flag & info [ "relu" ] ~doc)

let batch_arg =
  let doc = "Override the workload's batch size." in
  Arg.(value & opt (some int) None & info [ "batch" ] ~doc)

let source_arg =
  let doc = "Also print the generated kernel source." in
  Arg.(value & flag & info [ "source" ] ~doc)

let parallel_arg =
  let doc = "Execute numerically across OCaml domains (multicore)." in
  Arg.(value & flag & info [ "parallel" ] ~doc)

let no_fusion_arg =
  let doc = "Disable chain fusion (one kernel per operator)." in
  Arg.(value & flag & info [ "no-fusion" ] ~doc)

(* ---------------- commands ---------------- *)

let with_setup workload arch softmax relu batch f =
  match
    Result.bind (lookup_machine arch) (fun machine ->
        Result.map
          (fun chain -> (machine, chain))
          (lookup_chain ~workload ~softmax ~relu ~batch))
  with
  | Error e -> Error e
  | Ok (machine, chain) -> f machine chain

let print_report name (r : Sim.Perf.report) =
  Printf.printf "kernel %s:\n" name;
  Printf.printf "  estimated time     %.2f us (%.0f GFLOP/s)\n"
    (r.time_seconds *. 1e6) (Sim.Perf.gflops r);
  Printf.printf "  compute / memory   %.2f / %.2f us\n"
    (r.compute_seconds *. 1e6)
    (r.memory_seconds *. 1e6);
  Printf.printf "  DRAM traffic       %.3f MB\n" (r.dram_bytes /. 1e6);
  Printf.printf "  micro-kernel eff.  %.1f%%  core occupancy %.1f%%\n"
    (100.0 *. r.micro_efficiency)
    (100.0 *. r.parallel_efficiency);
  List.iter
    (fun (level, cost) ->
      Printf.printf "  level %-6s        %.2f us\n" level (cost *. 1e6))
    r.per_level_cost

let optimize_cmd workload arch softmax relu batch source no_fusion =
  with_setup workload arch softmax relu batch (fun machine chain ->
      let config =
        { Chimera.Config.default with use_fusion = not no_fusion }
      in
      let compiled, dt =
        Chimera.Compiler.optimization_time_seconds (fun () ->
            Chimera.Compiler.optimize ~config ~machine chain)
      in
      Format.printf "%a" Ir.Chain.pp chain;
      Printf.printf "target: %s\n" machine.Arch.Machine.name;
      Printf.printf "optimization took %.2f s\n\n" dt;
      (* Why this order: the top of the explored space. *)
      let ranked, stats =
        Analytical.Planner.explore chain
          ~capacity_bytes:
            (Arch.Machine.primary_on_chip machine).Arch.Level.capacity_bytes
          ()
      in
      Printf.printf "explored %d block execution orders; best five:\n"
        stats.Analytical.Planner.evaluated;
      List.iteri
        (fun i (c : Analytical.Planner.candidate) ->
          if i < 5 then
            Printf.printf "  %d. %-10s DV %.3f MB  tiles %s\n" (i + 1)
              (String.concat "" c.c_perm)
              (c.c_dv_bytes /. 1e6)
              (Analytical.Tiling.to_string c.c_tiling))
        ranked;
      print_newline ();
      List.iter
        (fun (u : Chimera.Compiler.unit_) ->
          Printf.printf "%s: order %s, tiles %s\n"
            u.sub_chain.Ir.Chain.name
            (String.concat "" u.kernel.Codegen.Kernel.perm)
            (Analytical.Tiling.to_string u.kernel.Codegen.Kernel.tiling))
        compiled.Chimera.Compiler.units;
      print_newline ();
      List.iter
        (fun (name, r) -> print_report name r)
        (Chimera.Compiler.reports compiled);
      Printf.printf "total estimated time: %.2f us\n"
        (Chimera.Compiler.total_time_seconds compiled *. 1e6);
      if source then begin
        print_newline ();
        print_string (Chimera.Compiler.source compiled)
      end;
      Ok ())

let run_cmd workload arch softmax relu batch parallel =
  with_setup workload arch softmax relu batch (fun machine chain ->
      Printf.printf "compiling %s for %s...\n%!" chain.Ir.Chain.name
        machine.Arch.Machine.name;
      let compiled = Chimera.Compiler.optimize ~machine chain in
      let env = Sim.Exec.make_env chain ~seed:2024 in
      if parallel then begin
        let domains = Domain.recommended_domain_count () in
        Printf.printf "running the fused kernel on %d domains...\n%!" domains;
        List.iter
          (fun (u : Chimera.Compiler.unit_) ->
            Sim.Parallel_exec.run_fused_parallel ~domains
              u.Chimera.Compiler.sub_chain
              ~perm:u.kernel.Codegen.Kernel.perm
              ~tiling:u.kernel.Codegen.Kernel.tiling env)
          compiled.Chimera.Compiler.units
      end
      else begin
        Printf.printf "running the fused kernel numerically...\n%!";
        Chimera.Compiler.run compiled env
      end;
      Printf.printf "running the unfused reference...\n%!";
      let ref_env = Sim.Exec.make_env chain ~seed:2024 in
      Sim.Exec.run_reference chain ref_env;
      let ok = Sim.Exec.outputs_match ~rtol:1e-6 chain ref_env env in
      Printf.printf "numerics %s\n" (if ok then "MATCH" else "MISMATCH");
      let stats = Chimera.Compiler.measure compiled in
      List.iter
        (fun (s : Sim.Trace.stats) ->
          Printf.printf "simulated DRAM traffic: %.3f MB over %d blocks\n"
            (s.dram_bytes /. 1e6) s.blocks_visited)
        stats;
      if ok then Ok () else Error (`Msg "fused kernel diverged from reference"))

let compare_cmd workload arch softmax relu batch =
  with_setup workload arch softmax relu batch (fun machine chain ->
      let chimera =
        Chimera.Compiler.total_time_seconds
          (Chimera.Compiler.optimize ~machine chain)
      in
      Printf.printf "%-12s %10.2f us   1.00x\n" "Chimera" (chimera *. 1e6);
      List.iter
        (fun p ->
          let r = Baselines.Profile.estimate p ~machine chain in
          Printf.printf "%-12s %10.2f us   %.2fx slower (%d kernels)\n"
            r.Baselines.Profile.profile
            (r.Baselines.Profile.time_seconds *. 1e6)
            (r.Baselines.Profile.time_seconds /. chimera)
            r.Baselines.Profile.kernel_count)
        (Baselines.Systems.for_machine machine);
      Ok ())

let advise_cmd workload arch softmax relu batch =
  with_setup workload arch softmax relu batch (fun machine chain ->
      let v = Chimera.Advisor.assess ~machine chain in
      Printf.printf "%s\n\n" (Chimera.Advisor.explain v);
      Printf.printf "fused    %.2f us\nunfused  %.2f us\n"
        (v.Chimera.Advisor.fused_seconds *. 1e6)
        (v.Chimera.Advisor.unfused_seconds *. 1e6);
      List.iter
        (fun (s : Chimera.Advisor.boundedness_summary) ->
          Printf.printf "stage %-8s %s (AI %.1f flop/byte)\n" s.stage
            (Arch.Roofline.boundedness_to_string s.boundedness)
            s.arithmetic_intensity)
        v.Chimera.Advisor.stages;
      Ok ())

let breakdown_cmd arch =
  match lookup_machine arch with
  | Error e -> Error e
  | Ok machine ->
      Printf.printf "%-12s %8s %8s %8s   (unfused execution on %s)\n"
        "network" "%MI" "%CI" "%BMM" machine.Arch.Machine.name;
      List.iter
        (fun net ->
          let b = Workloads.Breakdown.analyze net ~machine in
          Printf.printf "%-12s %7.2f%% %7.2f%% %7.2f%%\n"
            net.Workloads.Networks.name b.Workloads.Breakdown.mi_pct
            b.Workloads.Breakdown.ci_pct b.Workloads.Breakdown.bmm_pct)
        Workloads.Networks.all;
      Ok ()

let graph_cmd arch =
  match lookup_machine arch with
  | Error e -> Error e
  | Ok machine ->
      let g =
        Graph.Models.transformer_block ~hidden:768 ~heads:12 ~seq:512
          ~ffn:3072 ()
      in
      Format.printf "%a@." Graph.Builder.pp g;
      let p = Graph.Partition.partition g in
      print_endline (Graph.Partition.describe p);
      let fused = Graph.Estimate.estimate p ~machine in
      let unfused = Graph.Estimate.unfused_estimate p ~machine in
      Printf.printf
        "\nfused %.2f us vs unfused %.2f us (speedup %.2fx) on %s\n"
        (fused.Graph.Estimate.total_seconds *. 1e6)
        (unfused.Graph.Estimate.total_seconds *. 1e6)
        (unfused.Graph.Estimate.total_seconds
        /. fused.Graph.Estimate.total_seconds)
        machine.Arch.Machine.name;
      Ok ()

(* ---------------- static-analysis lint ---------------- *)

let lint_targets workload =
  if workload = "all" then
    Ok
      (List.map
         (fun (c : Workloads.Gemm_configs.t) ->
           (c.name, Workloads.Gemm_configs.chain ~softmax:false c))
         Workloads.Gemm_configs.all
      @ List.map
          (fun (c : Workloads.Conv_configs.t) ->
            (c.name, Workloads.Conv_configs.chain ~relu:false c))
          Workloads.Conv_configs.all)
  else
    Result.map
      (fun chain -> [ (workload, chain) ])
      (lookup_chain ~workload ~softmax:false ~relu:false ~batch:None)

let lint_machines arch =
  if arch = "all" then Ok Arch.Presets.all
  else Result.map (fun m -> [ (arch, m) ]) (lookup_machine arch)

(* The same verdict Batch.certificate_verdict computes for service
   responses, re-derived here so lint output matches the wire. *)
let certificate_verdict (compiled : Chimera.Compiler.compiled) ds =
  let plans_of (u : Chimera.Compiler.unit_) =
    u.Chimera.Compiler.kernel.Codegen.Kernel.level_plans
  in
  let units = compiled.Chimera.Compiler.units in
  if
    List.exists
      (fun (d : Verify.Diagnostic.t) ->
        Verify.Cert_check.error_code d.Verify.Diagnostic.code)
      ds
  then "failed"
  else if
    not (List.for_all (fun u -> Verify.Cert_check.certified (plans_of u)) units)
  then "uncertified"
  else if List.exists (fun u -> Verify.Cert_check.conditional (plans_of u)) units
  then "conditional"
  else "certified"

let lint_cmd workload arch strict certify require_full json_out =
  match
    Result.bind (lint_machines arch) (fun machines ->
        Result.map (fun ts -> (machines, ts)) (lint_targets workload))
  with
  | Error e -> Error e
  | Ok (machines, targets) ->
      let error_count = ref 0 and warning_count = ref 0 in
      let emit_json name aname fields =
        print_endline
          (Util.Json.to_string
             (Util.Json.Obj
                (("workload", Util.Json.String name)
                 :: ("arch", Util.Json.String aname)
                 :: fields)))
      in
      List.iter
        (fun (aname, machine) ->
          List.iter
            (fun (name, chain) ->
              match Chimera.Compiler.optimize ~machine chain with
              | exception e ->
                  (* A workload the compiler cannot plan at all is a lint
                     failure too: the verifier never got to look at it. *)
                  incr error_count;
                  if json_out then
                    emit_json name aname
                      [
                        ("ok", Util.Json.Bool false);
                        ( "error",
                          Util.Json.String (Printexc.to_string e) );
                      ]
                  else
                    Printf.printf "%-4s x %-4s FAILED to compile: %s\n" name
                      aname (Printexc.to_string e)
              | compiled ->
                  let ds =
                    Verify.Driver.check_compiled ~require_certificates:certify
                      ~pool:(Util.Pool.global ()) compiled
                  in
                  let errs = List.length (Verify.Diagnostic.errors ds) in
                  (* --require-full upgrades the conditional-certificate
                     and missing-certificate warnings (CHIM043/CHIM044)
                     to failures: every plan must carry a whole-box
                     optimality proof, not just an exhaustive search. *)
                  let upgraded =
                    if not (certify && require_full) then 0
                    else
                      List.length
                        (List.filter
                           (fun (d : Verify.Diagnostic.t) ->
                             (d.Verify.Diagnostic.code
                              = Verify.Cert_check.conditional_code
                             || d.Verify.Diagnostic.code
                                = Verify.Cert_check.missing_code)
                             && not (Verify.Diagnostic.is_error d))
                           ds)
                  in
                  error_count := !error_count + errs + upgraded;
                  warning_count :=
                    !warning_count + (List.length ds - errs - upgraded);
                  let verdict =
                    if certify then Some (certificate_verdict compiled ds)
                    else None
                  in
                  let cert_ok =
                    match verdict with
                    | Some "certified" | None -> true
                    | Some "conditional" -> not require_full
                    | Some _ -> false
                  in
                  if json_out then
                    emit_json name aname
                      ([ ("ok",
                          Util.Json.Bool (Verify.Diagnostic.ok ds && cert_ok))
                       ]
                      @ (match verdict with
                        | Some v -> [ ("certificate", Util.Json.String v) ]
                        | None -> [])
                      @ [
                          ( "diagnostics",
                            Util.Json.List
                              (List.map Verify.Diagnostic.to_json ds) );
                        ])
                  else begin
                    let cert_note =
                      match verdict with
                      | Some v -> Printf.sprintf " [%s]" v
                      | None -> ""
                    in
                    if ds = [] then
                      Printf.printf "%-4s x %-4s clean%s\n" name aname
                        cert_note
                    else begin
                      Printf.printf "%-4s x %-4s %s%s\n" name aname
                        (Verify.Diagnostic.summary ds) cert_note;
                      List.iter
                        (fun d ->
                          Printf.printf "  %s\n"
                            (Verify.Diagnostic.to_string d))
                        ds
                    end
                  end)
            targets)
        machines;
      if not json_out then
        Printf.printf "linted %d workload(s) x %d machine(s): %d error(s), \
                       %d warning(s)\n"
          (List.length targets) (List.length machines) !error_count
          !warning_count;
      if strict && !error_count > 0 then
        Error
          (`Msg
             (Printf.sprintf "lint found %d error-severity diagnostic(s)"
                !error_count))
      else Ok ()

(* ---------------- compilation service ---------------- *)

let load_requests path =
  if path = "all" then Ok (Service.Request.all_gemm_x_arch ())
  else if not (Sys.file_exists path) then
    Error (`Msg (Printf.sprintf "no such requests file: %s" path))
  else begin
    let ic = open_in path in
    let requests = ref [] and errors = ref [] in
    let lineno = ref 0 in
    (try
       while true do
         let line = input_line ic in
         incr lineno;
         if String.trim line <> "" then
           match
             Result.bind (Util.Json.parse line) Service.Request.of_json
           with
           | Ok req -> requests := req :: !requests
           | Error e ->
               errors := Printf.sprintf "line %d: %s" !lineno e :: !errors
       done
     with End_of_file -> ());
    close_in ic;
    match List.rev !errors with
    | [] -> Ok (List.rev !requests)
    | e :: _ -> Error (`Msg e)
  end

let configure_failpoints = function
  | None -> Ok ()
  | Some spec -> (
      match Service.Failpoint.configure spec with
      | Ok () -> Ok ()
      | Error e -> Error (`Msg ("bad --failpoints spec: " ^ e)))

let configure_log_level = function
  | None -> Ok () (* CHIMERA_LOG, read lazily by Obs.Log, stays in charge *)
  | Some "off" -> Obs.Log.set_level None; Ok ()
  | Some s -> (
      match Obs.Log.level_of_string s with
      | Some l -> Obs.Log.set_level (Some l); Ok ()
      | None ->
          Error
            (`Msg
               (Printf.sprintf
                  "bad --log-level %S (off|error|warn|info|debug)" s)))

let write_json_file path json =
  let oc = open_out path in
  output_string oc (Util.Json.to_string json);
  output_char oc '\n';
  close_out oc

let batch_cmd requests_path jobs cache_dir deadline_ms failpoints verify
    log_level trace_out =
  match
    Result.bind (configure_log_level log_level) (fun () ->
        Result.bind (configure_failpoints failpoints) (fun () ->
            load_requests requests_path))
  with
  | Error e -> Error e
  | Ok requests ->
      let metrics = Service.Metrics.create () in
      let cache = Service.Plan_cache.create ~metrics () in
      Option.iter
        (fun dir ->
          match Service.Plan_cache.load cache ~dir with
          | Service.Plan_cache.Loaded { entries; skipped; migrated } ->
              Printf.printf "loaded %d cached plans from %s%s%s\n" entries dir
                (if skipped = 0 then ""
                 else Printf.sprintf " (%d corrupt entries skipped)" skipped)
                (if migrated = 0 then ""
                 else
                   Printf.sprintf " (%d older-version entries migrated)"
                     migrated)
          | Service.Plan_cache.Absent -> ()
          | Service.Plan_cache.Discarded reason ->
              Printf.printf "discarded stale plan cache in %s: %s\n" dir
                reason)
        cache_dir;
      let t0 = Unix.gettimeofday () in
      let results =
        Service.Batch.run ~jobs ~cache ~metrics ?deadline_ms ~verify requests
      in
      let wall = Unix.gettimeofday () -. t0 in
      Option.iter
        (fun dir ->
          if Service.Plan_cache.dirty cache then
            match Service.Plan_cache.save_with_retry cache ~dir with
            | Ok () -> ()
            | Error reason -> Printf.eprintf "chimera batch: %s\n" reason)
        cache_dir;
      let table =
        Util.Table.create
          ~columns:
            [ "request"; "status"; "kernels"; "est us"; "plan ms"; "order" ]
      in
      List.iter
        (fun (req, result) ->
          match result with
          | Ok (r : Service.Batch.response) ->
              let status =
                match (r.source, r.degraded) with
                | _, Some _ ->
                    "degraded:" ^ Service.Plan_cache.rung_to_string r.rung
                | Service.Batch.Cache, None -> "cached"
                | Service.Batch.Compiled, None -> "compiled"
              in
              let units = r.compiled.Chimera.Compiler.units in
              let order =
                String.concat "+"
                  (List.map
                     (fun (u : Chimera.Compiler.unit_) ->
                       String.concat "" u.kernel.Codegen.Kernel.perm)
                     units)
              in
              Util.Table.add_row table
                [
                  Service.Request.describe req;
                  status;
                  string_of_int (List.length units);
                  Printf.sprintf "%.1f" (r.estimated_seconds *. 1e6);
                  Printf.sprintf "%.1f" (r.seconds *. 1e3);
                  order;
                ]
          | Error e ->
              Util.Table.add_row table
                [
                  Service.Request.describe req; "FAILED"; "-"; "-"; "-";
                  Service.Error.to_string e;
                ])
        results;
      Util.Table.print table;
      Printf.printf "\nbatch of %d requests in %.2f s (%d jobs)\n"
        (List.length requests) wall jobs;
      Service.Metrics.print metrics;
      Option.iter
        (fun path ->
          (* Deduplicate by trace id: responses answered by the same
             planning representative share nothing, but be safe. *)
          let seen = Hashtbl.create 16 in
          let traces =
            List.filter_map
              (fun (_, result) ->
                match result with
                | Ok (r : Service.Batch.response) -> (
                    match r.trace with
                    | Some t when not (Hashtbl.mem seen (Obs.Trace.id t)) ->
                        Hashtbl.add seen (Obs.Trace.id t) ();
                        Some t
                    | _ -> None)
                | Error _ -> None)
              results
          in
          write_json_file path (Obs.Export.chrome_json traces);
          Printf.printf "wrote %d trace(s) to %s\n" (List.length traces) path)
        trace_out;
      let failures =
        List.filter (fun (_, r) -> Result.is_error r) results
      in
      if failures = [] then Ok ()
      else
        Error
          (`Msg (Printf.sprintf "%d request(s) failed" (List.length failures)))

let serve_cmd cache_dir deadline_ms failpoints verify log_level =
  match
    Result.bind (configure_log_level log_level) (fun () ->
        configure_failpoints failpoints)
  with
  | Error e -> Error e
  | Ok () ->
      Service.Serve.run ?cache_dir ?default_deadline_ms:deadline_ms ~verify
        stdin stdout;
      Ok ()

(* ---------------- fleet commands ---------------- *)

let verify_flag_of = function
  | Service.Batch.Verify_off -> "off"
  | Service.Batch.Verify_warn -> "warn"
  | Service.Batch.Verify_strict -> "strict"

(* The worker argv: this very binary (unless [--worker-exe] overrides
   it), running the unchanged serve loop.  A shared [cache_dir] gives
   the fleet its common on-disk cache tier (safe under contention —
   Plan_cache takes the directory lock).  [failpoints] carries the
   chaos schedule's per-worker torn-save spec. *)
let worker_argv ?exe ?failpoints ~cache_dir ~deadline_ms ~verify ~log_level ()
    =
  let argv = ref [] in
  let push x = argv := x :: !argv in
  push (Option.value exe ~default:Sys.executable_name);
  push "serve";
  Option.iter (fun d -> push "--cache-dir"; push d) cache_dir;
  Option.iter (fun ms -> push "--deadline-ms"; push (string_of_float ms))
    deadline_ms;
  (match verify with
  | Service.Batch.Verify_off -> ()
  | v -> push "--verify"; push (verify_flag_of v));
  Option.iter (fun l -> push "--log-level"; push l) log_level;
  Option.iter (fun fp -> push "--failpoints"; push fp) failpoints;
  Array.of_list (List.rev !argv)

let fleet_config ~queue_depth ~soft_depth ~response_deadline_s =
  {
    Fleet.Router.default_config with
    Fleet.Router.queue_depth;
    soft_depth = (match soft_depth with Some d -> d | None -> queue_depth / 2);
    response_deadline_s;
  }

(* [chaos] is the parsed [(spec, seed)] of [--chaos]/[--chaos-seed];
   its torn-save probability rides into each worker as a failpoint with
   a per-worker derived seed.  A worker binary that cannot launch is a
   startup error with a clear reason and a non-zero exit, not a restart
   loop. *)
let make_router ?(tracing = false) ~n ~queue_depth ~soft_depth
    ~response_deadline_s ~cache_dir ~deadline_ms ~verify ~log_level
    ~worker_exe ~chaos () =
  if n <= 0 then Error (`Msg "need at least one worker")
  else begin
    let cmds =
      Array.init n (fun i ->
          let failpoints =
            Option.bind chaos (fun (spec, seed) ->
                Fleet.Chaos.torn_failpoint spec ~seed ~worker:i)
          in
          worker_argv ?exe:worker_exe ?failpoints ~cache_dir ~deadline_ms
            ~verify ~log_level ())
    in
    match
      Fleet.Router.create ~tracing
        ~cfg:(fleet_config ~queue_depth ~soft_depth ~response_deadline_s)
        cmds
    with
    | router -> Ok router
    | exception Fleet.Worker.Spawn_failed { cmd; reason } ->
        Error
          (`Msg
            (Printf.sprintf "fleet: worker binary %S failed to spawn: %s" cmd
               reason))
  end

let parse_chaos ~chaos_spec ~chaos_seed =
  match chaos_spec with
  | None -> Ok None
  | Some "default" -> Ok (Some (Fleet.Chaos.default_spec, chaos_seed))
  | Some s -> (
      match Fleet.Chaos.parse_spec s with
      | Ok spec -> Ok (Some (spec, chaos_seed))
      | Error e -> Error (`Msg e))

let prewarm_router router mix_name arch =
  match mix_name with
  | None -> Ok ()
  | Some name -> (
      match Fleet.Traffic.by_name ~arch name with
      | None -> Error (`Msg (Printf.sprintf "unknown traffic mix %S" name))
      | Some mix ->
          let reqs = Fleet.Traffic.unique_requests mix in
          let warmed = Fleet.Router.prewarm router reqs in
          Printf.eprintf "fleet: prewarmed %d/%d plans from mix %s\n%!" warmed
            (List.length reqs) name;
          Ok ())

(* Dump the flight recorder after the bridge/run finished (the
   router's shutdown already did the final span drain, so late error
   spans are in).  The sampler state survives shutdown — it is all
   router-side memory. *)
let write_flight_dump router path =
  match Fleet.Router.flight_json router with
  | None -> ()
  | Some flight ->
      write_json_file path flight;
      Printf.eprintf "fleet: wrote flight recorder dump to %s\n%!" path

let fleet_cmd n cache_dir deadline_ms verify log_level queue_depth soft_depth
    prewarm_mix arch health_interval_s response_deadline_s chaos_spec
    chaos_seed worker_exe trace flight_dir =
  let tracing = trace || flight_dir <> None in
  match
    Result.bind (configure_log_level log_level) (fun () ->
        parse_chaos ~chaos_spec ~chaos_seed)
  with
  | Error e -> Error e
  | Ok chaos -> (
      match
        make_router ~tracing ~n ~queue_depth ~soft_depth
          ~response_deadline_s ~cache_dir ~deadline_ms ~verify ~log_level
          ~worker_exe ~chaos ()
      with
      | Error e -> Error e
      | Ok router -> (
          match prewarm_router router prewarm_mix arch with
          | Error e ->
              Fleet.Router.shutdown router;
              Error e
          | Ok () ->
              let chaos =
                Option.map
                  (fun (spec, seed) ->
                    Fleet.Chaos.create ~spec ~seed ~workers:n ())
                  chaos
              in
              Fleet.Bridge.run ~health_interval_s ?chaos ~input:Unix.stdin
                ~output:stdout router;
              Fleet.Router.shutdown router;
              Option.iter
                (fun dir ->
                  (try Unix.mkdir dir 0o755
                   with Unix.Unix_error _ -> ());
                  write_flight_dump router (Filename.concat dir "flight.json"))
                flight_dir;
              Ok ()))

let loadgen_report_errors report =
  let open Fleet.Loadgen in
  if report.unanswered > 0 then
    Error
      (`Msg
        (Printf.sprintf "%d request(s) never answered" report.unanswered))
  else Ok ()

let loadgen_cmd rps duration_s n mix_name arch seed batch_jitter prewarm
    queue_depth soft_depth cache_dir deadline_ms verify log_level json
    prom_out response_deadline_s chaos_spec chaos_seed worker_exe retries
    retry_backoff_ms drain_timeout_s trace trace_out =
  let tracing = trace || trace_out <> None in
  match
    Result.bind (configure_log_level log_level) (fun () ->
        parse_chaos ~chaos_spec ~chaos_seed)
  with
  | Error e -> Error e
  | Ok chaos -> (
      match Fleet.Traffic.by_name ~arch mix_name with
      | None -> Error (`Msg (Printf.sprintf "unknown traffic mix %S" mix_name))
      | Some mix -> (
          match
            make_router ~tracing ~n ~queue_depth ~soft_depth
              ~response_deadline_s ~cache_dir ~deadline_ms ~verify
              ~log_level ~worker_exe ~chaos ()
          with
          | Error e -> Error e
          | Ok router ->
              let chaos =
                Option.map
                  (fun (spec, seed) ->
                    Fleet.Chaos.create ~spec ~seed ~workers:n ())
                  chaos
              in
              let report =
                Fleet.Loadgen.run ~seed ~batch_jitter ~prewarm
                  ~drain_timeout_s ?chaos ~retries ~retry_backoff_ms ~mix
                  ~rps ~duration_s router
              in
              Option.iter
                (fun path ->
                  let oc = open_out path in
                  output_string oc
                    (Fleet.Loadgen.report_prometheus router report);
                  close_out oc)
                prom_out;
              Fleet.Router.shutdown router;
              Option.iter (write_flight_dump router) trace_out;
              if json then
                print_endline
                  (Util.Json.to_string (Fleet.Loadgen.report_json report))
              else print_endline (Fleet.Loadgen.report_text report);
              loadgen_report_errors report))

(* The SLO report verb: pretty-print a burn-rate report produced
   elsewhere — a loadgen [--json] report, a fleet [cmd:slo] or
   [cmd:stats] answer (their ["slo"] member is found automatically), or
   a bare report object — from a file or stdin. *)
let slo_cmd file json =
  match
    (try
       Ok
         (match file with
         | None | Some "-" -> In_channel.input_all stdin
         | Some path -> In_channel.with_open_text path In_channel.input_all)
     with Sys_error e -> Error (`Msg e))
  with
  | Error e -> Error e
  | Ok content -> (
      match Util.Json.parse (String.trim content) with
      | Error reason -> Error (`Msg (Printf.sprintf "slo: %s" reason))
      | Ok parsed -> (
          let report =
            match Util.Json.member "slo" parsed with
            | Some s -> s
            | None -> parsed
          in
          if json then begin
            print_endline (Util.Json.to_string report);
            Ok ()
          end
          else
            match Obs.Slo.text_of_json report with
            | Ok text ->
                print_string text;
                Ok ()
            | Error reason -> Error (`Msg (Printf.sprintf "slo: %s" reason))))

(* ---------------- tracing & metrics commands ---------------- *)

let trace_requests requests_file workload softmax relu batch tuner arch =
  match (requests_file, workload) with
  | Some path, None -> load_requests path
  | None, Some w ->
      Ok
        [
          Service.Request.make ~softmax ~relu ?batch ~tuner ~workload:w
            ~arch ();
        ]
  | Some _, Some _ ->
      Error (`Msg "give either a requests file or --workload, not both")
  | None, None ->
      Error (`Msg "nothing to trace: give a requests file or --workload")

let trace_cmd requests_file workload arch softmax relu batch tuner verify
    log_level output =
  match
    Result.bind (configure_log_level log_level) (fun () ->
        trace_requests requests_file workload softmax relu batch tuner arch)
  with
  | Error e -> Error e
  | Ok requests ->
      let metrics = Service.Metrics.create () in
      let results = Service.Batch.run ~metrics ~verify requests in
      let table =
        Util.Table.create
          ~columns:[ "request"; "trace"; "spans"; "status"; "compile ms" ]
      in
      let traces = ref [] and failures = ref 0 in
      List.iter
        (fun (req, result) ->
          match result with
          | Ok (r : Service.Batch.response) ->
              let spans, tid =
                match r.trace with
                | Some t ->
                    traces := t :: !traces;
                    ( string_of_int (List.length (Obs.Trace.spans t)),
                      Obs.Trace.id t )
                | None -> ("-", "-")
              in
              Util.Table.add_row table
                [
                  Service.Request.describe req; tid; spans;
                  (match r.source with
                  | Service.Batch.Cache -> "cached"
                  | Service.Batch.Compiled -> "compiled");
                  Printf.sprintf "%.1f" (r.seconds *. 1e3);
                ]
          | Error e ->
              incr failures;
              Util.Table.add_row table
                [
                  Service.Request.describe req; "-"; "-"; "FAILED";
                  Service.Error.to_string e;
                ])
        results;
      Util.Table.print table;
      let traces = List.rev !traces in
      write_json_file output (Obs.Export.chrome_json traces);
      Printf.printf
        "\nwrote %d trace(s) to %s (load in chrome://tracing or Perfetto)\n"
        (List.length traces) output;
      if !failures = 0 then Ok ()
      else Error (`Msg (Printf.sprintf "%d request(s) failed" !failures))

let metrics_cmd requests_path jobs verify prom log_level =
  match
    Result.bind (configure_log_level log_level) (fun () ->
        load_requests requests_path)
  with
  | Error e -> Error e
  | Ok requests ->
      let metrics = Service.Metrics.create () in
      let results = Service.Batch.run ~jobs ~metrics ~verify requests in
      if prom then print_string (Service.Metrics.to_prometheus metrics)
      else print_endline (Util.Json.to_string (Service.Metrics.to_json metrics));
      let failures =
        List.filter (fun (_, r) -> Result.is_error r) results
      in
      if failures = [] then Ok ()
      else
        Error
          (`Msg (Printf.sprintf "%d request(s) failed" (List.length failures)))

let list_cmd () =
  print_endline "batch-GEMM chains (Table IV):";
  List.iter
    (fun (c : Workloads.Gemm_configs.t) ->
      Printf.printf "  %-4s batch=%-3d M=%-5d N=%-3d K=%-3d L=%-5d (%s)\n"
        c.name c.batch c.m c.n c.k c.l c.network)
    Workloads.Gemm_configs.all;
  print_endline "convolution chains (Table V):";
  List.iter
    (fun (c : Workloads.Conv_configs.t) ->
      Printf.printf
        "  %-4s IC=%-4d H=%-4d W=%-4d OC1=%-4d OC2=%-4d st=%d/%d k=%d/%d\n"
        c.name c.ic c.h c.w c.oc1 c.oc2 c.st1 c.st2 c.k1 c.k2)
    Workloads.Conv_configs.all;
  print_endline "machines: cpu (Xeon Gold 6240), gpu (A100), npu (Ascend 910)";
  Ok ()

(* ---------------- wiring ---------------- *)

let optimize_t =
  Cmd.v
    (Cmd.info "optimize" ~doc:"Optimize a chain and report the plan")
    Term.(
      term_result
        (const optimize_cmd $ workload_arg $ arch_arg $ softmax_arg $ relu_arg
       $ batch_arg $ source_arg $ no_fusion_arg))

let run_t =
  Cmd.v
    (Cmd.info "run"
       ~doc:"Compile, execute numerically and check against the reference")
    Term.(
      term_result
        (const run_cmd $ workload_arg $ arch_arg $ softmax_arg $ relu_arg
       $ batch_arg $ parallel_arg))

let compare_t =
  Cmd.v
    (Cmd.info "compare" ~doc:"Compare Chimera against the baseline systems")
    Term.(
      term_result
        (const compare_cmd $ workload_arg $ arch_arg $ softmax_arg $ relu_arg
       $ batch_arg))

let advise_t =
  Cmd.v
    (Cmd.info "advise"
       ~doc:"Assess whether fusing a chain pays on a machine")
    Term.(
      term_result
        (const advise_cmd $ workload_arg $ arch_arg $ softmax_arg $ relu_arg
       $ batch_arg))

let breakdown_t =
  Cmd.v
    (Cmd.info "breakdown"
       ~doc:"Table I: %MI / %CI / %BMM time breakdown per network")
    Term.(term_result (const breakdown_cmd $ arch_arg))

let graph_t =
  Cmd.v
    (Cmd.info "graph"
       ~doc:"Partition a transformer-block compute DAG and estimate it")
    Term.(term_result (const graph_cmd $ arch_arg))

let requests_arg =
  let doc =
    "Requests to compile: a JSONL file (one request object per line, see \
     docs/SERVICE.md) or the literal $(b,all) for every batch-GEMM chain \
     on every machine (G1..G12 x cpu/gpu/npu)."
  in
  Arg.(required & opt (some string) None & info [ "r"; "requests" ] ~doc)

let jobs_arg =
  let doc = "Plan cache misses across N OCaml domains." in
  Arg.(value & opt int 1 & info [ "j"; "jobs" ] ~doc)

let cache_dir_arg =
  let doc =
    "Persist the plan cache under this directory (loaded at startup, \
     written back on change)."
  in
  Arg.(value & opt (some string) None & info [ "cache-dir" ] ~doc)

let deadline_arg =
  let doc =
    "Per-request planning budget in milliseconds; an over-budget solve \
     degrades down the ladder instead of hanging.  Requests carrying their \
     own $(b,deadline_ms) keep it."
  in
  Arg.(value & opt (some float) None & info [ "deadline-ms" ] ~doc)

let failpoints_arg =
  let doc =
    "Activate fault-injection sites for this run, e.g. \
     $(b,plan.solve(G5)=raise;cache.save=io@1) (syntax in docs/SERVICE.md). \
     Overrides the $(b,CHIMERA_FAILPOINTS) environment variable."
  in
  Arg.(value & opt (some string) None & info [ "failpoints" ] ~doc)

let verify_arg =
  let doc =
    "Run the static-analysis verifier on every successful response: \
     $(b,off) (default), $(b,warn) attaches the diagnostics, $(b,strict) \
     additionally rejects responses whose plans carry error-severity \
     diagnostics (guards against corrupt or stale cache entries)."
  in
  Arg.(
    value
    & opt
        (enum
           [
             ("off", Service.Batch.Verify_off);
             ("warn", Service.Batch.Verify_warn);
             ("strict", Service.Batch.Verify_strict);
           ])
        Service.Batch.Verify_off
    & info [ "verify" ] ~doc)

let log_level_arg =
  let doc =
    "Structured-log threshold on stderr: $(b,off), $(b,error), $(b,warn), \
     $(b,info) or $(b,debug).  Overrides the $(b,CHIMERA_LOG) environment \
     variable."
  in
  Arg.(value & opt (some string) None & info [ "log-level" ] ~doc)

let batch_trace_arg =
  let doc =
    "Also write every response's trace as Chrome trace_event JSON to this \
     file (load in chrome://tracing or Perfetto)."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~doc ~docv:"FILE")

let batch_t =
  Cmd.v
    (Cmd.info "batch"
       ~doc:
         "Bulk-compile a request list through the content-addressed plan \
          cache")
    Term.(
      term_result
        (const batch_cmd $ requests_arg $ jobs_arg $ cache_dir_arg
       $ deadline_arg $ failpoints_arg $ verify_arg $ log_level_arg
       $ batch_trace_arg))

let serve_t =
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Serve optimization requests as a stdin/stdout JSONL loop backed \
          by the plan cache")
    Term.(
      term_result
        (const serve_cmd $ cache_dir_arg $ deadline_arg $ failpoints_arg
       $ verify_arg $ log_level_arg))

let workers_arg =
  let doc = "Number of worker processes in the fleet." in
  Arg.(value & opt int 4 & info [ "n"; "workers" ] ~doc)

let queue_depth_arg =
  let doc =
    "Hard admission band: shed a request with the retryable \
     $(b,overloaded) error when its worker already has this many \
     outstanding."
  in
  Arg.(value & opt int 32 & info [ "queue-depth" ] ~doc)

let soft_depth_arg =
  let doc =
    "Soft admission band: from this queue depth, requests without a \
     deadline get a tight one injected, forcing the degradation ladder. \
     Defaults to half the hard band."
  in
  Arg.(value & opt (some int) None & info [ "soft-depth" ] ~doc)

let mix_arg =
  let doc =
    "Traffic mix: a Figure 9 network name (e.g. $(b,Bert-Base)) or \
     $(b,all) for the union of all nine."
  in
  Arg.(value & opt string "all" & info [ "mix" ] ~doc)

let prewarm_mix_arg =
  let doc =
    "Prewarm the fleet's caches from this traffic mix before serving \
     (a network name or $(b,all))."
  in
  Arg.(value & opt (some string) None & info [ "prewarm" ] ~doc ~docv:"MIX")

let health_interval_arg =
  let doc =
    "Seconds between background health sweeps (unresponsive workers are \
     restarted); 0 disables."
  in
  Arg.(value & opt float 5.0 & info [ "health-interval" ] ~doc)

let response_deadline_arg =
  let doc =
    "Answer every request a worker has sat on for this many seconds with \
     the retryable $(b,deadline_exceeded) error and restart the worker \
     (catches hung processes between health sweeps); 0 disables."
  in
  Arg.(value & opt float 60.0 & info [ "response-deadline" ] ~doc ~docv:"S")

let chaos_arg =
  let doc =
    "Inject a deterministic fault schedule into the fleet: \
     $(b,kill:R;hang:R;slow:R;garbage:R;torn:P) with R the mean gap in \
     requests between faults of that kind (0 disables the kind) and P \
     the per-save torn-write probability, or the literal $(b,default). \
     Replays exactly for a given $(b,--chaos-seed) (docs/CHAOS.md)."
  in
  Arg.(value & opt (some string) None & info [ "chaos" ] ~doc ~docv:"SPEC")

let chaos_seed_arg =
  let doc = "Seed for the chaos schedule (independent of $(b,--seed))." in
  Arg.(value & opt int 1 & info [ "chaos-seed" ] ~doc)

let worker_exe_arg =
  let doc =
    "Worker binary to spawn instead of this executable (it must speak \
     the serve JSONL protocol).  A binary that fails to launch is a \
     startup error, not a restart loop."
  in
  Arg.(value & opt (some string) None & info [ "worker-exe" ] ~doc ~docv:"PATH")

let fleet_trace_arg =
  let doc =
    "Turn on distributed tracing: one connected trace per request \
     spanning client, router and worker spans, judged by the \
     tail-sampling flight recorder (dump it with the $(b,flight) \
     command or $(b,--flight-dir)/$(b,--trace-out))."
  in
  Arg.(value & flag & info [ "trace" ] ~doc)

let flight_dir_arg =
  let doc =
    "Write the flight recorder's dump (retained Chrome traces + \
     sampler counters) to $(i,DIR)/flight.json on shutdown; implies \
     $(b,--trace)."
  in
  Arg.(value & opt (some string) None & info [ "flight-dir" ] ~doc ~docv:"DIR")

let fleet_t =
  Cmd.v
    (Cmd.info "fleet"
       ~doc:
         "Serve the JSONL protocol through a sharded fleet: N serve \
          workers behind a consistent-hash router with admission control \
          and a shared cache tier")
    Term.(
      term_result
        (const fleet_cmd $ workers_arg $ cache_dir_arg $ deadline_arg
       $ verify_arg $ log_level_arg $ queue_depth_arg $ soft_depth_arg
       $ prewarm_mix_arg $ arch_arg $ health_interval_arg
       $ response_deadline_arg $ chaos_arg $ chaos_seed_arg
       $ worker_exe_arg $ fleet_trace_arg $ flight_dir_arg))

let rps_arg =
  let doc = "Offered load in requests per second (Poisson arrivals)." in
  Arg.(value & opt float 50.0 & info [ "rps" ] ~doc)

let duration_arg =
  let doc = "Run length in seconds." in
  Arg.(value & opt float 10.0 & info [ "duration" ] ~doc)

let seed_arg =
  let doc = "PRNG seed (arrivals and mix draws are deterministic)." in
  Arg.(value & opt int 42 & info [ "seed" ] ~doc)

let batch_jitter_arg =
  let doc =
    "Add a uniform 0..N-1 to each request's batch so fingerprints stay \
     distinct, defeating both cache tiers (load tests that must keep \
     workers planning cold)."
  in
  Arg.(value & opt int 0 & info [ "batch-jitter" ] ~doc ~docv:"N")

let loadgen_prewarm_arg =
  let doc = "Push the mix's unique requests through the fleet first." in
  Arg.(value & flag & info [ "prewarm" ] ~doc)

let loadgen_json_arg =
  let doc = "Print the report as one JSON object instead of text." in
  Arg.(value & flag & info [ "json" ] ~doc)

let prom_out_arg =
  let doc =
    "Also write the fleet-wide Prometheus exposition (merged + \
     per-worker + router + loadgen series) to this file."
  in
  Arg.(value & opt (some string) None & info [ "prom-out" ] ~doc ~docv:"FILE")

let retries_arg =
  let doc =
    "Resubmit answers whose $(b,retryable) flag is true up to this many \
     times per request, after a jittered exponential backoff."
  in
  Arg.(value & opt int 0 & info [ "retries" ] ~doc)

let retry_backoff_arg =
  let doc =
    "Base client retry backoff in milliseconds (doubles per attempt, \
     jittered by a uniform 0.5..1.5 factor)."
  in
  Arg.(value & opt float 25.0 & info [ "retry-backoff-ms" ] ~doc)

let drain_timeout_arg =
  let doc =
    "Seconds to wait for in-flight requests (and pending retries) after \
     the offered-load window closes."
  in
  Arg.(value & opt float 10.0 & info [ "drain-timeout" ] ~doc ~docv:"S")

let trace_out_arg =
  let doc =
    "Write the run's flight-recorder dump (retained distributed traces \
     + sampler counters) to this file; implies $(b,--trace)."
  in
  Arg.(value & opt (some string) None & info [ "trace-out" ] ~doc ~docv:"FILE")

let loadgen_t =
  Cmd.v
    (Cmd.info "loadgen"
       ~doc:
         "Drive a fleet with open-loop Poisson traffic and report p50/p90/p99 \
          latency plus shed and degrade rates")
    Term.(
      term_result
        (const loadgen_cmd $ rps_arg $ duration_arg $ workers_arg $ mix_arg
       $ arch_arg $ seed_arg $ batch_jitter_arg $ loadgen_prewarm_arg
       $ queue_depth_arg $ soft_depth_arg $ cache_dir_arg $ deadline_arg
       $ verify_arg $ log_level_arg $ loadgen_json_arg $ prom_out_arg
       $ response_deadline_arg $ chaos_arg $ chaos_seed_arg $ worker_exe_arg
       $ retries_arg $ retry_backoff_arg $ drain_timeout_arg
       $ fleet_trace_arg $ trace_out_arg))

let slo_file_arg =
  let doc =
    "Report to render: a loadgen $(b,--json) report, a fleet \
     $(b,cmd:slo)/$(b,cmd:stats) answer, or a bare SLO report object.  \
     $(b,-) (the default) reads stdin."
  in
  Arg.(value & pos 0 (some string) None & info [] ~doc ~docv:"REPORT.json")

let slo_json_arg =
  let doc = "Print the extracted report as JSON instead of the table." in
  Arg.(value & flag & info [ "json" ] ~doc)

let slo_t =
  Cmd.v
    (Cmd.info "slo"
       ~doc:
         "Render an SLO burn-rate report (availability and latency \
          objectives over 5m/1h windows) from a loadgen or fleet answer")
    Term.(term_result (const slo_cmd $ slo_file_arg $ slo_json_arg))

let trace_requests_file_arg =
  let doc =
    "JSONL requests file to trace (one request object per line) or the \
     literal $(b,all); alternatively give $(b,--workload)."
  in
  Arg.(value & pos 0 (some string) None & info [] ~doc ~docv:"REQUESTS")

let trace_workload_arg =
  let doc = "Trace a single workload: G1..G12 or C1..C8." in
  Arg.(value & opt (some string) None & info [ "w"; "workload" ] ~doc)

let tuner_arg =
  let doc = "Plan with the sampling tuner instead of the cost model." in
  Arg.(value & flag & info [ "tuner" ] ~doc)

let trace_output_arg =
  let doc = "Output file for the Chrome trace_event JSON." in
  Arg.(value & opt string "trace.json" & info [ "o"; "output" ] ~doc)

let trace_t =
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Compile requests with tracing on and export Chrome trace_event \
          JSON covering fingerprint, cache, solve, tuner, codegen and \
          verify spans")
    Term.(
      term_result
        (const trace_cmd $ trace_requests_file_arg $ trace_workload_arg
       $ arch_arg $ softmax_arg $ relu_arg $ batch_arg $ tuner_arg
       $ verify_arg $ log_level_arg $ trace_output_arg))

let prom_arg =
  let doc = "Emit Prometheus text exposition format instead of JSON." in
  Arg.(value & flag & info [ "prom" ] ~doc)

let metrics_t =
  Cmd.v
    (Cmd.info "metrics"
       ~doc:
         "Compile a request list and print the service counters and latency \
          histograms (JSON, or Prometheus text with $(b,--prom))")
    Term.(
      term_result
        (const metrics_cmd $ requests_arg $ jobs_arg $ verify_arg $ prom_arg
       $ log_level_arg))

let lint_workload_arg =
  let doc =
    "Workload to lint: G1..G12, C1..C8, or $(b,all) (the default) for every \
     shipped workload."
  in
  Arg.(value & opt string "all" & info [ "w"; "workload" ] ~doc)

let lint_arch_arg =
  let doc =
    "Machine preset to lint against: cpu, gpu, npu, or $(b,all) (the \
     default) for all three."
  in
  Arg.(value & opt string "all" & info [ "a"; "arch" ] ~doc)

let strict_arg =
  let doc = "Exit non-zero when any error-severity diagnostic is found." in
  Arg.(value & flag & info [ "strict" ] ~doc)

let certify_arg =
  let doc =
    "Require optimality certificates: run the certificate checker \
     (CHIM036-043) over every plan and flag analytical plans that carry \
     none (CHIM044).  Adds a $(b,certificate) verdict per workload."
  in
  Arg.(value & flag & info [ "certify" ] ~doc)

let require_full_arg =
  let doc =
    "With $(b,--certify): treat conditional certificates (CHIM043, no \
     whole-box prune witness) and missing certificates (CHIM044) as \
     errors, not warnings."
  in
  Arg.(value & flag & info [ "require-full" ] ~doc)

let json_arg =
  let doc = "Emit one JSON object per workload/machine pair (JSONL)." in
  Arg.(value & flag & info [ "json" ] ~doc)

let lint_t =
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Run the IR / plan / differential-model / codegen static-analysis \
          passes over compiled workloads")
    Term.(
      term_result
        (const lint_cmd $ lint_workload_arg $ lint_arch_arg $ strict_arg
       $ certify_arg $ require_full_arg $ json_arg))

let list_t =
  Cmd.v
    (Cmd.info "list" ~doc:"List the available workloads and machines")
    Term.(term_result (const list_cmd $ const ()))

let () =
  let info =
    Cmd.info "chimera" ~version:"1.0.0"
      ~doc:
        "Analytical optimizing framework for compute-intensive operator \
         fusion (HPCA 2023 reproduction)"
  in
  exit (Cmd.eval (Cmd.group info
       [ optimize_t; run_t; compare_t; advise_t; breakdown_t; graph_t;
         fleet_t; loadgen_t; slo_t;
         lint_t; batch_t; serve_t; trace_t; metrics_t; list_t ]))
