(* The repository benchmark.

     python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

   builds the program and this benchmark, then runs one workload
   (cold-certify, warm-hit or fleet-persist) for about S seconds on
   inputs generated from seed N, checking every answer.  The last line
   of standard output is one JSON object: with --trace 0 it carries the
   end-to-end metrics of an untraced run, with --trace 1 the per-layer
   metrics of a run whose second half is traced (its client-side spans
   are written as a Chrome trace under .perfbench_out/).  The line
   before it records the environment.  Tests of the benchmark itself:
   dune build @perfbench/check *)

module J = Util.Json

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let exe = ref "_build/default/bin/chimera_cli.exe" in
  let work_dir = ref ".perfbench_tmp" and out_dir = ref ".perfbench_out" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "cold-certify | warm-hit | fleet-persist");
      ("--seed", Arg.Set_int seed, "input seed");
      ("--seconds", Arg.Set_float seconds, "measured seconds");
      ("--trace", Arg.Set_int trace, "1: traced run, per-layer metrics");
      ("--worker-exe", Arg.Set_string exe, "the chimera binary");
      ("--work-dir", Arg.Set_string work_dir, "scratch directory");
      ("--out-dir", Arg.Set_string out_dir, "where traced runs write their Chrome trace");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload W --seed N --seconds S --trace 0|1";
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let exe = if Filename.is_relative !exe then Filename.concat (Sys.getcwd ()) !exe else !exe in
  if not (Sys.file_exists exe) then begin
    prerr_endline ("perfbench: no worker binary at " ^ exe);
    exit 2
  end;
  let tmp = Filename.concat !work_dir (Printf.sprintf "run-%d" (Unix.getpid ())) in
  Perfbench.Files.mkdir_p tmp;
  let env =
    { Perfbench.Closed.exe; seed = !seed; seconds = !seconds; traced = !trace = 1; tmp }
  in
  let run =
    match !workload with
    | "cold-certify" -> Perfbench.Closed.cold_certify
    | "warm-hit" -> Perfbench.Closed.warm_hit
    | "fleet-persist" -> Perfbench.Fleet_persist.run ~work_dir:!work_dir
    | w ->
        prerr_endline ("perfbench: unknown workload " ^ w);
        exit 2
  in
  let r = Fun.protect ~finally:(fun () -> Perfbench.Files.rm_rf tmp) (fun () -> run env) in
  List.iter
    (fun m ->
      if not (Float.is_finite m.Perfbench.Report.value) then begin
        prerr_endline ("perfbench: metric " ^ m.Perfbench.Report.name ^ " was not measured");
        exit 3
      end)
    r.Perfbench.Report.metrics;
  let trace_file =
    if r.Perfbench.Report.traces = [] then []
    else begin
      Perfbench.Files.mkdir_p !out_dir;
      let f = Filename.concat !out_dir (Printf.sprintf "%s-seed%d.trace.json" !workload !seed) in
      let oc = open_out f in
      output_string oc (J.to_string (Obs.Export.chrome_json r.Perfbench.Report.traces));
      close_out oc;
      [ ("trace_file", J.String f) ]
    end
  in
  let meta =
    [
      ("workload", J.String !workload);
      ("seed", J.Int !seed);
      ("seconds", J.Float !seconds);
      ("trace", J.Int !trace);
      ("source_digest", J.String (Perfbench.Files.source_digest ()));
      ("nproc", J.Int (Domain.recommended_domain_count ()));
      ("ocaml", J.String Sys.ocaml_version);
      ("cache_capacity", J.Int (Service.Plan_cache.capacity (Service.Plan_cache.create ())));
    ]
    @ r.Perfbench.Report.meta @ trace_file
  in
  print_endline (J.to_string (J.Obj [ ("meta", J.Obj meta) ]));
  print_endline (J.to_string (Perfbench.Report.result_json r))
