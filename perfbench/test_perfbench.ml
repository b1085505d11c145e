(* Tests of the benchmark: its statistics, its open-loop timing,
   and a seconds-long run of every workload checked against the
   metric names and units BENCHMARK.json declares.

     dune build @perfbench/check *)

open Perfbench
module J = Util.Json

let close ?(eps = 1e-9) a b = Float.abs (a -. b) <= eps

let test_tail_percentile () =
  List.iter
    (fun n ->
      match Pstats.tail_percentile n with
      | None -> Alcotest.failf "no tail percentile for %d samples" n
      | Some (p, beyond) ->
          Alcotest.(check int) (Printf.sprintf "samples beyond p%g of %d" p n) 10 beyond;
          Alcotest.(check bool) "highest such percentile" true
            (n - Pstats.rank ~n (p +. (100. /. float_of_int n)) < 10))
    [ 11; 62; 240; 1000; 2000; 12345 ];
  List.iter
    (fun n -> Alcotest.(check bool) "too few samples" true (Pstats.tail_percentile n = None))
    [ 0; 1; 10 ]

let test_tail_segments () =
  let samples = Array.init 2000 (fun i -> float_of_int (i mod 1000 + 1)) in
  let t = Pstats.tail ~segment:1000 samples in
  Alcotest.(check int) "segments" 2 t.Pstats.segments;
  Alcotest.(check int) "beyond" 10 t.Pstats.beyond;
  Alcotest.(check bool) "p99" true (close t.Pstats.percentile 99.);
  Alcotest.(check bool) "eleventh largest" true (close t.Pstats.value 990.);
  (* One segment's stall does not decide the figure. *)
  let stalled = Array.init 500 (fun i -> if i < 20 then 100. else 1.) in
  Alcotest.(check bool) "median over segments" true
    (close (Pstats.tail ~segment:100 stalled).Pstats.value 1.);
  let short = [| 3.; 1.; 2. |] in
  let t = Pstats.tail ~segment:100 short in
  Alcotest.(check bool) "short sample: its maximum" true
    (close t.Pstats.value 3. && close t.Pstats.percentile 100.)

(* A generator that stalls 350 ms while sending request 1: the requests
   due during the stall are late, and their latency counts from when
   they were due.  Service is instant, so latency timed from the send
   would read zero for all of them. *)
let test_due_time () =
  let clock = ref 0. in
  let dues = [| 0.; 0.1; 0.2; 0.3; 0.4; 0.5 |] in
  let sent =
    Openloop.drive
      ~now:(fun () -> !clock)
      ~idle:(fun d -> clock := !clock +. d)
      ~send:(fun i -> if i = 1 then clock := !clock +. 0.35)
      dues
  in
  let answered = Array.copy sent in
  let from_due = Array.mapi (fun i a -> a -. dues.(i)) answered in
  let from_send = Array.mapi (fun i a -> a -. sent.(i)) answered in
  Array.iteri
    (fun i expected ->
      Alcotest.(check bool) (Printf.sprintf "latency of %d from due" i) true
        (close ~eps:1e-6 from_due.(i) expected))
    [| 0.; 0.; 0.25; 0.15; 0.05; 0. |];
  Alcotest.(check bool) "send-time latency hides the stall" true
    (Array.for_all (fun x -> x = 0.) from_send);
  let late = Array.mapi (fun i s -> s -. dues.(i)) sent in
  Alcotest.(check bool) "generator lateness" true
    (close ~eps:1e-6 (Array.fold_left Float.max 0. late) 0.25)

let test_poisson () =
  let draw seed = Openloop.poisson ~prng:(Util.Prng.create ~seed) ~rate:50. ~duration:2. in
  let a = draw 7 in
  Alcotest.(check int) "count" 100 (Array.length a);
  Alcotest.(check bool) "seeded" true (a = draw 7 && a <> draw 8);
  Alcotest.(check bool) "sorted inside the window" true
    (Array.for_all (fun x -> x >= 0. && x < 2.) a
    && Array.for_all2 ( <= ) (Array.sub a 0 99) (Array.sub a 1 99))

(* The (name, unit) pairs BENCHMARK.json declares under [key]. *)
let declared key =
  let json =
    match J.parse (In_channel.with_open_bin "../BENCHMARK.json" In_channel.input_all) with
    | Ok j -> j
    | Error e -> Alcotest.failf "BENCHMARK.json: %s" e
  in
  match J.member key json with
  | Some (J.List ms) ->
      List.map
        (fun m ->
          let s k = Option.get (Option.bind (J.member k m) J.to_string_opt) in
          (s "name", s "unit"))
        ms
  | _ -> Alcotest.failf "BENCHMARK.json has no %s" key

let run_bench ~workload ~trace =
  let args =
    [| "./main.exe"; "--workload"; workload; "--seed"; "3"; "--seconds"; "2"; "--trace";
       string_of_int trace; "--worker-exe"; "../bin/chimera_cli.exe"; "--work-dir";
       "check-tmp"; "--out-dir"; "check-tmp" |]
  in
  let ic = Unix.open_process_args_in args.(0) args in
  let lines = In_channel.input_all ic |> String.split_on_char '\n' |> List.filter (( <> ) "") in
  (match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> ()
  | _ -> Alcotest.failf "%s (trace %d) did not exit cleanly" workload trace);
  match J.parse (List.nth lines (List.length lines - 1)) with
  | Ok j -> j
  | Error e -> Alcotest.failf "%s: last line is not JSON: %s" workload e

let test_smoke workload () =
  List.iter
    (fun (trace, key) ->
      let r = run_bench ~workload ~trace in
      Alcotest.(check bool) "correct" true (J.member "correct" r = Some (J.Bool true));
      Alcotest.(check bool) "nothing failed" true (J.member "failed" r = Some (J.Int 0));
      let emitted =
        match J.member "metrics" r with
        | Some (J.Obj ms) ->
            List.map
              (fun (name, m) ->
                (match Option.bind (J.member "value" m) J.to_float_opt with
                | Some v when Float.is_finite v -> ()
                | _ -> Alcotest.failf "%s: %s has no value" workload name);
                (name, Option.get (Option.bind (J.member "unit" m) J.to_string_opt)))
              ms
        | _ -> Alcotest.failf "%s: no metrics" workload
      in
      Alcotest.(check (list (pair string string)))
        (Printf.sprintf "%s metrics of %s" key workload)
        (List.sort compare (declared key)) (List.sort compare emitted))
    [ (0, "end_to_end"); (1, "per_layer") ]

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  Alcotest.run "perfbench"
    [
      ( "stats",
        [
          Alcotest.test_case "tail percentile" `Quick test_tail_percentile;
          Alcotest.test_case "tail segments" `Quick test_tail_segments;
        ] );
      ( "open loop",
        [
          Alcotest.test_case "due-time latency under a stall" `Quick test_due_time;
          Alcotest.test_case "seeded arrivals" `Quick test_poisson;
        ] );
      ( "smoke",
        List.map
          (fun w -> Alcotest.test_case w `Slow (test_smoke w))
          [ "cold-certify"; "warm-hit"; "fleet-persist" ] );
    ]
