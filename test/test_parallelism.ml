open Helpers

let qcheck = QCheck_alcotest.to_alcotest

(* The per-task LPT schedule [Parallelism.efficiency] must reproduce bit
   for bit: one weight per task in enumeration order, sorted heaviest
   first, each placed by a linear scan for the least-loaded core. *)
module Reference = struct
  let spans chain tiling axis =
    let extent = Ir.Chain.extent_of chain axis in
    let tile = Analytical.Tiling.get tiling axis in
    let full = extent / tile and rem = extent mod tile in
    let spans = List.init full (fun _ -> float_of_int tile) in
    if rem = 0 then spans else spans @ [ float_of_int rem ]

  let task_weights chain tiling =
    List.fold_left
      (fun acc axis ->
        List.concat_map
          (fun w -> List.map (fun s -> w *. s) (spans chain tiling axis))
          acc)
      [ 1.0 ] (Analytical.Parallelism.parallel_axes chain)

  let lpt_makespan weights ~cores =
    let loads = Array.make cores 0.0 in
    List.iter
      (fun w ->
        let victim = ref 0 in
        for c = 1 to cores - 1 do
          if loads.(c) < loads.(!victim) then victim := c
        done;
        loads.(!victim) <- loads.(!victim) +. w)
      (List.sort (fun a b -> compare b a) weights);
    Array.fold_left Float.max 0.0 loads

  let efficiency chain tiling ~cores =
    if cores <= 1 then 1.0
    else begin
      let tasks = Analytical.Parallelism.task_count chain tiling in
      if tasks > 20_000.0 then Float.min 1.0 (tasks /. float_of_int cores)
      else begin
        let weights = task_weights chain tiling in
        let total = List.fold_left ( +. ) 0.0 weights in
        let ideal = total /. float_of_int cores in
        let makespan = lpt_makespan weights ~cores in
        if makespan <= 0.0 then 1.0 else ideal /. makespan
      end
    end
end

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* A chain of one of three shapes and a tiling with ragged edges on its
   parallel axes, all derived from [seed]:
   - 0: a GEMM chain (parallel b, m);
   - 1: a convolution chain (parallel n, oh, ow);
   - 2: a single GEMM with b, m, n up to 2^20 each, where task weights
     reach 2^60 and grouped totals could round. *)
let random_case kind seed =
  let prng = Util.Prng.create ~seed in
  let between lo hi = lo + Util.Prng.int prng ~bound:(hi - lo + 1) in
  let chain =
    match kind with
    | 0 ->
        Ir.Chain.batch_gemm_chain ~name:"q-gemm" ~batch:(between 1 64)
          ~m:(between 1 4096) ~n:(between 1 256) ~k:(between 1 256)
          ~l:(between 1 1024) ()
    | 1 ->
        Ir.Chain.conv_chain ~name:"q-conv" ~batch:(between 1 16)
          ~ic:(between 1 64) ~h:(between 3 256) ~w:(between 3 256)
          ~oc1:(between 1 64) ~oc2:(between 1 64) ~st1:(between 1 2)
          ~st2:(between 1 2) ~k1:(Util.Prng.pick prng [| 1; 3 |])
          ~k2:(Util.Prng.pick prng [| 1; 3 |]) ()
    | _ ->
        let big () = between 1 (1 lsl 20) in
        Ir.Chain.single_batch_gemm ~name:"q-wide" ~batch:(big ()) ~m:(big ())
          ~n:(big ()) ~k:(between 1 64) ()
  in
  (* Aim each parallel axis at 1..24 trips, then nudge the tile so the
     last block is usually ragged. *)
  let tiling =
    Analytical.Tiling.make chain
      (List.map
         (fun axis ->
           let extent = Ir.Chain.extent_of chain axis in
           let trips = between 1 24 in
           (axis, ((extent + trips - 1) / trips) + between (-1) 1))
         (Analytical.Parallelism.parallel_axes chain))
  in
  (chain, tiling)

let oracle_tests =
  [
    qcheck
      (QCheck.Test.make ~count:1000
         ~name:"grouped LPT efficiency is bit-identical to the per-task scan"
         (QCheck.make
            ~print:QCheck.Print.(triple int int int)
            QCheck.Gen.(
              triple (int_range 0 2) (int_range 0 1_000_000) (int_range 1 256)))
         (fun (kind, seed, cores) ->
           let chain, tiling = random_case kind seed in
           same_bits
             (Reference.efficiency chain tiling ~cores)
             (Analytical.Parallelism.efficiency chain tiling ~cores)));
    case "wide extents past 2^53 total work match the per-task scan" (fun () ->
        (* 2^20 x 2^20 x 2^20 elements in 8 x 8 x 8 ragged tiles: total
           work 2^60, so the grouped sum is not trusted. *)
        let e = 1 lsl 20 in
        let chain =
          Ir.Chain.single_batch_gemm ~name:"wide" ~batch:e ~m:e ~n:e ~k:4 ()
        in
        let tiling =
          Analytical.Tiling.make chain
            [ ("b", (e / 7) + 1); ("m", (e / 6) + 3); ("n", (e / 8) - 1) ]
        in
        List.iter
          (fun cores ->
            check_true
              (Printf.sprintf "%d cores" cores)
              (same_bits
                 (Reference.efficiency chain tiling ~cores)
                 (Analytical.Parallelism.efficiency chain tiling ~cores)))
          [ 2; 3; 7; 64; 108; 256 ]);
    case "every served plan's efficiency matches the per-task scan" (fun () ->
        List.iter
          (fun (label, (k : Codegen.Kernel.t)) ->
            let cores = k.machine.Arch.Machine.cores in
            check_true label
              (same_bits
                 (Reference.efficiency k.chain k.tiling ~cores)
                 (Analytical.Parallelism.efficiency k.chain k.tiling ~cores)))
          (Lazy.force Workload_matrix.served_kernels));
    case "efficiency on the served C5@gpu tiling allocates little" (fun () ->
        (* 3249 tasks on 108 cores: the per-task scan allocated ~168k
           minor words here. *)
        let k =
          List.assoc "C5@gpu" (Lazy.force Workload_matrix.served_kernels)
        in
        let cores = k.Codegen.Kernel.machine.Arch.Machine.cores in
        let before = Gc.minor_words () in
        ignore
          (Sys.opaque_identity
             (Analytical.Parallelism.efficiency k.chain k.tiling ~cores));
        let words = Gc.minor_words () -. before in
        check_true
          (Printf.sprintf "%.0f minor words < 5000" words)
          (words < 5000.0));
  ]

let tests =
  [
    case "GEMM chain: only b and m are safely parallel" (fun () ->
        let chain = figure2_chain () in
        Alcotest.(check (list string))
          "axes" [ "b"; "m" ]
          (Analytical.Parallelism.parallel_axes chain));
    case "conv chain: batch and output spatial dims" (fun () ->
        let chain = small_conv_chain () in
        Alcotest.(check (list string))
          "axes" [ "n"; "oh"; "ow" ]
          (Analytical.Parallelism.parallel_axes chain));
    case "single operator: every spatial loop" (fun () ->
        let chain =
          Ir.Chain.single_batch_gemm ~name:"s" ~batch:2 ~m:8 ~n:8 ~k:8 ()
        in
        Alcotest.(check (list string))
          "axes" [ "b"; "m"; "n" ]
          (Analytical.Parallelism.parallel_axes chain));
    case "three-GEMM chain: still b and m" (fun () ->
        let chain =
          Ir.Chain.batch_gemm_chain3 ~name:"c3" ~batch:2 ~m:8 ~k:4 ~l:4 ~n:4
            ~p:4 ()
        in
        Alcotest.(check (list string))
          "axes" [ "b"; "m" ]
          (Analytical.Parallelism.parallel_axes chain));
    case "task count multiplies parallel trips only" (fun () ->
        let chain = figure2_chain () in
        let tiling =
          Analytical.Tiling.make chain
            [ ("m", 128); ("n", 8); ("k", 8); ("l", 8) ]
        in
        (* b: 1 trip; m: 4 trips; n/k/l do not count. *)
        check_float "tasks" 4.0 (Analytical.Parallelism.task_count chain tiling));
    case "task weights reflect ragged edges" (fun () ->
        let chain = figure2_chain () in
        let tiling = Analytical.Tiling.make chain [ ("m", 200) ] in
        (* 512 = 200 + 200 + 112. *)
        Alcotest.(check (list (pair (float 0.0) int)))
          "groups" [ (200.0, 2); (112.0, 1) ]
          (Analytical.Parallelism.task_groups chain tiling));
    case "efficiency: uniform tasks dividing cores are perfect" (fun () ->
        let chain = figure2_chain () in
        let tiling = Analytical.Tiling.make chain [ ("m", 128) ] in
        (* 4 uniform tasks on 4, 2, 1 cores. *)
        check_float ~eps:1e-9 "4 cores" 1.0
          (Analytical.Parallelism.efficiency chain tiling ~cores:4);
        check_float ~eps:1e-9 "2 cores" 1.0
          (Analytical.Parallelism.efficiency chain tiling ~cores:2);
        check_float ~eps:1e-9 "1 core" 1.0
          (Analytical.Parallelism.efficiency chain tiling ~cores:1));
    case "efficiency: 24 uniform tasks on 18 cores is 2/3" (fun () ->
        let chain =
          Ir.Chain.batch_gemm_chain ~name:"g" ~batch:24 ~m:8 ~n:8 ~k:8 ~l:8 ()
        in
        let tiling = Analytical.Tiling.make chain [ ("m", 8) ] in
        check_float ~eps:1e-9 "2/3" (24.0 /. 36.0)
          (Analytical.Parallelism.efficiency chain tiling ~cores:18));
    case "efficiency never exceeds 1" (fun () ->
        let chain = figure2_chain () in
        List.iter
          (fun tm ->
            let tiling = Analytical.Tiling.make chain [ ("m", tm) ] in
            let e = Analytical.Parallelism.efficiency chain tiling ~cores:18 in
            check_true "bounded" (e > 0.0 && e <= 1.0))
          [ 1; 3; 7; 64; 512 ]);
    case "huge task counts short-circuit to full occupancy" (fun () ->
        let chain =
          Ir.Chain.batch_gemm_chain ~name:"big" ~batch:64 ~m:4096 ~n:8 ~k:8
            ~l:8 ()
        in
        let tiling = Analytical.Tiling.make chain [ ("m", 4) ] in
        check_float "saturated" 1.0
          (Analytical.Parallelism.efficiency chain tiling ~cores:108));
  ]

let avx2_tests =
  [
    case "16 registers select (6, 2, 2)" (fun () ->
        let p = Microkernel.Cpu.params_avx2 in
        check_int "MI" 6 p.Microkernel.Cpu.mi;
        check_int "NI" 2 p.Microkernel.Cpu.ni;
        check_int "MII" 2 p.Microkernel.Cpu.mii);
    case "registering AVX2 swaps the substituted kernel" (fun () ->
        let r = Microkernel.Registry.default () in
        Microkernel.Registry.register r ~name:"matmul" Microkernel.Cpu.avx2_impl;
        let machine = Arch.Presets.xeon_gold_6240 in
        check_string "latest wins" "cpu.avx2.outer_product"
          (Microkernel.Registry.lower r ~name:"matmul" ~machine)
            .Microkernel.Kernel_sig.id);
    case "AVX2 semantics equal the reference" (fun () ->
        let m = 3 and n = 10 and k = 4 in
        let a = Array.init (m * k) float_of_int in
        let b = Array.init (k * n) (fun i -> float_of_int (i mod 7)) in
        let run impl =
          let c = Array.make (m * n) 0.0 in
          impl.Microkernel.Kernel_sig.execute ~m ~n ~k
            {
              Microkernel.Kernel_sig.a; a_off = 0; lda = k;
              b; b_off = 0; ldb = n;
              c; c_off = 0; ldc = n;
            };
          c
        in
        let avx2 = run Microkernel.Cpu.avx2_impl in
        let avx512 = run Microkernel.Cpu.impl in
        Array.iteri (fun i v -> check_float "same" v avx512.(i)) avx2);
    case "narrower registers mean lower asymptotic AI" (fun () ->
        let ai (p : Microkernel.Cpu.params) =
          float_of_int (p.mi * p.ni) /. float_of_int (p.mi + p.ni)
        in
        check_true "avx2 < avx512"
          (ai Microkernel.Cpu.params_avx2 < ai (Microkernel.Cpu.select_params ~vector_registers:32)));
  ]

let suites =
  [
    ("analytical.parallelism", tests);
    ("analytical.parallelism.oracle", oracle_tests);
    ("microkernel.avx2", avx2_tests);
  ]
