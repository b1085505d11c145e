let kib n = n * 1024
let mib n = n * 1024 * 1024

let xeon_gold_6240 =
  Machine.make ~name:"Intel Xeon Gold 6240" ~backend:Machine.Cpu
    ~peak_tflops:12.0 ~freq_ghz:2.6 ~cores:18 ~vector_registers:32
    ~vector_lanes:16
    ~levels:
      [
        Level.make ~name:"L1" ~capacity_bytes:(kib 32)
          ~link_bandwidth_gbps:4000.0 ();
        Level.make ~name:"L2" ~capacity_bytes:(mib 1)
          ~link_bandwidth_gbps:2000.0 ();
        Level.make ~name:"L3" ~capacity_bytes:(kib 1408)
          ~link_bandwidth_gbps:800.0 ();
        Level.dram ~bandwidth_gbps:131.0;
      ]
    ()

let nvidia_a100 =
  Machine.make ~name:"NVIDIA A100" ~backend:Machine.Gpu ~peak_tflops:312.0
    ~freq_ghz:1.41 ~cores:108 ~vector_registers:256 ~vector_lanes:32
    ~tensor_tile:(16, 16, 16)
    ~levels:
      [
        Level.make ~name:"shared" ~capacity_bytes:(kib 164)
          ~link_bandwidth_gbps:19400.0 ~line_bytes:128 ();
        Level.make ~name:"L2"
          ~capacity_bytes:(kib 40960)
          ~link_bandwidth_gbps:5120.0 ~line_bytes:128 ();
        Level.dram ~bandwidth_gbps:1555.0;
      ]
    ()

let ascend_910 =
  Machine.make ~name:"Huawei Ascend 910" ~backend:Machine.Npu
    ~peak_tflops:320.0 ~freq_ghz:1.0 ~cores:32 ~vector_registers:64
    ~vector_lanes:16 ~tensor_tile:(16, 16, 16)
    ~levels:
      [
        Level.make ~name:"L0" ~capacity_bytes:(kib 256)
          ~link_bandwidth_gbps:4000.0 ~line_bytes:512 ();
        Level.make ~name:"L1" ~capacity_bytes:(mib 1)
          ~link_bandwidth_gbps:2000.0 ~line_bytes:512 ();
        Level.dram ~bandwidth_gbps:1200.0;
      ]
    ()

let ascend_unified_buffer_bytes = kib 256

let all =
  [ ("cpu", xeon_gold_6240); ("gpu", nvidia_a100); ("npu", ascend_910) ]

let by_name name = List.assoc_opt (String.lowercase_ascii name) all
