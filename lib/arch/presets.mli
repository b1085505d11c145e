(** The three evaluation machines of the paper (Section VI-A, Table I).

    Capacities, peak throughputs, DRAM bandwidths, register budgets and
    dedicated-unit shapes come straight from the paper / vendor documents
    it cites.  Inter-cache link bandwidths are not printed in the paper;
    the values here are engineering estimates recorded in DESIGN.md and
    only shape the multi-level cost (Eq. 2), never the single-level DV
    comparison. *)

val xeon_gold_6240 : Machine.t
(** Intel Xeon Gold 6240: AVX-512, 18 cores, 12 TFLOPS fp16, 131 GB/s
    DRAM; per-core L1d 32 KiB, L2 1 MiB, L3 slice 1.375 MiB. *)

val nvidia_a100 : Machine.t
(** NVIDIA A100: Tensor Cores (16x16x16 WMMA), 108 SMs, 312 TFLOPS fp16,
    1555 GB/s HBM; 164 KiB shared memory per SM, 40.96 MiB L2. *)

val ascend_910 : Machine.t
(** Huawei Ascend 910: Cube unit (16x16x16), 32 AI cores, 320 TFLOPS
    fp16, 1200 GB/s HBM; per-core L0A/B 64 KiB, L0C 256 KiB, L1 1 MiB. *)

val ascend_unified_buffer_bytes : int
(** The Ascend 910's 256 KiB Unified Buffer, used to transfer the first
    GEMM's intermediate result; modelled as the bottleneck the paper
    reports for large GEMMs in Figure 7. *)

val all : (string * Machine.t) list
(** [(short-name, machine)] for CLI lookup: ["cpu"], ["gpu"], ["npu"]. *)

val by_name : string -> Machine.t option
(** Lookup in {!all}. *)
