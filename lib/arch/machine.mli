(** Whole-machine descriptions.

    These carry exactly the analytic parameters Chimera's decisions depend
    on (Table I and Section VI-A of the paper): peak throughput, memory
    capacities and bandwidths, register budget and the shape of the
    dedicated matrix unit. *)

type backend = Cpu | Gpu | Npu
(** Which replaceable-micro-kernel family the machine uses. *)

type t = {
  name : string;
  backend : backend;
  peak_tflops : float;  (** fp16 peak compute throughput. *)
  freq_ghz : float;  (** core clock. *)
  cores : int;  (** processing cores / SMs / AI cores. *)
  vector_registers : int;
      (** architectural vector registers per core (CPU micro kernel
          constraint: [RegUsed <= vector_registers]). *)
  vector_lanes : int;  (** elements per vector register at fp32 width. *)
  tensor_tile : int * int * int;
      (** (m, n, k) shape of one dedicated-unit matrix instruction
          (WMMA fragment / cube op); [(1, 1, 1)] when absent. *)
  levels : Level.t list;
      (** per-core memory hierarchy, innermost first, DRAM last. *)
}

val make :
  name:string -> backend:backend -> peak_tflops:float -> freq_ghz:float ->
  cores:int -> vector_registers:int -> vector_lanes:int ->
  ?tensor_tile:int * int * int -> levels:Level.t list -> unit -> t
(** Construct a machine; validates that the hierarchy ends at DRAM and
    capacities increase monotonically. *)

val dram : t -> Level.t
(** The outermost level. *)

val on_chip_levels : t -> Level.t list
(** All levels except DRAM, innermost first. *)

val primary_on_chip : t -> Level.t
(** The level Chimera targets for single-level block decomposition: the
    outermost on-chip level (CPU L2 slice, GPU shared memory is handled
    via [levels]; see presets). *)

val dram_bandwidth_gbps : t -> float
(** Bandwidth of the DRAM link. *)

val peak_flops : t -> float
(** Peak throughput in FLOP/s (not tera). *)

val ridge_flop_per_byte : t -> float
(** Roofline ridge point: peak FLOP/s divided by DRAM bandwidth, the
    "Peak Perf/BW" column of Table I. *)

val backend_to_string : backend -> string
(** ["cpu"], ["gpu"] or ["npu"]. *)

val pp : Format.formatter -> t -> unit
(** Multi-line summary. *)
