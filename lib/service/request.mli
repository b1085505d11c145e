(** One optimization request, as submitted to [chimera batch] or the
    [chimera serve] JSONL loop: a workload from the paper's tables, a
    target machine, the knobs the CLI exposes, and an optional planning
    deadline.

    The JSON wire form (one object per line) is:
    {v
    {"workload": "G2", "arch": "cpu",
     "softmax": false, "relu": false, "batch": 8, "fusion": true,
     "tuner": false, "deadline_ms": 250, "timings": false}
    v}
    [workload] and [arch] are required; the rest default as below.  An
    optional ["id"] field is echoed back by the serve loop but is not
    part of the request identity.  [deadline_ms] bounds planning
    wall-clock (see docs/SERVICE.md) and is likewise excluded from the
    cache fingerprint.

    {2 Validation}

    {!resolve} enforces hard limits before any planning work:
    [batch] and every axis extent must be positive and at most
    {!max_axis_extent}; the chain may have at most {!max_stages}
    stages; [deadline_ms] must be positive and finite.  Violations are
    rejected as [Error.Invalid_request] naming the offending field. *)

type t = {
  workload : string;  (** G1..G12 (Table IV) or C1..C8 (Table V). *)
  arch : string;  (** cpu | gpu | npu. *)
  softmax : bool;  (** GEMM chains: attention softmax between stages. *)
  relu : bool;  (** conv chains: ReLU after each convolution. *)
  batch : int option;  (** overrides the workload's batch size. *)
  fusion : bool;  (** [false] compiles one kernel per stage. *)
  tuner : bool;
      (** [true] plans with the sampling tuner instead of the
          analytical cost model ({!config_of} clears
          [use_cost_model]).  Part of the request identity: it changes
          the config, hence the cache fingerprint. *)
  deadline_ms : float option;
      (** planning budget in milliseconds; [None] means unbounded. *)
  timings : bool;
      (** [true] asks the serve loop to attach a ["timings_ms"] object
          (per-phase totals from the request's trace) to the response.
          Response-shape only: excluded from the cache fingerprint
          because it never affects planning. *)
  traceparent : string option;
      (** W3C-style trace context ([00-<trace id>-<parent span
          id>-01], see {!Obs.Trace.of_wire}) injected by the router or
          load generator.  The serve loop parents its request trace
          under it and ships completed spans back.  Observability
          only: excluded from the cache fingerprint; malformed values
          are ignored, never a request error. *)
}

val max_stages : int
(** Upper bound on a chain's stage count (64). *)

val max_axis_extent : int
(** Upper bound on any axis extent, including the batch override
    (2{^20}). *)

val make :
  ?softmax:bool -> ?relu:bool -> ?batch:int -> ?fusion:bool ->
  ?tuner:bool -> ?deadline_ms:float -> ?timings:bool ->
  ?traceparent:string ->
  workload:string -> arch:string -> unit -> t
(** Defaults: no softmax, no relu, table batch size, fusion on,
    analytical cost model (no tuner), no deadline, no timings, no
    trace context. *)

val resolve : t -> (Ir.Chain.t * Arch.Machine.t, Error.t) result
(** Validate the request, build the chain and look up the machine
    preset.  [Error] is always [Error.Invalid_request] with the
    offending field named ([workload], [arch], [batch],
    [deadline_ms]). *)

val validate_chain : Ir.Chain.t -> (unit, Error.t) result
(** The chain-shape half of validation (stage count, axis extents),
    exposed for callers that build chains directly. *)

val config_of : ?base:Chimera.Config.t -> t -> Chimera.Config.t
(** The compiler configuration the request implies: [base] (default
    {!Chimera.Config.default}) with the fusion switch applied and the
    cost model cleared when [tuner] is set. *)

val deadline_of : ?default_ms:float -> t -> Deadline.t option
(** The planning deadline this request implies, started now: the
    request's own [deadline_ms] when present, else [default_ms], else
    none.  Call it when planning starts, not at decode time. *)

val decode : Util.Json.t -> (t, Error.t) result
(** Decode the wire form; unknown fields are ignored, absent or [null]
    ones take their defaults.  A missing [workload]/[arch], or a known
    field present with the wrong JSON type, is an {!Error.Invalid_request}
    naming that field ([json] when the value is not an object).
    [traceparent] is the exception: a non-string is ignored, because a
    malformed trace context never fails a request. *)

val of_json : Util.Json.t -> (t, string) result
(** {!decode} with the rejection rendered as its message
    (["invalid \"batch\": must be an integer"]). *)

val to_json : t -> Util.Json.t
(** Encode the wire form ([batch]/[deadline_ms]/[traceparent] omitted
    when [None]; [tuner]/[timings] omitted when false, keeping
    pre-existing encodings byte-identical). *)

val all_gemm_x_arch : unit -> t list
(** Every Table-IV GEMM chain on every machine preset — G1–G12 x
    {cpu, gpu, npu}, the standing bulk-compilation workload. *)

val describe : t -> string
(** e.g. ["G2@cpu"] with flag suffixes. *)
