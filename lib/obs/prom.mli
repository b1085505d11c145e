(** Prometheus text exposition writer.

    The one place that emits [# HELP]/[# TYPE] headers, escapes label
    values and help text, and renders histograms as cumulative
    [_bucket{le=...}]/[_sum]/[_count] series.  A metric family is a
    name, help text, a kind and its [(labels, value)] series; render a
    scrape by listing each family once (the format allows at most one
    header pair per name) with every instance's series under it. *)

type kind = Counter | Gauge | Histogram

type value =
  | Int of int
  | Fixed of float  (** six decimals, like a histogram's [_sum]. *)
  | Float of float  (** [%.17g]: round-trips the double. *)
  | Hist of Histogram.t
      (** buckets with [le="%.9g"] bounds, a [+Inf] bucket, [_sum]
          ([%.6f]) and [_count]. *)

type family = {
  name : string;
  help : string;
  kind : kind;
  series : ((string * string) list * value) list;
}

val render : family list -> string
(** Each family's header pair followed by its series, in order.  A
    family with no series renders as its header alone. *)
