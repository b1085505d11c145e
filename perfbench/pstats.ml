(* Order statistics for latency samples.  Percentiles use the
   nearest-rank definition, so "samples beyond" a percentile is an
   exact count rather than an interpolation artefact. *)

let sorted a =
  let s = Array.copy a in
  Array.sort Float.compare s;
  s

(* 1-based nearest rank of percentile [p] in a sample of [n]. *)
let rank ~n p = max 1 (min n (int_of_float (Float.ceil (p /. 100. *. float_of_int n))))

let percentile_sorted s p =
  let n = Array.length s in
  if n = 0 then Float.nan else s.(rank ~n p - 1)

let percentile a p = percentile_sorted (sorted a) p
let median a = percentile a 50.

let mean a =
  let n = Array.length a in
  if n = 0 then Float.nan else Array.fold_left ( +. ) 0. a /. float_of_int n

let geomean a =
  let n = Array.length a in
  if n = 0 then Float.nan
  else exp (Array.fold_left (fun acc x -> acc +. log x) 0. a /. float_of_int n)

let min_beyond = 10

(* The highest percentile of a sample of [n] that leaves at least
   [min_beyond] samples strictly above its nearest rank, with that
   count; [None] when the sample is too small for any. *)
let tail_percentile n =
  if n <= min_beyond then None
  else
    let p = 100. *. float_of_int (n - min_beyond) /. float_of_int n in
    Some (p, n - rank ~n p)

type tail = {
  value : float;
  percentile : float;  (** 100 when the sample is too small for a tail *)
  beyond : int;  (** samples above the percentile, per segment *)
  segments : int;
}

(* Tail latency of [samples] (in arrival order), cut into complete
   segments of [segment] samples: the tail percentile of one segment,
   taken as the median over segments.  A fixed segment size fixes the
   percentile, so two runs with different sample counts report the
   same percentile; the median over segments keeps one stall from
   deciding the figure.  A sample shorter than one segment is taken
   whole; one of [min_beyond] samples or fewer reports its maximum. *)
let tail ~segment samples =
  let n = Array.length samples in
  let segment = if segment <= 0 || n < segment then n else segment in
  let segments = if segment = 0 then 0 else n / segment in
  match tail_percentile segment with
  | None ->
      {
        value = (if n = 0 then Float.nan else Array.fold_left Float.max Float.neg_infinity samples);
        percentile = 100.;
        beyond = 0;
        segments = 1;
      }
  | Some (p, beyond) ->
      let per_segment =
        Array.init segments (fun i ->
            percentile (Array.sub samples (i * segment) segment) p)
      in
      { value = median per_segment; percentile = p; beyond; segments }

let tail_json t =
  Util.Json.Obj
    [
      ("percentile", Util.Json.Float t.percentile);
      ("samples_beyond", Util.Json.Int t.beyond);
      ("segments", Util.Json.Int t.segments);
    ]
