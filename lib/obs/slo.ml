(* SLO burn-rate engine.

   An objective is either availability ("99.9% of requests answer
   ok") or latency ("99% of requests answer within 50 ms").  Burn
   rate over a window is the observed bad fraction divided by the
   budgeted bad fraction (1 - target): burn 1.0 consumes the error
   budget exactly as fast as allowed, burn 14.4 over 5 minutes is the
   classic page-now threshold.  Multi-window reporting (5m + 1h by
   default) gives both a fast trigger and a de-bouncer.

   The engine is fed cumulative totals — the good/total counters and
   the lossless latency histogram the router already aggregates — and
   keeps a ring of timestamped snapshots at [granularity_s] spacing.
   A window's rates are the difference between now and the newest
   snapshot at least that old (the whole history if the window hasn't
   filled yet, standard for young processes).  The latency objective's
   good count is read off the histogram with [Histogram.count_le] —
   whole buckets plus a log-linear fraction of the straddling bucket,
   the same interpolation as [Histogram.quantile].

   Time comes from an injected [now] (seconds); tests drive a virtual
   clock.  Single-domain. *)

type kind = Availability | Latency of float  (* threshold ms *)
type objective = { o_name : string; o_target : float; o_kind : kind }

let availability ?(name = "availability") target =
  if target <= 0.0 || target >= 1.0 then
    invalid_arg "Slo.availability: target must be in (0, 1)";
  { o_name = name; o_target = target; o_kind = Availability }

let latency ?name ~threshold_ms target =
  if target <= 0.0 || target >= 1.0 then
    invalid_arg "Slo.latency: target must be in (0, 1)";
  if threshold_ms <= 0.0 then
    invalid_arg "Slo.latency: threshold_ms must be > 0";
  let name =
    match name with
    | Some n -> n
    | None -> Printf.sprintf "latency_le_%gms" threshold_ms
  in
  { o_name = name; o_target = target; o_kind = Latency threshold_ms }

type snapshot = { s_ts : float; s_cum : (float * float) array }
(* per-objective cumulative (good, total) *)

type t = {
  objectives : objective array;
  windows_s : float array;
  now : unit -> float;
  granularity_s : float;
  mutable snaps : snapshot list;  (* newest first; bounded by pruning *)
  mutable cur : snapshot;  (* the latest observation, maybe unsnapped *)
  mutable last_snap_ts : float;
}

let default_windows_s = [ 300.0; 3600.0 ]

let create ?(windows_s = default_windows_s) ?(granularity_s = 5.0)
    ?(now = fun () -> Unix.gettimeofday ()) objectives =
  if objectives = [] then invalid_arg "Slo.create: no objectives";
  if windows_s = [] || List.exists (fun w -> w <= 0.0) windows_s then
    invalid_arg "Slo.create: windows must be positive";
  if granularity_s <= 0.0 then
    invalid_arg "Slo.create: granularity must be positive";
  let objectives = Array.of_list objectives in
  let zero =
    { s_ts = now (); s_cum = Array.map (fun _ -> (0.0, 0.0)) objectives }
  in
  {
    objectives;
    windows_s = Array.of_list (List.sort_uniq compare windows_s);
    now;
    granularity_s;
    snaps = [ zero ];
    cur = zero;
    last_snap_ts = zero.s_ts;
  }

let objectives t = Array.to_list t.objectives
let windows_s t = Array.to_list t.windows_s

let max_window t = Array.fold_left max 0.0 t.windows_s

(* Drop snapshots past the largest window, but always keep the newest
   one at-or-beyond the horizon: every window needs a baseline to diff
   against even when its exact boundary fell between snapshots. *)
let prune t now =
  let horizon = now -. max_window t in
  let rec keep = function
    | a :: (_ :: _ as rest) ->
        if a.s_ts <= horizon then [ a ] (* a is the horizon baseline *)
        else a :: keep rest
    | l -> l
  in
  t.snaps <- keep t.snaps

let observe t ~good ~total ~latency:hist =
  let now = t.now () in
  let cum =
    Array.map
      (fun o ->
        match o.o_kind with
        | Availability -> (float_of_int good, float_of_int total)
        | Latency threshold ->
            ( Histogram.count_le hist threshold,
              float_of_int (Histogram.count hist) ))
      t.objectives
  in
  t.cur <- { s_ts = now; s_cum = cum };
  if now -. t.last_snap_ts >= t.granularity_s then begin
    t.snaps <- t.cur :: t.snaps;
    t.last_snap_ts <- now;
    prune t now
  end

type window_report = {
  r_window_s : float;
  r_good : float;
  r_total : float;
  r_bad_frac : float;
  r_burn : float;  (* bad_frac / (1 - target) *)
  r_budget_remaining : float;  (* 1 - burn; negative = budget blown *)
}

let baseline t window now =
  (* newest snapshot at least [window] old; else the oldest we have *)
  let rec go last = function
    | [] -> last
    | s :: rest -> if s.s_ts <= now -. window then s else go s rest
  in
  match t.snaps with [] -> t.cur | s :: rest -> go s rest

let window_report t oi window =
  let now = t.cur.s_ts in
  let base = baseline t window now in
  let bg, bt = base.s_cum.(oi) in
  let cg, ct = t.cur.s_cum.(oi) in
  let good = Float.max 0.0 (cg -. bg) and total = Float.max 0.0 (ct -. bt) in
  let bad_frac = if total <= 0.0 then 0.0 else (total -. good) /. total in
  let o = t.objectives.(oi) in
  let burn = bad_frac /. (1.0 -. o.o_target) in
  {
    r_window_s = window;
    r_good = good;
    r_total = total;
    r_bad_frac = bad_frac;
    r_burn = burn;
    r_budget_remaining = 1.0 -. burn;
  }

let report t =
  Array.to_list
    (Array.mapi
       (fun oi o ->
         ( o,
           Array.to_list
             (Array.map (fun w -> window_report t oi w) t.windows_s) ))
       t.objectives)

let kind_json = function
  | Availability -> Util.Json.String "availability"
  | Latency ms ->
      Util.Json.Obj [ ("latency_le_ms", Util.Json.Float ms) ]

let report_json t =
  let open Util.Json in
  Obj
    [
      ( "objectives",
        List
          (List.map
             (fun (o, windows) ->
               Obj
                 [
                   ("name", String o.o_name);
                   ("target", Float o.o_target);
                   ("kind", kind_json o.o_kind);
                   ( "windows",
                     List
                       (List.map
                          (fun r ->
                            Obj
                              [
                                ("window_s", Float r.r_window_s);
                                ("good", Float r.r_good);
                                ("total", Float r.r_total);
                                ("bad_frac", Float r.r_bad_frac);
                                ("burn_rate", Float r.r_burn);
                                ( "budget_remaining",
                                  Float r.r_budget_remaining );
                              ])
                          windows) );
                 ])
             (report t)) );
    ]

(* Render a [report_json]-shaped value back into the report table.
   This is the decode side of the report verb: [chimera slo] reads
   reports produced by another process (a loadgen [--json] report's
   ["slo"] member, a fleet [cmd:slo] answer) and pretty-prints them
   here; [report_text] goes through it too, so the two forms cannot
   drift. *)
let text_of_json json =
  let module J = Util.Json in
  let num = function
    | Some (J.Float f) -> Some f
    | Some (J.Int i) -> Some (float_of_int i)
    | _ -> None
  in
  match J.member "objectives" json with
  | Some (J.List objs) ->
      let buf = Buffer.create 512 in
      let ok =
        List.for_all
          (fun o ->
            match
              ( J.member "name" o,
                num (J.member "target" o),
                J.member "windows" o )
            with
            | Some (J.String name), Some target, Some (J.List windows) ->
                let latency_ms =
                  Option.bind (J.member "kind" o) (fun k ->
                      num (J.member "latency_le_ms" k))
                in
                Buffer.add_string buf
                  (Printf.sprintf "%s (target %.4f%s)\n" name target
                     (match latency_ms with
                     | None -> ""
                     | Some ms -> Printf.sprintf ", <= %g ms" ms));
                List.for_all
                  (fun w ->
                    match
                      ( num (J.member "window_s" w),
                        num (J.member "good" w),
                        num (J.member "total" w),
                        num (J.member "burn_rate" w),
                        num (J.member "budget_remaining" w) )
                    with
                    | Some ws, Some good, Some total, Some burn, Some budget
                      ->
                        Buffer.add_string buf
                          (Printf.sprintf
                             "  %6.0fs window: %8.0f/%-8.0f good  burn \
                              %6.2f  budget %6.1f%%\n"
                             ws good total burn (100.0 *. budget));
                        true
                    | _ -> false)
                  windows
            | _ -> false)
          objs
      in
      if ok then Ok (Buffer.contents buf)
      else Error "malformed SLO report object"
  | _ -> Error "not an SLO report (no \"objectives\" array)"

let report_text t =
  match text_of_json (report_json t) with Ok s -> s | Error e -> "slo: " ^ e

(* Prometheus gauges: every series labelled by objective (and window). *)
let to_prometheus t =
  let rep = report t in
  let gauge name help series =
    { Prom.name = "chimera_slo_" ^ name; help; kind = Prom.Gauge; series }
  in
  let per_window get =
    List.concat_map
      (fun (o, windows) ->
        List.map
          (fun r ->
            ( [
                ("objective", o.o_name);
                ("window", Printf.sprintf "%gs" r.r_window_s);
              ],
              Prom.Float (get r) ))
          windows)
      rep
  in
  Prom.render
    [
      gauge "target" "Objective target fraction."
        (List.map
           (fun (o, _) -> ([ ("objective", o.o_name) ], Prom.Float o.o_target))
           rep);
      gauge "burn_rate"
        "Error-budget burn rate over the window (1.0 = consuming exactly \
         the budget)."
        (per_window (fun r -> r.r_burn));
      gauge "error_budget_remaining"
        "Fraction of the window's error budget left (negative = blown)."
        (per_window (fun r -> r.r_budget_remaining));
      gauge "window_good" "Good events in the window."
        (per_window (fun r -> r.r_good));
      gauge "window_total" "Total events in the window."
        (per_window (fun r -> r.r_total));
    ]
