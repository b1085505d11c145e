type t = {
  workload : string;
  arch : string;
  softmax : bool;
  relu : bool;
  batch : int option;
  fusion : bool;
  tuner : bool;
  deadline_ms : float option;
  timings : bool;
  traceparent : string option;
}

let make ?(softmax = false) ?(relu = false) ?batch ?(fusion = true)
    ?(tuner = false) ?deadline_ms ?(timings = false) ?traceparent ~workload
    ~arch () =
  {
    workload;
    arch;
    softmax;
    relu;
    batch;
    fusion;
    tuner;
    deadline_ms;
    timings;
    traceparent;
  }

(* ------------------------------------------------------------------ *)
(* Validation limits                                                   *)
(* ------------------------------------------------------------------ *)

let max_stages = 64
let max_axis_extent = 1 lsl 20

let invalid field reason = Error (Error.Invalid_request { field; reason })

let validate_chain (chain : Ir.Chain.t) =
  let stages = Ir.Chain.stage_count chain in
  if stages > max_stages then
    invalid "workload"
      (Printf.sprintf "chain %s has %d stages (limit %d)"
         chain.Ir.Chain.name stages max_stages)
  else
    let rec check_axes = function
      | [] -> Ok ()
      | (axis : Ir.Axis.t) :: rest ->
          if axis.extent <= 0 then
            invalid "workload"
              (Printf.sprintf "axis %s has non-positive extent %d" axis.name
                 axis.extent)
          else if axis.extent > max_axis_extent then
            invalid "batch"
              (Printf.sprintf "axis %s extent %d exceeds the limit %d"
                 axis.name axis.extent max_axis_extent)
          else check_axes rest
    in
    check_axes chain.Ir.Chain.axes

let validate_fields t =
  match t.batch with
  | Some b when b <= 0 ->
      invalid "batch" (Printf.sprintf "must be positive, got %d" b)
  | Some b when b > max_axis_extent ->
      invalid "batch"
        (Printf.sprintf "%d exceeds the limit %d" b max_axis_extent)
  | _ -> (
      match t.deadline_ms with
      | Some d when not (Float.is_finite d) || d <= 0.0 ->
          invalid "deadline_ms" "must be a positive finite number"
      | _ -> Ok ())

let resolve t =
  match validate_fields t with
  | Error _ as e -> e
  | Ok () -> (
      match Arch.Presets.by_name t.arch with
      | None ->
          invalid "arch" (Printf.sprintf "unknown arch %S (cpu|gpu|npu)" t.arch)
      | Some machine -> (
          let built =
            (* Chain builders validate their own invariants with
               [Invalid_argument]; surface that as a typed rejection
               rather than letting it escape into the serve loop. *)
            match Workloads.Gemm_configs.by_name t.workload with
            | Some c ->
                Some
                  (try
                     Ok
                       (Workloads.Gemm_configs.chain ~softmax:t.softmax
                          ?batch_override:t.batch c)
                   with Invalid_argument reason -> invalid "batch" reason)
            | None -> (
                match Workloads.Conv_configs.by_name t.workload with
                | Some c ->
                    Some
                      (try
                         Ok
                           (Workloads.Conv_configs.chain ~relu:t.relu
                              ?batch:t.batch c)
                       with Invalid_argument reason -> invalid "batch" reason)
                | None -> None)
          in
          match built with
          | None ->
              invalid "workload"
                (Printf.sprintf
                   "unknown workload %S (G1..G12 from Table IV, C1..C8 from \
                    Table V)"
                   t.workload)
          | Some (Error _ as e) -> e
          | Some (Ok chain) -> (
              match validate_chain chain with
              | Error _ as e -> e
              | Ok () -> Ok (chain, machine))))

let config_of ?(base = Chimera.Config.default) t =
  {
    base with
    Chimera.Config.use_fusion = t.fusion;
    (* [tuner] forces the sampling path; it never turns the cost model
       back on when the base config already disables it. *)
    use_cost_model = base.Chimera.Config.use_cost_model && not t.tuner;
  }

let deadline_of ?default_ms t =
  match (t.deadline_ms, default_ms) with
  | Some ms, _ | None, Some ms -> Some (Deadline.of_ms ms)
  | None, None -> None

(* ------------------------------------------------------------------ *)
(* JSON wire form                                                      *)
(* ------------------------------------------------------------------ *)

let decode json =
  let open Util.Json in
  let ( let* ) = Result.bind in
  (* An absent (or null) field takes its default; a present one of the
     wrong type is rejected, naming the field.  [traceparent] alone
     stays lenient: a malformed trace context never fails a request. *)
  let opt key decode expected =
    match member key json with
    | None | Some Null -> Ok None
    | Some v -> (
        match decode v with
        | Some x -> Ok (Some x)
        | None -> invalid key ("must be " ^ expected))
  in
  let flag key default =
    Result.map (Option.value ~default) (opt key to_bool_opt "a boolean")
  in
  let required key =
    let* v = opt key to_string_opt "a string" in
    match v with Some s -> Ok s | None -> invalid key "missing"
  in
  match json with
  | Obj _ ->
      let* workload = required "workload" in
      let* arch = required "arch" in
      let* softmax = flag "softmax" false in
      let* relu = flag "relu" false in
      let* batch = opt "batch" to_int_opt "an integer" in
      let* fusion = flag "fusion" true in
      let* tuner = flag "tuner" false in
      let* deadline_ms = opt "deadline_ms" to_float_opt "a number" in
      let* timings = flag "timings" false in
      Ok
        {
          workload;
          arch;
          softmax;
          relu;
          batch;
          fusion;
          tuner;
          deadline_ms;
          timings;
          traceparent = Option.bind (member "traceparent" json) to_string_opt;
        }
  | _ -> invalid "json" "request must be a JSON object"

let of_json json = Result.map_error Error.message (decode json)

let to_json t =
  let open Util.Json in
  Obj
    ([
       ("workload", String t.workload);
       ("arch", String t.arch);
       ("softmax", Bool t.softmax);
       ("relu", Bool t.relu);
     ]
    @ (match t.batch with Some b -> [ ("batch", Int b) ] | None -> [])
    @ [ ("fusion", Bool t.fusion) ]
    @ (if t.tuner then [ ("tuner", Bool true) ] else [])
    @ (match t.deadline_ms with
      | Some d -> [ ("deadline_ms", Float d) ]
      | None -> [])
    @ (if t.timings then [ ("timings", Bool true) ] else [])
    @
    match t.traceparent with
    | Some tp -> [ ("traceparent", String tp) ]
    | None -> [])

let all_gemm_x_arch () =
  List.concat_map
    (fun (arch, _) ->
      List.map
        (fun (g : Workloads.Gemm_configs.t) ->
          make ~workload:g.Workloads.Gemm_configs.name ~arch ())
        Workloads.Gemm_configs.all)
    Arch.Presets.all

let describe t =
  Printf.sprintf "%s@%s%s%s%s%s" t.workload t.arch
    (if t.softmax then "+softmax" else "")
    (if t.relu then "+relu" else "")
    (match t.batch with Some b -> Printf.sprintf "+batch=%d" b | None -> "")
    (if t.fusion then "" else "+nofusion")
    ^ if t.tuner then "+tuner" else ""
