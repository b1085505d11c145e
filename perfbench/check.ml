(* Correctness of the answers the program under test gives.  A
   violation fails the run; typed errors are legal answers but count as
   failed requests. *)

module J = Util.Json

type t = {
  mutable attempted : int;
  mutable failed : int;  (** typed errors, violations and unanswered *)
  mutable degraded : int;  (** answers below the requested rung *)
  mutable violations : int;
  mutable first_violation : string option;
}

let create () =
  {
    attempted = 0;
    failed = 0;
    degraded = 0;
    violations = 0;
    first_violation = None;
  }

let violation t msg =
  t.violations <- t.violations + 1;
  t.failed <- t.failed + 1;
  if t.first_violation = None then begin
    t.first_violation <- Some msg;
    prerr_endline ("perfbench: check failed: " ^ msg)
  end

let correct t = t.violations = 0

let str k j = Option.bind (J.member k j) J.to_string_opt

(* Judge one answer to request [id].  [strict]: the worker verifies,
   so every plan planned for this request must carry the "certified"
   verdict.  [replayed] answers were stored earlier (the fleet router's
   hot tier), so they are never fresh.  Returns the answer when it is a
   plan. *)
let judge ?(replayed = false) t ~strict ~id (j : J.t) =
  match J.member "ok" j with
  | Some (J.Bool true) ->
      if J.member "id" j <> Some (J.Int id) then begin
        violation t (Printf.sprintf "answer to request %d carries another id" id);
        None
      end
      else if
        (match J.member "units" j with Some (J.List (_ :: _)) -> false | _ -> true)
        || str "fingerprint" j = None
      then begin
        violation t (Printf.sprintf "answer to request %d has no plan" id);
        None
      end
      else begin
        if str "rung" j <> Some "fused" || J.member "degraded" j <> Some J.Null
        then t.degraded <- t.degraded + 1;
        if
          strict && (not replayed)
          && str "source" j = Some "compiled"
          && str "certificate" j <> Some "certified"
        then violation t (Printf.sprintf "fresh plan for request %d is not certified" id);
        Some j
      end
  | Some (J.Bool false) when str "error" j <> None && str "code" j <> None ->
      t.failed <- t.failed + 1;
      None
  | _ ->
      violation t (Printf.sprintf "answer to request %d is neither a plan nor a typed error" id);
      None

let parse_answer t ~id line =
  match J.parse line with
  | Ok j -> Some j
  | Error e ->
      violation t (Printf.sprintf "answer to request %d is not JSON: %s" id e);
      None

(* The part of an answer that must not depend on whether it came from
   the cache: everything but the provenance and timing fields. *)
let plan_view (j : J.t) =
  match j with
  | J.Obj fields ->
      J.Obj
        (List.filter
           (fun (k, _) ->
             not
               (List.mem k
                  [ "id"; "source"; "compile_ms"; "trace_id"; "timings_ms"; "trace" ]))
           fields)
  | other -> other

(* A unit as the serve loop renders it, for comparing served plans with
   plans made in-process. *)
let unit_json (u : Chimera.Compiler.unit_) =
  let k = u.Chimera.Compiler.kernel in
  J.Obj
    [
      ("kernel", J.String u.Chimera.Compiler.sub_chain.Ir.Chain.name);
      ("order", J.String (String.concat "" k.Codegen.Kernel.perm));
      ( "tiling",
        J.Obj
          (List.map
             (fun (axis, size) -> (axis, J.Int size))
             (Analytical.Tiling.bindings k.Codegen.Kernel.tiling)) );
      ("dv_bytes", J.Float (Codegen.Kernel.predicted_dv_bytes k));
      ("mu_bytes", J.Int (Codegen.Kernel.predicted_mu_bytes k));
    ]
