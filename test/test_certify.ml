(* Proof-carrying plans: the optimality-certificate pipeline.

   - emission: Planner.optimize leaves a complete evidence trail (one
     entry per candidate order, exactly one winner, versioned wire
     form) and withholds it exactly when it cannot claim optimality
     (perms overrides);
   - checking: the independent Cert_check pass accepts every genuine
     certificate the compiler produces — including the gapped-stride
     conv workloads (C5) that the tightened lower bound now covers
     with a full (unconditional) witness;
   - tampering: forged certificates (flipped DVs, dropped entries,
     doctored witnesses, swapped winners) are each rejected with their
     distinct stable CHIM code, deterministically and under QCheck's
     random tamper selection;
   - service plumbing: the certificate verdict travels on batch
     responses, a tampered cached certificate is rejected by strict
     verification as a non-retryable verify_failed, and a
     version-skewed (v4) plan-cache file is migrated — counted and
     skipped — rather than reported as corruption. *)

open Helpers

let qcheck = QCheck_alcotest.to_alcotest

module D = Verify.Diagnostic
module Cert = Analytical.Certificate
module P = Analytical.Planner
module Movement = Analytical.Movement
module Tiling = Analytical.Tiling

let cpu = List.assoc "cpu" Arch.Presets.all

let has_code code ds = List.exists (fun (d : D.t) -> d.D.code = code) ds

let has_error_code code ds =
  List.exists (fun (d : D.t) -> d.D.code = code && D.is_error d) ds

let capacity_of machine =
  (Arch.Machine.primary_on_chip machine).Arch.Level.capacity_bytes

(* A conv chain whose first stage strides past its window (stride 4 >
   kernel 3) — the gapped-access pattern (C5's shape family) that used
   to defeat the lower bound entirely. *)
let gapped_chain () =
  Ir.Chain.conv_chain ~name:"gapped" ~batch:1 ~ic:3 ~h:17 ~w:17 ~oc1:4
    ~oc2:3 ~st1:4 ~st2:1 ~k1:3 ~k2:1 ~relu:false ()

let cert_of (plan : P.plan) =
  match plan.P.certificate with
  | Some c -> c
  | None -> Alcotest.fail "plan carries no certificate"

let lp_of level plan =
  { P.level; plan; feed_bandwidth_gbps = 1.0; cost_seconds = 0.0 }

let inner_level, outer_level =
  match Arch.Machine.on_chip_levels cpu with
  | inner :: outer :: _ -> (inner, outer)
  | _ -> failwith "cpu preset has fewer than two on-chip levels"

let recheck chain machine plan =
  Verify.Cert_check.check_level_plans chain
    [ lp_of (Arch.Machine.primary_on_chip machine) plan ]

let with_cert plan f =
  { plan with P.certificate = Some (f (cert_of plan)) }

(* At the outermost level the search box is the full extents, where
   every order's lower bound collapses to the shared compulsory
   traffic and branch-and-bound never fires.  A nested pair — an outer
   plan whose tiles bound the inner level's box — is where pruning
   actually happens, so it is the fixture for every evidence-trail
   test: the inner certificate carries Won, Solved {e and} Pruned
   entries.  (16 KiB over 4 KiB on figure2 prunes 14 of 24 orders.) *)
let nested_outer_cap = 16 * 1024
let nested_inner_cap = 4 * 1024

let nested =
  lazy
    (let chain = figure2_chain () in
     let outer = P.optimize chain ~capacity_bytes:nested_outer_cap () in
     let inner =
       P.optimize chain ~capacity_bytes:nested_inner_cap
         ~max_tile:(fun a -> Tiling.get outer.P.tiling a)
         ()
     in
     (chain, outer, inner))

(* Check the nested pair (innermost-first, as the compiler stores
   level plans) with the inner plan optionally replaced by a forgery. *)
let recheck_nested ?inner () =
  let chain, outer, genuine = Lazy.force nested in
  let inner = match inner with Some p -> p | None -> genuine in
  Verify.Cert_check.check_level_plans chain
    [ lp_of inner_level inner; lp_of outer_level outer ]

(* ----------------------------------------------------------------- *)
(* Emission                                                           *)
(* ----------------------------------------------------------------- *)

let emission_tests =
  [
    case "optimize emits a complete, checkable certificate" (fun () ->
        let chain = figure2_chain () in
        let plan = P.optimize chain ~capacity_bytes:(capacity_of cpu) () in
        let cert = cert_of plan in
        check_true "one winner" (Cert.entries_won cert = 1);
        check_true "covers the candidate space in enumeration order"
          (List.map (fun (e : Cert.entry) -> e.Cert.perm) cert.Cert.entries
          = Analytical.Permutations.candidates chain);
        check_true "binds the plan's order" (cert.Cert.winner_perm = plan.P.perm);
        check_true "binds the plan's DV"
          (cert.Cert.winner_dv_bytes = plan.P.movement.Movement.dv_bytes);
        check_false "dense GEMM box has a full witness" cert.Cert.conditional;
        check_true "summary is printable"
          (String.length (Cert.summary cert) > 0);
        check_int "genuine certificate passes the independent checker" 0
          (List.length (recheck chain cpu plan)));
    case "a nested pair prunes, and its evidence trail checks" (fun () ->
        let chain, _, inner = Lazy.force nested in
        let cert = cert_of inner in
        check_true "one winner" (Cert.entries_won cert = 1);
        check_true "covers the candidate space"
          (List.map (fun (e : Cert.entry) -> e.Cert.perm) cert.Cert.entries
          = Analytical.Permutations.candidates chain);
        (* The evidence trail must exercise both losing kinds for the
           tamper tests below to be meaningful. *)
        check_true "records solved losers" (Cert.entries_solved cert >= 1);
        check_true "records pruned orders with witnesses"
          (Cert.entries_pruned cert >= 1);
        check_false "the constrained box still admits a witness"
          cert.Cert.conditional;
        check_int "the genuine pair passes the independent checker" 0
          (List.length (recheck_nested ())));
    case "a perms override claims no optimality" (fun () ->
        let chain = small_gemm_chain () in
        let plan =
          P.optimize chain ~capacity_bytes:(capacity_of cpu) ~perms:[ mlkn ]
            ()
        in
        check_true "no certificate" (plan.P.certificate = None);
        check_true "silently skipped by default"
          (recheck chain cpu plan = []);
        check_true "flagged CHIM044 under --certify"
          (has_code "CHIM044"
             (Verify.Cert_check.check_level_plans ~require_certificates:true
                chain
                [ lp_of (Arch.Machine.primary_on_chip cpu) plan ])));
    case "the wire form round-trips and rejects version skew" (fun () ->
        (* The nested inner certificate carries all four outcome kinds'
           wire cases that figure2 produces (Won, Solved, Pruned). *)
        let _, _, inner = Lazy.force nested in
        let cert = cert_of inner in
        (match Cert.of_json (Cert.to_json cert) with
        | Ok c -> check_true "round-trip is exact" (c = cert)
        | Error e -> Alcotest.failf "round-trip failed: %s" e);
        let bumped =
          match Cert.to_json cert with
          | Util.Json.Obj fields ->
              Util.Json.Obj
                (List.map
                   (fun (k, v) ->
                     if k = "version" then
                       (k, Util.Json.Int (Cert.wire_version + 1))
                     else (k, v))
                   fields)
          | j -> j
        in
        check_true "future wire version is rejected"
          (Result.is_error (Cert.of_json bumped));
        check_true "garbage is rejected, not raised"
          (Result.is_error (Cert.of_json (Util.Json.String "certificate"))));
  ]

(* ----------------------------------------------------------------- *)
(* The gapped-access lower bound (C5's shape family)                  *)
(* ----------------------------------------------------------------- *)

let full_box chain =
  let full = Analytical.Permutations.full_tile_axes chain in
  List.map
    (fun (a : Ir.Axis.t) ->
      {
        Cert.axis = a.Ir.Axis.name;
        bound = a.Ir.Axis.extent;
        fixed = List.mem a.Ir.Axis.name full || a.Ir.Axis.extent <= 1;
      })
    chain.Ir.Chain.axes

(* Random tilings inside a box: fixed axes pinned at their bound,
   varying axes anywhere in [1, bound]. *)
let tiling_gen chain =
  let box = full_box chain in
  QCheck.make
    ~print:(fun bs ->
      String.concat ","
        (List.map (fun (a, s) -> Printf.sprintf "%s=%d" a s) bs))
    (QCheck.Gen.map
       (fun seeds ->
         List.map2
           (fun (b : Cert.box_axis) seed ->
             ( b.Cert.axis,
               if b.Cert.fixed then b.Cert.bound else 1 + (seed mod b.Cert.bound)
             ))
           box seeds)
       (QCheck.Gen.list_size
          (QCheck.Gen.return (List.length box))
          (QCheck.Gen.int_bound 100_000)))

let solver_bound_inputs chain perm =
  let ev = Movement.compile chain ~perm in
  let names = Movement.axis_names ev in
  let full = Analytical.Permutations.full_tile_axes chain in
  let bounds = Array.map (Ir.Chain.extent_of chain) names in
  let fixed =
    Array.mapi (fun i n -> List.mem n full || bounds.(i) <= 1) names
  in
  (ev, bounds, fixed)

let gapped_bound_tests =
  [
    case "the gapped conv box now admits a witness" (fun () ->
        let chain = gapped_chain () in
        List.iter
          (fun perm ->
            let ev, bounds, fixed = solver_bound_inputs chain perm in
            match Movement.dv_lower_bound ev ~bounds ~fixed with
            | Some lb ->
                check_true "bound is positive and finite"
                  (lb > 0.0 && Float.is_finite lb)
            | None ->
                Alcotest.failf "no bound for order [%s]"
                  (String.concat "," perm))
          (Analytical.Permutations.candidates chain));
    case "C5 x every preset certifies fully (no conditional)" (fun () ->
        let c5 =
          List.find
            (fun (c : Workloads.Conv_configs.t) -> c.name = "C5")
            Workloads.Conv_configs.all
        in
        let chain = Workloads.Conv_configs.chain ~relu:false c5 in
        List.iter
          (fun (aname, machine) ->
            let compiled = Chimera.Compiler.optimize ~machine chain in
            let ds =
              Verify.Driver.check_compiled ~require_certificates:true
                compiled
            in
            check_true (aname ^ ": no errors") (D.ok ds);
            check_false (aname ^ ": no conditional certificate")
              (has_code "CHIM043" ds);
            check_false (aname ^ ": no missing certificate")
              (has_code "CHIM044" ds))
          Arch.Presets.all);
    qcheck
      (QCheck.Test.make ~count:40
         ~name:"gapped witness bound is sound over the whole box"
         (tiling_gen (gapped_chain ()))
         (fun bindings ->
           let chain = gapped_chain () in
           let box = full_box chain in
           let tiling = Tiling.make chain bindings in
           List.for_all
             (fun perm ->
               let dv =
                 (Movement.analyze chain ~perm ~tiling).Movement.dv_bytes
               in
               (match
                  Verify.Cert_check.witness_lower_bound chain ~perm ~box
                with
               | Error _ -> true
               | Ok lb -> lb <= dv *. (1.0 +. 1e-9))
               &&
               let ev, bounds, fixed = solver_bound_inputs chain perm in
               match Movement.dv_lower_bound ev ~bounds ~fixed with
               | None -> true
               | Some lb -> lb <= dv *. (1.0 +. 1e-9))
             (Analytical.Permutations.candidates chain)));
    qcheck
      (QCheck.Test.make ~count:40
         ~name:"emission and checker price witnesses identically"
         (QCheck.make (QCheck.Gen.return ()))
         (fun () ->
           let chain = gapped_chain () in
           let box = full_box chain in
           List.for_all
             (fun perm ->
               let ev, bounds, fixed = solver_bound_inputs chain perm in
               match
                 ( Movement.dv_lower_bound ev ~bounds ~fixed,
                   Verify.Cert_check.witness_lower_bound chain ~perm ~box )
               with
               | Some a, Ok b ->
                   Float.abs (a -. b)
                   <= 1e-6 *. Float.max 1.0 (Float.max a b)
               | None, Error _ -> true
               | Some _, Error _ | None, Ok _ -> false)
             (Analytical.Permutations.candidates chain)));
  ]

(* ----------------------------------------------------------------- *)
(* Forged certificates: each tamper draws its own stable code         *)
(* ----------------------------------------------------------------- *)

let map_entry_kind ~name pick replace (c : Cert.t) =
  let hit = ref false in
  let entries =
    List.map
      (fun (e : Cert.entry) ->
        if (not !hit) && pick e then begin
          hit := true;
          replace e
        end
        else e)
      c.Cert.entries
  in
  if not !hit then Alcotest.failf "certificate has no %s entry to tamper" name;
  { c with Cert.entries = entries }

let tampers : (string * (Cert.t -> Cert.t) * string) list =
  [
    ( "flipped winner DV",
      (fun c ->
        { c with Cert.winner_dv_bytes = c.Cert.winner_dv_bytes *. 0.9 }),
      "CHIM037" );
    ( "flipped solved-loser DV",
      map_entry_kind ~name:"solved"
        (fun e ->
          match e.Cert.outcome with Cert.Solved _ -> true | _ -> false)
        (fun e ->
          match e.Cert.outcome with
          | Cert.Solved { dv_bytes; tiling } ->
              {
                e with
                Cert.outcome =
                  Cert.Solved { dv_bytes = dv_bytes *. 1.5; tiling };
              }
          | _ -> assert false),
      "CHIM038" );
    ( "doctored pruned witness",
      (fun c ->
        map_entry_kind ~name:"pruned"
          (fun e ->
            match e.Cert.outcome with Cert.Pruned _ -> true | _ -> false)
          (fun e ->
            {
              e with
              Cert.outcome =
                Cert.Pruned { lb_dv_bytes = c.Cert.winner_dv_bytes *. 0.5 };
            })
          c),
      "CHIM039" );
    ( "inflated pruned witness",
      (fun c ->
        map_entry_kind ~name:"pruned"
          (fun e ->
            match e.Cert.outcome with Cert.Pruned _ -> true | _ -> false)
          (fun e ->
            match e.Cert.outcome with
            | Cert.Pruned { lb_dv_bytes } ->
                {
                  e with
                  Cert.outcome =
                    Cert.Pruned { lb_dv_bytes = lb_dv_bytes *. 1.5 };
                }
            | _ -> assert false)
          c),
      "CHIM039" );
    ( "dropped entry",
      (fun c ->
        match List.rev c.Cert.entries with
        | _ :: rest -> { c with Cert.entries = List.rev rest }
        | [] -> Alcotest.fail "certificate has no entries"),
      "CHIM040" );
    ( "shrunken search box",
      (fun c ->
        let hit = ref false in
        let box =
          List.map
            (fun (b : Cert.box_axis) ->
              if (not !hit) && (not b.Cert.fixed) && b.Cert.bound > 1 then begin
                hit := true;
                { b with Cert.bound = b.Cert.bound - 1 }
              end
              else b)
            c.Cert.box
        in
        if not !hit then Alcotest.fail "no varying box axis to tamper";
        { c with Cert.box = box }),
      "CHIM042" );
    ( "winner order detached from the plan",
      (fun c ->
        { c with Cert.winner_perm = List.rev c.Cert.winner_perm }),
      "CHIM036" );
    ( "conditional claim with pruned entries",
      (fun c -> { c with Cert.conditional = true }),
      "CHIM042" );
  ]

let apply_tamper (name, tamper, code) =
  let _, _, inner = Lazy.force nested in
  let ds = recheck_nested ~inner:(with_cert inner tamper) () in
  if not (has_error_code code ds) then
    Alcotest.failf "%s: expected %s, got [%s]" name code
      (String.concat "; " (List.map D.to_string ds))

let tamper_tests =
  List.map
    (fun ((name, _, code) as t) ->
      case (Printf.sprintf "%s is rejected with %s" name code) (fun () ->
          apply_tamper t))
    tampers
  @ [
      case "a swapped winner is caught as non-minimal (CHIM041)" (fun () ->
          let chain, outer, genuine = Lazy.force nested in
          let capacity = nested_inner_cap in
          let max_tile a = Tiling.get outer.P.tiling a in
          let box = (cert_of genuine).Cert.box in
          let cands, _ =
            P.explore chain ~capacity_bytes:capacity ~max_tile ~prune:false
              ()
          in
          let best = List.hd cands in
          let runner =
            match
              List.find_opt
                (fun (c : P.candidate) ->
                  c.P.c_dv_bytes > best.P.c_dv_bytes *. (1.0 +. 1e-9))
                cands
            with
            | Some c -> c
            | None -> Alcotest.fail "every order ties; cannot forge a winner"
          in
          (* Forge a certificate (and a plan bound to it) that crowns
             the runner-up: every per-entry re-check passes — the DVs
             are genuine — but the true winner's solved entry beats the
             claimed optimum. *)
          let entries =
            List.map
              (fun perm ->
                if perm = runner.P.c_perm then
                  {
                    Cert.perm;
                    outcome = Cert.Won { dv_bytes = runner.P.c_dv_bytes };
                  }
                else
                  match
                    List.find_opt
                      (fun (c : P.candidate) -> c.P.c_perm = perm)
                      cands
                  with
                  | Some c ->
                      {
                        Cert.perm;
                        outcome =
                          Cert.Solved
                            {
                              dv_bytes = c.P.c_dv_bytes;
                              tiling = Tiling.bindings c.P.c_tiling;
                            };
                      }
                  | None -> { Cert.perm; outcome = Cert.Infeasible })
              (Analytical.Permutations.candidates chain)
          in
          let forged_cert =
            {
              Cert.winner_perm = runner.P.c_perm;
              winner_tiling = Tiling.bindings runner.P.c_tiling;
              winner_dv_bytes = runner.P.c_dv_bytes;
              capacity_bytes = capacity;
              box;
              conditional = false;
              entries;
            }
          in
          let forged_plan =
            {
              P.perm = runner.P.c_perm;
              tiling = runner.P.c_tiling;
              movement =
                Movement.analyze chain ~perm:runner.P.c_perm
                  ~tiling:runner.P.c_tiling;
              capacity_bytes = capacity;
              candidates_evaluated = List.length cands;
              perms_pruned = 0;
              solver_evals = 0;
              certificate = Some forged_cert;
            }
          in
          let ds = recheck_nested ~inner:forged_plan () in
          check_true "CHIM041 raised" (has_error_code "CHIM041" ds);
          check_false "no binding complaint: the forgery is self-consistent"
            (has_code "CHIM036" ds));
      case "a tie witness ahead of the winner is rejected (CHIM039)"
        (fun () ->
          let chain, outer, genuine = Lazy.force nested in
          let capacity = nested_inner_cap in
          let max_tile a = Tiling.get outer.P.tiling a in
          let box = (cert_of genuine).Cert.box in
          let cands, _ =
            P.explore chain ~capacity_bytes:capacity ~max_tile ~prune:false
              ()
          in
          let best = List.hd cands in
          (* Crown the second-earliest exact minimum; the true first
             minimum becomes a Pruned entry whose claimed witness is
             the honestly re-priced box bound.  Whatever that bound is,
             the entry cannot be excluded from an enumeration position
             ahead of the winner — pruning a tie is only sound from
             behind the tie-break — so the checker must draw CHIM039.
             (The ranked view breaks DV ties earliest-first, so the
             next tie in rank order also enumerates after [best].) *)
          let tie =
            match
              List.find_opt
                (fun (c : P.candidate) ->
                  c.P.c_perm <> best.P.c_perm
                  && c.P.c_dv_bytes = best.P.c_dv_bytes)
                cands
            with
            | Some c -> c
            | None -> Alcotest.fail "no exact DV tie to forge with"
          in
          let claimed_lb =
            match
              Verify.Cert_check.witness_lower_bound chain
                ~perm:best.P.c_perm ~box
            with
            | Ok lb -> lb
            | Error e -> Alcotest.failf "no witness for the forgery: %s" e
          in
          let entries =
            List.map
              (fun perm ->
                if perm = tie.P.c_perm then
                  {
                    Cert.perm;
                    outcome = Cert.Won { dv_bytes = tie.P.c_dv_bytes };
                  }
                else if perm = best.P.c_perm then
                  {
                    Cert.perm;
                    outcome = Cert.Pruned { lb_dv_bytes = claimed_lb };
                  }
                else
                  match
                    List.find_opt
                      (fun (c : P.candidate) -> c.P.c_perm = perm)
                      cands
                  with
                  | Some c ->
                      {
                        Cert.perm;
                        outcome =
                          Cert.Solved
                            {
                              dv_bytes = c.P.c_dv_bytes;
                              tiling = Tiling.bindings c.P.c_tiling;
                            };
                      }
                  | None -> { Cert.perm; outcome = Cert.Infeasible })
              (Analytical.Permutations.candidates chain)
          in
          let forged_cert =
            {
              Cert.winner_perm = tie.P.c_perm;
              winner_tiling = Tiling.bindings tie.P.c_tiling;
              winner_dv_bytes = tie.P.c_dv_bytes;
              capacity_bytes = capacity;
              box;
              conditional = false;
              entries;
            }
          in
          let forged_plan =
            {
              P.perm = tie.P.c_perm;
              tiling = tie.P.c_tiling;
              movement =
                Movement.analyze chain ~perm:tie.P.c_perm
                  ~tiling:tie.P.c_tiling;
              capacity_bytes = capacity;
              candidates_evaluated = List.length cands;
              perms_pruned = 1;
              solver_evals = 0;
              certificate = Some forged_cert;
            }
          in
          let ds = recheck_nested ~inner:forged_plan () in
          check_true "CHIM039 raised" (has_error_code "CHIM039" ds);
          check_false "no winner complaint: the crowned tie is genuine"
            (has_error_code "CHIM037" ds));
      qcheck
        (QCheck.Test.make ~count:15
           ~name:"random tampers always draw their distinct code"
           (QCheck.make
              ~print:(fun i ->
                let name, _, _ = List.nth tampers i in
                name)
              (QCheck.Gen.int_bound (List.length tampers - 1)))
           (fun i ->
             apply_tamper (List.nth tampers i);
             true));
    ]

(* ----------------------------------------------------------------- *)
(* Service plumbing: verdicts, strict rejection on cache hits         *)
(* ----------------------------------------------------------------- *)

let tamper_entry f (entry : Service.Plan_cache.entry) =
  let tamper_lps lps =
    match List.rev lps with
    | [] -> Alcotest.fail "cached entry has no level plans"
    | (outer : P.level_plan) :: rest ->
        List.rev ({ outer with P.plan = with_cert outer.P.plan f } :: rest)
  in
  {
    entry with
    Service.Plan_cache.units =
      List.map
        (fun (up : Chimera.Compiler.unit_plan) ->
          {
            up with
            Chimera.Compiler.level_plans =
              tamper_lps up.Chimera.Compiler.level_plans;
          })
        entry.Service.Plan_cache.units;
  }

let service_tests =
  [
    case "strict verification rejects a tampered cached certificate"
      (fun () ->
        let chain = small_gemm_chain () in
        let metrics = Service.Metrics.create () in
        let cache = Service.Plan_cache.create ~metrics () in
        (match
           Service.Batch.compile ~cache ~metrics
             ~verify:Service.Batch.Verify_strict ~machine:cpu chain
         with
        | Ok r ->
            check_true "fresh plan certifies"
              (r.Service.Batch.certificate = Some "certified");
            check_true "verdict counted"
              (metrics.Service.Metrics.verify_certified_total >= 1)
        | Error e -> Alcotest.failf "fresh compile failed: %s"
                       (Service.Error.to_string e));
        let fp =
          Service.Fingerprint.of_request ~chain ~machine:cpu
            ~config:Chimera.Config.default
        in
        let entry =
          match Service.Plan_cache.find cache fp with
          | Some e -> e
          | None -> Alcotest.fail "plan was not cached"
        in
        Service.Plan_cache.add cache fp
          (tamper_entry
             (fun c ->
               { c with Cert.winner_dv_bytes = c.Cert.winner_dv_bytes *. 0.9 })
             entry);
        (match
           Service.Batch.compile ~cache ~metrics
             ~verify:Service.Batch.Verify_strict ~machine:cpu chain
         with
        | Error (Service.Error.Verify_failed _ as e) ->
            check_false "verify_failed is not retryable"
              (Service.Error.retryable e)
        | Error e ->
            Alcotest.failf "wrong error: %s" (Service.Error.to_string e)
        | Ok _ -> Alcotest.fail "tampered cache hit must be rejected");
        (* Warn mode serves the hit but brands the verdict. *)
        match
          Service.Batch.compile ~cache ~metrics
            ~verify:Service.Batch.Verify_warn ~machine:cpu chain
        with
        | Ok r ->
            check_true "warn-mode verdict is failed"
              (r.Service.Batch.certificate = Some "failed");
            check_true "cert error attached"
              (List.exists
                 (fun (d : D.t) -> Verify.Cert_check.error_code d.D.code)
                 r.Service.Batch.verification)
        | Error e ->
            Alcotest.failf "warn mode must answer: %s"
              (Service.Error.to_string e));
    case "heuristic plans are uncertified, not failed" (fun () ->
        let chain = small_gemm_chain () in
        let config =
          { Chimera.Config.default with Chimera.Config.use_cost_model = false }
        in
        match
          Service.Batch.compile ~config ~verify:Service.Batch.Verify_warn
            ~machine:cpu chain
        with
        | Ok r ->
            check_true "verdict is uncertified"
              (r.Service.Batch.certificate = Some "uncertified")
        | Error e ->
            Alcotest.failf "tuner path must answer: %s"
              (Service.Error.to_string e));
    case "verification off means no verdict" (fun () ->
        let chain = small_gemm_chain () in
        match Service.Batch.compile ~machine:cpu chain with
        | Ok r -> check_true "no verdict" (r.Service.Batch.certificate = None)
        | Error e ->
            Alcotest.failf "compile failed: %s" (Service.Error.to_string e));
  ]

(* ----------------------------------------------------------------- *)
(* Plan-cache version skew (v4 -> v5 migration)                       *)
(* ----------------------------------------------------------------- *)

let temp_counter = ref 0

let fresh_dir () =
  incr temp_counter;
  let d =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "chimera-certify-%d-%d" (Unix.getpid ()) !temp_counter)
  in
  if not (Sys.file_exists d) then Sys.mkdir d 0o755;
  d

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter
      (fun f -> Sys.remove (Filename.concat dir f))
      (Sys.readdir dir);
    Sys.rmdir dir
  end

let copy_file src dst =
  let ic = open_in_bin src in
  let data = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let oc = open_out_bin dst in
  output_string oc data;
  close_out oc

let dummy_entry =
  { Service.Plan_cache.rung = Service.Plan_cache.Heuristic;
    degrade_reason = None; units = [] }

let migration_tests =
  [
    case "a v4 cache file is migrated: counted, skipped, never corrupt"
      (fun () ->
        let dir = fresh_dir () in
        copy_file (fixture "plan_cache_v4.bin")
          (Service.Plan_cache.cache_file ~dir);
        let metrics = Service.Metrics.create () in
        let cache = Service.Plan_cache.create ~metrics () in
        (match Service.Plan_cache.load cache ~dir with
        | Service.Plan_cache.Loaded { entries = 0; skipped = 0; migrated = 2 }
          ->
            ()
        | Service.Plan_cache.Loaded { entries; skipped; migrated } ->
            Alcotest.failf
              "expected 0 loaded / 0 skipped / 2 migrated, got %d/%d/%d"
              entries skipped migrated
        | Service.Plan_cache.Absent | Service.Plan_cache.Discarded _ ->
            Alcotest.fail "expected a migrating load");
        check_int "migrations counted" 2
          metrics.Service.Metrics.cache_entries_migrated;
        check_int "never reported as corruption" 0
          metrics.Service.Metrics.cache_corrupt;
        check_int "never reported as frame skips" 0
          metrics.Service.Metrics.cache_entries_skipped;
        (* The next save rewrites the file at the current version. *)
        let fp =
          Service.Fingerprint.of_request ~chain:(small_gemm_chain ())
            ~machine:cpu ~config:Chimera.Config.default
        in
        Service.Plan_cache.add cache fp dummy_entry;
        Service.Plan_cache.save cache ~dir;
        let cache2 = Service.Plan_cache.create () in
        (match Service.Plan_cache.load cache2 ~dir with
        | Service.Plan_cache.Loaded { entries = 1; skipped = 0; migrated = 0 }
          ->
            ()
        | outcome ->
            Alcotest.failf "expected a clean v%d reload, got %d/%d/%d"
              Service.Plan_cache.file_version
              (Service.Plan_cache.loaded_count outcome)
              (Service.Plan_cache.skipped_count outcome)
              (Service.Plan_cache.migrated_count outcome));
        rm_rf dir);
    case "a v5 cache file loads as-is and serves a fresh compile's plan"
      (fun () ->
        (* One G1@cpu entry written by the current layout: any change to
           the marshalled entry types must bump [file_version], and
           this fixture is what notices when one does not. *)
        let dir = fresh_dir () in
        copy_file (fixture "plan_cache_v5.bin")
          (Service.Plan_cache.cache_file ~dir);
        let cache = Service.Plan_cache.create () in
        (match Service.Plan_cache.load cache ~dir with
        | Service.Plan_cache.Loaded { entries = 1; skipped = 0; migrated = 0 }
          ->
            ()
        | outcome ->
            Alcotest.failf "expected 1 loaded / 0 skipped / 0 migrated, got \
                            %d/%d/%d"
              (Service.Plan_cache.loaded_count outcome)
              (Service.Plan_cache.skipped_count outcome)
              (Service.Plan_cache.migrated_count outcome));
        let chain, machine =
          match
            Service.Request.resolve
              (Service.Request.make ~workload:"G1" ~arch:"cpu" ())
          with
          | Ok cm -> cm
          | Error e -> Alcotest.fail (Service.Error.to_string e)
        in
        let fresh_cache = Service.Plan_cache.create () in
        let compile cache =
          match
            Service.Batch.compile ~cache ~verify:Service.Batch.Verify_strict
              ~machine chain
          with
          | Ok r -> r
          | Error e -> Alcotest.fail (Service.Error.to_string e)
        in
        let hit = compile cache and fresh = compile fresh_cache in
        check_true "served from the file"
          (hit.Service.Batch.source = Service.Batch.Cache);
        check_true "freshly planned"
          (fresh.Service.Batch.source = Service.Batch.Compiled);
        check_true "same fingerprint"
          (hit.Service.Batch.fingerprint = fresh.Service.Batch.fingerprint);
        check_true "same entry"
          (Service.Plan_cache.find cache hit.Service.Batch.fingerprint
          = Service.Plan_cache.find fresh_cache fresh.Service.Batch.fingerprint);
        check_true "the hit certifies"
          (hit.Service.Batch.certificate = Some "certified");
        check_string "same kernels"
          (Chimera.Compiler.source fresh.Service.Batch.compiled)
          (Chimera.Compiler.source hit.Service.Batch.compiled);
        check_true "same estimate"
          (hit.Service.Batch.estimated_seconds
          = fresh.Service.Batch.estimated_seconds);
        rm_rf dir);
    case "a monolithic (v2) body migrates as one payload" (fun () ->
        let dir = fresh_dir () in
        let oc = open_out_bin (Service.Plan_cache.cache_file ~dir) in
        Printf.fprintf oc "CHIMERA-PLAN-CACHE 2 %d\nopaque-marshal-blob"
          Service.Fingerprint.scheme_version;
        close_out oc;
        let cache = Service.Plan_cache.create () in
        (match Service.Plan_cache.load cache ~dir with
        | Service.Plan_cache.Loaded { entries = 0; skipped = 0; migrated = 1 }
          ->
            ()
        | _ -> Alcotest.fail "expected one migrated payload");
        rm_rf dir);
    case "a future file version is still discarded" (fun () ->
        let dir = fresh_dir () in
        let oc = open_out_bin (Service.Plan_cache.cache_file ~dir) in
        Printf.fprintf oc "CHIMERA-PLAN-CACHE %d %d\n"
          (Service.Plan_cache.file_version + 1)
          Service.Fingerprint.scheme_version;
        close_out oc;
        let metrics = Service.Metrics.create () in
        let cache = Service.Plan_cache.create ~metrics () in
        (match Service.Plan_cache.load cache ~dir with
        | Service.Plan_cache.Discarded _ ->
            check_int "counted as corrupt" 1
              metrics.Service.Metrics.cache_corrupt
        | _ -> Alcotest.fail "a layout from the future cannot be trusted");
        rm_rf dir);
    case "new counters survive the metrics wire form" (fun () ->
        let m = Service.Metrics.create () in
        m.Service.Metrics.verify_certified_total <- 3;
        m.Service.Metrics.verify_conditional_total <- 2;
        m.Service.Metrics.verify_uncertifiable_total <- 1;
        m.Service.Metrics.cache_entries_migrated <- 7;
        match Service.Metrics.of_wire_json (Service.Metrics.to_wire_json m)
        with
        | Error e -> Alcotest.fail e
        | Ok m2 ->
            check_int "certified" 3
              m2.Service.Metrics.verify_certified_total;
            check_int "conditional" 2
              m2.Service.Metrics.verify_conditional_total;
            check_int "uncertifiable" 1
              m2.Service.Metrics.verify_uncertifiable_total;
            check_int "migrated" 7
              m2.Service.Metrics.cache_entries_migrated);
  ]

let suites =
  [
    ("certify.emission", emission_tests);
    ("certify.gapped_bound", gapped_bound_tests);
    ("certify.tampering", tamper_tests);
    ("certify.service", service_tests);
    ("certify.migration", migration_tests);
  ]
