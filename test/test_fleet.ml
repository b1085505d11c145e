(* The sharded compilation fleet: consistent-hash ring, traffic mixes,
   multi-process plan-cache safety, router admission control and
   restarts (against scripted shell workers), the lossless metrics
   wire format, and end-to-end runs against real serve workers. *)

open Helpers

(* cwd is _build/default/test under dune runtest, the project root
   under dune exec. *)
let cli_exe =
  List.find_opt Sys.file_exists
    [ "../bin/chimera_cli.exe"; "_build/default/bin/chimera_cli.exe" ]
  |> Option.value ~default:"../bin/chimera_cli.exe"

let fresh_dir =
  let n = ref 0 in
  fun () ->
    incr n;
    let dir =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "chimera-fleet-test-%d-%d" (Unix.getpid ()) !n)
    in
    Unix.mkdir dir 0o755;
    dir

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Sys.rmdir dir
  end

let contains_sub s sub =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

let jfield k j =
  match Util.Json.member k j with
  | Some v -> v
  | None -> Alcotest.failf "json lacks %S" k

(* ------------------------------------------------------------------ *)
(* Ring                                                                *)
(* ------------------------------------------------------------------ *)

let uniform_keys n = List.init n (Printf.sprintf "key-%d")

let ring_tests =
  [
    case "every worker's share stays near 1/N" (fun () ->
        let keys = uniform_keys 20_000 in
        List.iter
          (fun n ->
            let ring = Fleet.Ring.create (List.init n Fun.id) in
            let fair = 20_000.0 /. float_of_int n in
            List.iter
              (fun (w, c) ->
                let c = float_of_int c in
                if c > 1.35 *. fair || c < fair /. 1.35 then
                  Alcotest.failf
                    "worker %d of %d owns %.0f keys (fair %.0f): imbalance \
                     beyond 1.35x"
                    w n c fair)
              (Fleet.Ring.spread ring keys))
          [ 2; 4; 8 ]);
    case "spread accounts for every key" (fun () ->
        let keys = uniform_keys 5_000 in
        let ring = Fleet.Ring.create [ 0; 1; 2 ] in
        check_int "total" 5_000
          (List.fold_left (fun s (_, c) -> s + c) 0
             (Fleet.Ring.spread ring keys)));
    case "removing a worker moves only its keys (~1/N)" (fun () ->
        let keys = uniform_keys 10_000 in
        let ring = Fleet.Ring.create [ 0; 1; 2; 3; 4 ] in
        let smaller = Fleet.Ring.remove ring 2 in
        let moved = ref 0 in
        List.iter
          (fun key ->
            let before = Fleet.Ring.lookup ring key in
            let after = Fleet.Ring.lookup smaller key in
            if before <> after then begin
              incr moved;
              (* A key may only move because worker 2 owned it. *)
              check_int "moved key was owned by the removed worker" 2 before
            end)
          keys;
        let frac = float_of_int !moved /. 10_000.0 in
        check_true "about 1/5 of keys moved" (frac > 0.10 && frac < 0.35));
    case "deterministic across constructions" (fun () ->
        let a = Fleet.Ring.create [ 0; 1; 2; 3 ] in
        let b = Fleet.Ring.create [ 3; 2; 1; 0 ] in
        List.iter
          (fun key ->
            check_int "same owner" (Fleet.Ring.lookup a key)
              (Fleet.Ring.lookup b key))
          (uniform_keys 500));
    case "construction and removal validate their inputs" (fun () ->
        check_raises_invalid "empty" (fun () -> Fleet.Ring.create []);
        check_raises_invalid "duplicates" (fun () ->
            Fleet.Ring.create [ 1; 1 ]);
        check_raises_invalid "vnodes" (fun () ->
            Fleet.Ring.create ~vnodes:0 [ 0 ]);
        check_raises_invalid "remove last" (fun () ->
            Fleet.Ring.remove (Fleet.Ring.create [ 7 ]) 7));
  ]

(* ------------------------------------------------------------------ *)
(* Traffic                                                             *)
(* ------------------------------------------------------------------ *)

let traffic_tests =
  [
    case "all nine networks map onto resolvable named workloads" (fun () ->
        let mixes = Fleet.Traffic.all () in
        check_int "nine mixes" 9 (List.length mixes);
        List.iter
          (fun mix ->
            List.iter
              (fun (req, weight) ->
                check_true "positive weight" (weight > 0.0);
                match Service.Request.resolve req with
                | Ok _ -> ()
                | Error e ->
                    Alcotest.failf "%s: %s" (Fleet.Traffic.name mix)
                      (Service.Error.to_string e))
              (Fleet.Traffic.entries mix))
          mixes);
    case "mix requests reproduce the attention geometry exactly" (fun () ->
        List.iter
          (fun (net : Workloads.Networks.t) ->
            let a = Workloads.Networks.attention_config net in
            List.iter
              (fun ((req : Service.Request.t), _) ->
                match Workloads.Gemm_configs.by_name req.workload with
                | None -> Alcotest.failf "unknown workload %s" req.workload
                | Some g ->
                    check_int "m" a.Workloads.Gemm_configs.m
                      g.Workloads.Gemm_configs.m;
                    check_int "n" a.Workloads.Gemm_configs.n
                      g.Workloads.Gemm_configs.n;
                    check_int "k" a.Workloads.Gemm_configs.k
                      g.Workloads.Gemm_configs.k;
                    check_int "l" a.Workloads.Gemm_configs.l
                      g.Workloads.Gemm_configs.l;
                    check_int "batch = heads" a.Workloads.Gemm_configs.batch
                      (Option.value req.batch
                         ~default:g.Workloads.Gemm_configs.batch))
              (Fleet.Traffic.entries (Fleet.Traffic.of_network net)))
          Workloads.Networks.all);
    case "the union mix covers all nine networks" (fun () ->
        match Fleet.Traffic.by_name "all" with
        | None -> Alcotest.fail "no union mix"
        | Some mix ->
            check_int "two entries per network" 18
              (List.length (Fleet.Traffic.entries mix));
            check_true "prewarm set is deduplicated"
              (List.length (Fleet.Traffic.unique_requests mix) <= 18));
    case "sampling is deterministic in the seed" (fun () ->
        let mix = Option.get (Fleet.Traffic.by_name "all") in
        let draw seed =
          let prng = Util.Prng.create ~seed in
          List.init 50 (fun _ ->
              Service.Request.describe (Fleet.Traffic.sample prng mix))
        in
        check_true "same seed, same stream" (draw 7 = draw 7);
        check_true "different seed, different stream" (draw 7 <> draw 8));
    case "batch jitter keeps the batch within [base, base+N)" (fun () ->
        let mix = Fleet.Traffic.of_network Workloads.Networks.bert_base in
        let heads =
          (Workloads.Networks.attention_config Workloads.Networks.bert_base)
            .Workloads.Gemm_configs.batch
        in
        let prng = Util.Prng.create ~seed:1 in
        for _ = 1 to 100 do
          let req = Fleet.Traffic.sample ~batch_jitter:8 prng mix in
          match req.Service.Request.batch with
          | None -> Alcotest.fail "jittered request lost its batch"
          | Some b ->
              check_true "within the jitter window"
                (b >= heads && b < heads + 8)
        done);
    case "unknown mixes are refused" (fun () ->
        check_true "none" (Fleet.Traffic.by_name "Not-A-Network" = None));
  ]

(* ------------------------------------------------------------------ *)
(* Plan-cache multi-process safety                                     *)
(* ------------------------------------------------------------------ *)

let dummy_entry =
  {
    Service.Plan_cache.rung = Service.Plan_cache.Fused;
    degrade_reason = None;
    units = [];
  }

let gemm_fp m =
  let chain =
    Ir.Chain.batch_gemm_chain ~name:"fleet-fp" ~batch:2 ~m ~n:6 ~k:5 ~l:10 ()
  in
  Service.Fingerprint.of_request ~chain
    ~machine:(Option.get (Arch.Presets.by_name "cpu"))
    ~config:Chimera.Config.default

let cache_contention_tests =
  [
    case "a save merges with entries another process wrote" (fun () ->
        (* The regression: two caches over one directory, neither aware
           of the other.  Before the directory lock + read-merge-write,
           the second save clobbered the first's entries wholesale. *)
        let dir = fresh_dir () in
        Fun.protect
          ~finally:(fun () -> rm_rf dir)
          (fun () ->
            let a = Service.Plan_cache.create () in
            Service.Plan_cache.add a (gemm_fp 10) dummy_entry;
            Service.Plan_cache.save a ~dir;
            let b = Service.Plan_cache.create () in
            Service.Plan_cache.add b (gemm_fp 11) dummy_entry;
            Service.Plan_cache.save b ~dir;
            let c = Service.Plan_cache.create () in
            check_int "union survives" 2
              (Service.Plan_cache.loaded_count
                 (Service.Plan_cache.load c ~dir));
            check_true "first writer's entry kept"
              (Service.Plan_cache.mem c (gemm_fp 10));
            check_true "second writer's entry kept"
              (Service.Plan_cache.mem c (gemm_fp 11))));
    case "own entries win over stale disk entries" (fun () ->
        let dir = fresh_dir () in
        Fun.protect
          ~finally:(fun () -> rm_rf dir)
          (fun () ->
            let a = Service.Plan_cache.create () in
            Service.Plan_cache.add a (gemm_fp 10) dummy_entry;
            Service.Plan_cache.save a ~dir;
            let b = Service.Plan_cache.create () in
            Service.Plan_cache.add b (gemm_fp 10)
              {
                dummy_entry with
                Service.Plan_cache.rung = Service.Plan_cache.Heuristic;
              };
            Service.Plan_cache.save b ~dir;
            let c = Service.Plan_cache.create () in
            ignore (Service.Plan_cache.load c ~dir);
            match Service.Plan_cache.find c (gemm_fp 10) with
            | Some e ->
                check_true "memory won"
                  (e.Service.Plan_cache.rung = Service.Plan_cache.Heuristic)
            | None -> Alcotest.fail "entry lost"));
    case "a stale crashed tmp file is harmless" (fun () ->
        let dir = fresh_dir () in
        Fun.protect
          ~finally:(fun () -> rm_rf dir)
          (fun () ->
            let stale =
              Service.Plan_cache.cache_file ~dir ^ ".tmp.99999"
            in
            let oc = open_out stale in
            output_string oc "garbage from a crashed worker";
            close_out oc;
            let a = Service.Plan_cache.create () in
            Service.Plan_cache.add a (gemm_fp 10) dummy_entry;
            Service.Plan_cache.save a ~dir;
            let c = Service.Plan_cache.create () in
            check_int "saved cleanly" 1
              (Service.Plan_cache.loaded_count
                 (Service.Plan_cache.load c ~dir))));
    slow_case "concurrent batch processes lose no entries" (fun () ->
        let dir = fresh_dir () in
        let reqs_file tag workload =
          let path = Filename.temp_file ("chimera-fleet-" ^ tag) ".jsonl" in
          let oc = open_out path in
          for b = 1 to 6 do
            Printf.fprintf oc
              {|{"workload": "%s", "arch": "cpu", "batch": %d}|} workload b;
            output_char oc '\n'
          done;
          close_out oc;
          path
        in
        (* G2 and G7 differ in geometry (512x64x64x512 vs 208x64x64x208),
           so the twelve batch-overridden requests carry twelve distinct
           fingerprints — G2 vs G3 would collapse to six, since those
           differ only in head count, which the override replaces. *)
        let fa = reqs_file "a" "G2" and fb = reqs_file "b" "G7" in
        Fun.protect
          ~finally:(fun () ->
            rm_rf dir;
            Sys.remove fa;
            Sys.remove fb)
          (fun () ->
            let spawn f =
              Unix.create_process cli_exe
                [| cli_exe; "batch"; "-r"; f; "--cache-dir"; dir |]
                Unix.stdin
                (Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0o644)
                Unix.stderr
            in
            let pa = spawn fa and pb = spawn fb in
            let wait pid =
              match Unix.waitpid [] pid with
              | _, Unix.WEXITED 0 -> ()
              | _, _ -> Alcotest.fail "batch process failed"
            in
            wait pa;
            wait pb;
            let c = Service.Plan_cache.create () in
            check_int "all twelve plans on disk" 12
              (Service.Plan_cache.loaded_count
                 (Service.Plan_cache.load c ~dir))));
  ]

(* ------------------------------------------------------------------ *)
(* Router against scripted shell workers                               *)
(* ------------------------------------------------------------------ *)

let sh script = [| "/bin/sh"; "-c"; script |]

(* Answers every line with a fixed ok:true object. *)
let ok_worker = sh {|while read l; do echo '{"ok": true}'; done|}

(* Consumes nothing: every routed request stays queued forever. *)
let silent_worker = sh "exec sleep 1000"

(* Echoes each request line back verbatim (lets tests inspect exactly
   what the router forwarded). *)
let cat_worker = [| "/bin/cat" |]

(* Reads one line, then dies without answering. *)
let dying_worker = sh "read l; exit 7"

let g2 ?batch ?deadline_ms () =
  Service.Request.make ?batch ?deadline_ms ~workload:"G2" ~arch:"cpu" ()

let poll_until ?(timeout_s = 10.0) router n =
  let deadline = Unix.gettimeofday () +. timeout_s in
  let acc = ref [] in
  while List.length !acc < n && Unix.gettimeofday () < deadline do
    acc := !acc @ Fleet.Router.poll ~timeout_s:0.05 router
  done;
  if List.length !acc < n then
    Alcotest.failf "expected %d events, got %d" n (List.length !acc);
  !acc

let counter router name =
  match List.assoc_opt name (Fleet.Router.counters router) with
  | Some v -> v
  | None -> Alcotest.failf "no router counter %S" name

(* The exposition format's conformance rules, line by line: one HELP
   and one TYPE per metric name, every series line under a declared
   metric (histogram series under their base name), and each name in
   [present] declared. *)
let check_conformant ?(present = []) text =
  let lines = String.split_on_char '\n' text in
  let name_after prefix line =
    let p = String.length prefix in
    if String.length line > p && String.sub line 0 p = prefix then
      Some
        (List.hd
           (String.split_on_char ' '
              (String.sub line p (String.length line - p))))
    else None
  in
  let helps = Hashtbl.create 64 and types = Hashtbl.create 64 in
  List.iter
    (fun line ->
      (match name_after "# HELP " line with
      | Some name ->
          check_false ("one HELP for " ^ name) (Hashtbl.mem helps name);
          Hashtbl.add helps name ()
      | None -> ());
      match name_after "# TYPE " line with
      | Some name ->
          check_false ("one TYPE for " ^ name) (Hashtbl.mem types name);
          Hashtbl.add types name ()
      | None -> ())
    lines;
  check_int "HELP and TYPE pair up" (Hashtbl.length helps)
    (Hashtbl.length types);
  Hashtbl.iter
    (fun name () ->
      check_true ("TYPE for " ^ name) (Hashtbl.mem types name))
    helps;
  (* Every series line belongs to a declared metric (histogram
     series declare under their base name). *)
  let strip_suffix name =
    List.fold_left
      (fun acc suf ->
        let n = String.length name and s = String.length suf in
        if acc = None && n > s && String.sub name (n - s) s = suf
        then Some (String.sub name 0 (n - s))
        else acc)
      None
      [ "_bucket"; "_sum"; "_count" ]
  in
  List.iter
    (fun line ->
      if line <> "" && line.[0] <> '#' then begin
        let name =
          List.hd
            (String.split_on_char '{'
               (List.hd (String.split_on_char ' ' line)))
        in
        check_true ("declared: " ^ name)
          (Hashtbl.mem helps name
          ||
          match strip_suffix name with
          | Some base -> Hashtbl.mem helps base
          | None -> false)
      end)
    lines;
  List.iter
    (fun name -> check_true (name ^ " present") (Hashtbl.mem helps name))
    present

let with_router ?cfg ?slo cmds f =
  let router = Fleet.Router.create ?cfg ?slo cmds in
  Fun.protect ~finally:(fun () -> Fleet.Router.shutdown ~timeout_s:0.5 router) (fun () -> f router)

let router_tests =
  [
    case "the hard band sheds with the typed retryable error" (fun () ->
        let cfg =
          {
            Fleet.Router.default_config with
            Fleet.Router.queue_depth = 4;
            soft_depth = 100;
          }
        in
        with_router ~cfg [| silent_worker |] (fun router ->
            let outcomes =
              List.init 10 (fun b ->
                  Fleet.Router.submit router (g2 ~batch:(b + 1) ()))
            in
            let routed, answered =
              List.partition
                (function Fleet.Router.Routed _ -> true | _ -> false)
                outcomes
            in
            check_int "hard band admits queue_depth" 4 (List.length routed);
            check_int "the rest shed" 6 (List.length answered);
            List.iter
              (function
                | Fleet.Router.Answered json ->
                    check_true "typed overloaded"
                      (Util.Json.member "code" json
                      = Some (Util.Json.String "overloaded"));
                    check_true "retryable"
                      (Util.Json.member "retryable" json
                      = Some (Util.Json.Bool true))
                | Fleet.Router.Routed _ -> ())
              answered;
            check_int "shed counter" 6 (counter router "shed");
            check_int "routed counter" 4 (counter router "routed")));
    case "the soft band stamps deadlines onto deep queues" (fun () ->
        let cfg =
          {
            Fleet.Router.default_config with
            Fleet.Router.queue_depth = 10;
            soft_depth = 1;
            degrade_deadline_ms = 25.0;
          }
        in
        with_router ~cfg [| cat_worker |] (fun router ->
            (* Distinct batches so the hot cache cannot short-circuit. *)
            for b = 1 to 3 do
              match Fleet.Router.submit router (g2 ~batch:b ()) with
              | Fleet.Router.Routed _ -> ()
              | Fleet.Router.Answered _ -> Alcotest.fail "unexpected answer"
            done;
            let events = poll_until router 3 in
            let deadlines =
              List.filter_map
                (fun (ev : Fleet.Router.event) ->
                  match ev.outcome with
                  | Fleet.Router.Reply { json; _ } ->
                      Util.Json.member "deadline_ms" json
                  | Fleet.Router.Dropped _ -> None)
                events
            in
            (* First request saw depth 0 (< soft band); the next two got
               the injected 25ms budget. *)
            check_int "two stamped" 2 (List.length deadlines);
            List.iter
              (fun d -> check_true "25ms" (d = Util.Json.Float 25.0))
              deadlines;
            check_int "admission_degraded counter" 2
              (counter router "admission_degraded");
            (* A request carrying its own deadline keeps it. *)
            (match
               Fleet.Router.submit router (g2 ~batch:9 ~deadline_ms:400.0 ())
             with
            | Fleet.Router.Routed _ -> ()
            | Fleet.Router.Answered _ -> Alcotest.fail "unexpected answer");
            (match poll_until router 1 with
            | [ { outcome = Fleet.Router.Reply { json; _ }; _ } ] ->
                check_true "own deadline kept"
                  (Util.Json.member "deadline_ms" json
                  = Some (Util.Json.Float 400.0))
            | _ -> Alcotest.fail "expected one reply");
            check_int "still two stamped" 2
              (counter router "admission_degraded")));
    case "client ids ride through routing" (fun () ->
        with_router [| cat_worker |] (fun router ->
            (match
               Fleet.Router.submit ~id:(Util.Json.Int 42)
                 ~raw:
                   (Util.Json.Obj
                      [
                        ("workload", Util.Json.String "G2");
                        ("arch", Util.Json.String "cpu");
                      ])
                 router (g2 ())
             with
            | Fleet.Router.Routed _ -> ()
            | Fleet.Router.Answered _ -> Alcotest.fail "unexpected answer");
            match poll_until router 1 with
            | [ { outcome = Fleet.Router.Reply { json; _ }; client_id; _ } ] ->
                check_true "id forwarded on the wire"
                  (Util.Json.member "id" json = Some (Util.Json.Int 42));
                check_true "id remembered on the ticket"
                  (client_id = Some (Util.Json.Int 42))
            | _ -> Alcotest.fail "expected one reply"));
    case "a dead worker drops its queue with typed errors and respawns"
      (fun () ->
        with_router [| dying_worker |] (fun router ->
            let pid0 = Fleet.Router.worker_pid router 0 in
            for b = 1 to 2 do
              match Fleet.Router.submit router (g2 ~batch:b ()) with
              | Fleet.Router.Routed _ -> ()
              | Fleet.Router.Answered _ -> Alcotest.fail "unexpected answer"
            done;
            let events = poll_until router 2 in
            List.iter
              (fun (ev : Fleet.Router.event) ->
                match ev.outcome with
                | Fleet.Router.Dropped e ->
                    check_string "typed overloaded" "overloaded"
                      (Service.Error.code e);
                    check_true "retryable" (Service.Error.retryable e)
                | Fleet.Router.Reply _ ->
                    Alcotest.fail "a dead worker cannot reply")
              events;
            check_int "one restart" 1 (Fleet.Router.worker_restarts_of router 0);
            check_true "fresh pid" (Fleet.Router.worker_pid router 0 <> pid0);
            (* The fresh slot accepts traffic again. *)
            match Fleet.Router.submit router (g2 ~batch:3 ()) with
            | Fleet.Router.Routed _ -> ()
            | Fleet.Router.Answered _ -> Alcotest.fail "slot should be open"));
    case "hot replication answers repeats at the router" (fun () ->
        let cfg =
          { Fleet.Router.default_config with Fleet.Router.replicate_after = 2 }
        in
        with_router ~cfg [| ok_worker |] (fun router ->
            let submit_and_wait () =
              match Fleet.Router.submit router (g2 ()) with
              | Fleet.Router.Routed _ -> ignore (poll_until router 1)
              | Fleet.Router.Answered _ -> ()
            in
            submit_and_wait ();
            submit_and_wait ();
            (* Two ok answers for this fingerprint: the third never
               reaches a worker. *)
            match Fleet.Router.submit ~id:(Util.Json.Int 7) router (g2 ()) with
            | Fleet.Router.Answered json ->
                check_true "served from the hot tier"
                  (Util.Json.member "ok" json = Some (Util.Json.Bool true));
                check_true "id attached"
                  (Util.Json.member "id" json = Some (Util.Json.Int 7));
                check_int "hot_hits counter" 1 (counter router "hot_hits")
            | Fleet.Router.Routed _ -> Alcotest.fail "expected a hot answer"));
    case "health sweeps restart unresponsive workers after K" (fun () ->
        let cfg =
          {
            Fleet.Router.default_config with
            Fleet.Router.restart_after = 2;
            health_timeout_s = 0.2;
          }
        in
        with_router ~cfg [| silent_worker |] (fun router ->
            (match Fleet.Router.check_health router with
            | [ (0, `Unanswered) ] -> ()
            | _ -> Alcotest.fail "expected one unanswered probe");
            (match Fleet.Router.check_health router with
            | [ (0, `Restarted) ] -> ()
            | _ -> Alcotest.fail "expected the second strike to restart");
            check_int "restart recorded" 1
              (Fleet.Router.worker_restarts_of router 0)));
    case "a responsive worker passes health sweeps" (fun () ->
        with_router [| ok_worker |] (fun router ->
            match Fleet.Router.check_health router with
            | [ (0, `Ok json) ] ->
                check_true "ok"
                  (Util.Json.member "ok" json = Some (Util.Json.Bool true))
            | _ -> Alcotest.fail "expected an ok probe"));
    case "invalid requests are rejected at the front door" (fun () ->
        with_router [| silent_worker |] (fun router ->
            match
              Fleet.Router.submit router
                (Service.Request.make ~workload:"NOPE" ~arch:"cpu" ())
            with
            | Fleet.Router.Answered json ->
                check_true "typed invalid_request"
                  (Util.Json.member "code" json
                  = Some (Util.Json.String "invalid_request"));
                check_int "counted" 1 (counter router "rejected_invalid");
                check_int "nothing routed" 0 (counter router "routed")
            | Fleet.Router.Routed _ ->
                Alcotest.fail "invalid request must not reach a worker"));
    case "garbage worker output synthesizes a typed internal error"
      (fun () ->
        let garbage_worker = sh {|while read l; do echo 'not json'; done|} in
        with_router [| garbage_worker |] (fun router ->
            (match Fleet.Router.submit router (g2 ()) with
            | Fleet.Router.Routed _ -> ()
            | Fleet.Router.Answered _ -> Alcotest.fail "unexpected answer");
            (match poll_until router 1 with
            | [ { outcome = Fleet.Router.Dropped e; _ } ] ->
                check_string "typed internal" "internal" (Service.Error.code e)
            | _ -> Alcotest.fail "expected a dropped event");
            check_int "protocol error counted" 1
              (counter router "protocol_errors")));
    case "a late probe reply never answers a later sweep" (fun () ->
        (* Answers its first line after 0.5 s and every later one
           0.1 s after reading it, so a late reply and the reply after
           it arrive in separate reads: health probes with a marked
           reply, anything else with a valid (empty) stats wire
           object. *)
        let wire =
          Util.Json.to_string
            (Service.Metrics.to_wire_json (Service.Metrics.create ()))
        in
        let late_worker =
          sh
            (Printf.sprintf
               {|answer() {
                   case "$1" in
                     *health*) printf '%%s\n' '{"ok": true, "probe": "health"}' ;;
                     *) printf '%%s\n' '%s' ;;
                   esac
                 }
                 read l; sleep 0.5; answer "$l"
                 while read l; do sleep 0.1; answer "$l"; done|}
               wire)
        in
        with_router [| late_worker |] (fun router ->
            let _, per_worker = Fleet.Router.collect_stats ~timeout_s:0.1 router in
            check_int "the slow worker missed the scrape" 0
              (List.length per_worker);
            (match Fleet.Router.check_health router with
            | [ (0, `Ok json) ] ->
                check_true "the health reply, not the late stats reply"
                  (Util.Json.member "probe" json
                  = Some (Util.Json.String "health"))
            | _ -> Alcotest.fail "expected the worker's health reply");
            let _, per_worker = Fleet.Router.collect_stats router in
            check_int "the next scrape hears the worker" 1
              (List.length per_worker);
            check_int "no protocol error" 0 (counter router "protocol_errors")));
  ]

(* ------------------------------------------------------------------ *)
(* The fleet's JSONL front end                                         *)
(* ------------------------------------------------------------------ *)

(* Feed [text] to [loop] through a pipe and collect its answer lines. *)
let through_pipe text loop =
  let r, w = Unix.pipe ~cloexec:true () in
  check_int "input fits the pipe" (String.length text)
    (Unix.write_substring w text 0 (String.length text));
  Unix.close w;
  let path = Filename.temp_file "chimera-bridge" ".out" in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () ->
      close_out_noerr oc;
      Unix.close r;
      Sys.remove path)
    (fun () ->
      loop r oc;
      close_out oc;
      In_channel.with_open_text path In_channel.input_all
      |> String.split_on_char '\n'
      |> List.filter (fun l -> l <> ""))

let check_lines = Alcotest.(check (list string))

let parse_answer line =
  match Util.Json.parse line with
  | Ok j -> j
  | Error e -> Alcotest.failf "unparseable answer %S: %s" line e

let bridge router text =
  through_pipe text (fun input output ->
      Fleet.Bridge.run ~health_interval_s:0.0 ~input ~output router)

let bridge_tests =
  [
    case "the bridge answers every line, the unterminated last one too"
      (fun () ->
        let text =
          String.concat "\n"
            [
              {|{"workload": "G2", "arch": "cpu", "id": "r1"}|};
              {|{"workload": "G2", "arch": "cpu", "batch": 2, "id": "r2"}|};
              {|{"cmd": "health", "id": "h"}|};
              {|{"cmd": "nope", "id": "u"}|};
              {|{not json|};
              {|{"workload": "G2", "arch": "cpu", "batch": 3, "id": "last"}|};
            ]
        in
        (* cat workers echo the forwarded request, id included. *)
        with_router [| cat_worker; cat_worker |] (fun router ->
            let answers = List.map parse_answer (bridge router text) in
            check_int "one answer per line" 6 (List.length answers);
            let ids =
              List.filter_map
                (fun j ->
                  Option.bind (Util.Json.member "id" j) Util.Json.to_string_opt)
                answers
            in
            check_lines "every id answered"
              [ "h"; "last"; "r1"; "r2"; "u" ]
              (List.sort compare ids);
            let field_of id =
              List.find_map
                (fun j ->
                  if Util.Json.member "id" j = id then
                    Util.Json.member "field" j
                  else None)
                answers
            in
            check_true "malformed JSON names field json"
              (field_of None = Some (Util.Json.String "json"));
            check_true "unknown cmd names field cmd"
              (field_of (Some (Util.Json.String "u"))
              = Some (Util.Json.String "cmd"))));
    case "the bridge and a serve loop share the line envelope" (fun () ->
        let text =
          String.concat "\n"
            [
              {|{not json|};
              {|{"id": "u", "cmd": "nope"}|};
              {|{"id": "q", "cmd": "quit"}|};
              {|{"id": "after", "cmd": "quit"}|};
            ]
          ^ "\n"
        in
        let served =
          through_pipe text (fun input output ->
              Service.Serve.run (Unix.in_channel_of_descr input) output)
        in
        check_int "serve answers up to quit" 3 (List.length served);
        with_router [| ok_worker |] (fun router ->
            check_lines "identical answers" served (bridge router text)));
  ]

(* ------------------------------------------------------------------ *)
(* Metrics wire format and merge                                       *)
(* ------------------------------------------------------------------ *)

let wire_tests =
  [
    case "histogram wire roundtrip is lossless" (fun () ->
        let h = Obs.Histogram.create () in
        List.iter (Obs.Histogram.observe h) [ 0.004; 0.5; 3.0; 123.0; 9000.0 ];
        match Obs.Histogram.of_wire_json (Obs.Histogram.to_wire_json h) with
        | Error e -> Alcotest.fail e
        | Ok h' ->
            check_int "count" (Obs.Histogram.count h) (Obs.Histogram.count h');
            check_float ~eps:1e-9 "sum" (Obs.Histogram.sum_ms h)
              (Obs.Histogram.sum_ms h');
            check_float ~eps:1e-9 "max" (Obs.Histogram.max_ms h)
              (Obs.Histogram.max_ms h');
            List.iter
              (fun q ->
                check_float ~eps:1e-9
                  (Printf.sprintf "p%g" (q *. 100.0))
                  (Obs.Histogram.quantile h q)
                  (Obs.Histogram.quantile h' q))
              [ 0.5; 0.9; 0.99 ]);
    case "empty histogram roundtrips" (fun () ->
        let h = Obs.Histogram.create () in
        match Obs.Histogram.of_wire_json (Obs.Histogram.to_wire_json h) with
        | Error e -> Alcotest.fail e
        | Ok h' -> check_int "count" 0 (Obs.Histogram.count h'));
    case "histogram wire form rejects layout mismatches" (fun () ->
        check_true "not an object"
          (Result.is_error (Obs.Histogram.of_wire_json (Util.Json.Int 3)));
        let h = Obs.Histogram.create () in
        match Obs.Histogram.to_wire_json h with
        | Util.Json.Obj fields ->
            let broken =
              Util.Json.Obj
                (List.map
                   (fun (k, v) ->
                     if k = "counts" then
                       (k, Util.Json.List [ Util.Json.Int 1 ])
                     else (k, v))
                   fields)
            in
            check_true "bad counts length"
              (Result.is_error (Obs.Histogram.of_wire_json broken))
        | _ -> Alcotest.fail "wire form should be an object");
    case "metrics merge adds counters and pools histograms" (fun () ->
        let a = Service.Metrics.create () and b = Service.Metrics.create () in
        a.Service.Metrics.requests <- 3;
        b.Service.Metrics.requests <- 4;
        a.Service.Metrics.degraded <- 1;
        Obs.Histogram.observe a.Service.Metrics.solve_ms 10.0;
        Obs.Histogram.observe b.Service.Metrics.solve_ms 1000.0;
        let m = Service.Metrics.create () in
        Service.Metrics.merge ~into:m a;
        Service.Metrics.merge ~into:m b;
        check_int "requests add" 7 m.Service.Metrics.requests;
        check_int "degraded adds" 1 m.Service.Metrics.degraded;
        check_int "histogram pools" 2
          (Obs.Histogram.count m.Service.Metrics.solve_ms);
        (* The pooled p99 sees b's slow solve — an average of per-worker
           p99s could not. *)
        check_true "pooled tail"
          (Obs.Histogram.quantile m.Service.Metrics.solve_ms 0.99 > 500.0));
    case "metrics wire roundtrip preserves counters and histograms"
      (fun () ->
        let a = Service.Metrics.create () in
        a.Service.Metrics.requests <- 9;
        a.Service.Metrics.hits <- 4;
        a.Service.Metrics.deadline_exceeded <- 2;
        Obs.Histogram.observe a.Service.Metrics.cache_lookup_ms 0.02;
        match Service.Metrics.of_wire_json (Service.Metrics.to_wire_json a) with
        | Error e -> Alcotest.fail e
        | Ok a' ->
            check_int "requests" 9 a'.Service.Metrics.requests;
            check_int "hits" 4 a'.Service.Metrics.hits;
            check_int "deadline_exceeded" 2
              a'.Service.Metrics.deadline_exceeded;
            check_int "histogram count" 1
              (Obs.Histogram.count a'.Service.Metrics.cache_lookup_ms));
    case "prometheus labels reach every series" (fun () ->
        let m = Service.Metrics.create () in
        m.Service.Metrics.requests <- 1;
        Obs.Histogram.observe m.Service.Metrics.solve_ms 5.0;
        let text = Service.Metrics.to_prometheus ~labels:[ ("worker", "3") ] m in
        check_true "counter labelled"
          (contains_sub text {|chimera_requests{worker="3"}|});
        check_true "bucket carries both labels"
          (contains_sub text {|{worker="3",le="|}));
    case "loadgen classifies the wire taxonomy" (fun () ->
        let j s = Result.get_ok (Util.Json.parse s) in
        check_true "full"
          (Fleet.Loadgen.classify (j {|{"ok": true, "degraded": null}|})
          = `Ok);
        check_true "degraded"
          (Fleet.Loadgen.classify (j {|{"ok": true, "degraded": "split"}|})
          = `Degraded);
        check_true "shed"
          (Fleet.Loadgen.classify (j {|{"ok": false, "code": "overloaded"}|})
          = `Shed);
        check_true "rejected"
          (Fleet.Loadgen.classify
             (j {|{"ok": false, "code": "invalid_request"}|})
          = `Rejected);
        check_true "failed"
          (Fleet.Loadgen.classify (j {|{"ok": false, "code": "internal"}|})
          = `Failed));
  ]

(* ------------------------------------------------------------------ *)
(* End-to-end against real serve workers                               *)
(* ------------------------------------------------------------------ *)

let real_worker = [| cli_exe; "serve" |]

let e2e_tests =
  [
    slow_case "a two-worker fleet answers, health-checks and merges stats"
      (fun () ->
        with_router [| real_worker; real_worker |] (fun router ->
            let n = 4 in
            for b = 1 to n do
              match Fleet.Router.submit router (g2 ~batch:b ()) with
              | Fleet.Router.Routed _ -> ()
              | Fleet.Router.Answered json ->
                  Alcotest.failf "unexpected synchronous answer: %s"
                    (Util.Json.to_string json)
            done;
            let events = poll_until ~timeout_s:120.0 router n in
            let fps = Hashtbl.create 8 in
            List.iter
              (fun (ev : Fleet.Router.event) ->
                match ev.outcome with
                | Fleet.Router.Reply { json; _ } ->
                    check_true "ok"
                      (Util.Json.member "ok" json
                      = Some (Util.Json.Bool true));
                    Hashtbl.replace fps (jfield "fingerprint" json) ()
                | Fleet.Router.Dropped e ->
                    Alcotest.fail (Service.Error.to_string e))
              events;
            check_int "four distinct fingerprints" n (Hashtbl.length fps);
            (* Health: both workers answer with their own pids. *)
            let healths = Fleet.Router.check_health ~timeout_s:30.0 router in
            check_int "both probed" 2 (List.length healths);
            List.iter
              (fun (wid, st) ->
                match st with
                | `Ok json ->
                    check_true "pid matches"
                      (Util.Json.member "pid" json
                      = Some (Util.Json.Int (Fleet.Router.worker_pid router wid)))
                | _ -> Alcotest.failf "worker %d failed health" wid)
              healths;
            (* Stats: merged counters equal the sum over workers, and the
               merged histogram pools every solve. *)
            let merged, per_worker =
              Fleet.Router.collect_stats ~timeout_s:30.0 router
            in
            check_int "both reported" 2 (List.length per_worker);
            check_int "requests add up" n
              merged.Service.Metrics.requests;
            check_int "merged requests = sum of workers"
              (List.fold_left
                 (fun s (_, m) -> s + m.Service.Metrics.requests)
                 0 per_worker)
              merged.Service.Metrics.requests;
            check_int "merged solve histogram pools workers"
              (List.fold_left
                 (fun s (_, m) ->
                   s + Obs.Histogram.count m.Service.Metrics.solve_ms)
                 0 per_worker)
              (Obs.Histogram.count merged.Service.Metrics.solve_ms);
            (* The fleet exposition carries merged, per-worker and router
               series. *)
            let text = Fleet.Router.prometheus router ~merged ~per_worker in
            check_true "merged series"
              (contains_sub text "chimera_requests 4");
            check_true "worker label"
              (contains_sub text {|{worker="0"}|});
            check_true "router series"
              (contains_sub text "chimera_fleet_routed 4")));
    slow_case "prewarming fills the hot tier" (fun () ->
        with_router [| real_worker |] (fun router ->
            let mix =
              Fleet.Traffic.of_network Workloads.Networks.transformer_small
            in
            let reqs = Fleet.Traffic.unique_requests mix in
            check_int "everything warmed" (List.length reqs)
              (Fleet.Router.prewarm ~timeout_s:120.0 router reqs);
            (* The same requests now answer at the router, no worker
               round-trip. *)
            List.iter
              (fun req ->
                match Fleet.Router.submit router req with
                | Fleet.Router.Answered json ->
                    check_true "hot answer is a success"
                      (Util.Json.member "ok" json
                      = Some (Util.Json.Bool true))
                | Fleet.Router.Routed _ ->
                    Alcotest.fail "prewarmed request hit a worker")
              reqs;
            check_int "hot hits counted" (List.length reqs)
              (counter router "hot_hits")));
    slow_case "an open-loop run answers every request" (fun () ->
        with_router [| real_worker; real_worker |] (fun router ->
            let mix = Option.get (Fleet.Traffic.by_name "Bert-Base") in
            let r =
              Fleet.Loadgen.run ~seed:3 ~prewarm:true ~mix ~rps:25.0
                ~duration_s:1.5 router
            in
            check_true "offered some load" (r.Fleet.Loadgen.offered > 10);
            check_int "every request answered" r.Fleet.Loadgen.offered
              r.Fleet.Loadgen.answered;
            check_int "nothing unanswered" 0 r.Fleet.Loadgen.unanswered;
            check_int "nothing failed" 0 r.Fleet.Loadgen.failed;
            check_true "latency recorded"
              (Obs.Histogram.count r.Fleet.Loadgen.latency
              = r.Fleet.Loadgen.answered);
            (* Deterministic arrivals: the report's offered count depends
               only on the seed and clock, so just sanity-check JSON. *)
            match Fleet.Loadgen.report_json r with
            | Util.Json.Obj _ -> ()
            | _ -> Alcotest.fail "report_json should be an object"));
    slow_case "a generator running behind schedule charges the lateness"
      (fun () ->
        with_router [| real_worker |] (fun router ->
            let mix = Option.get (Fleet.Traffic.by_name "Bert-Base") in
            (* Prewarmed, every arrival is a synchronous hot-tier answer
               taking microseconds, but a million arrivals a second is
               far beyond what one loop can submit: the arrival loop
               stalls further behind its schedule with every request,
               and that wait must show in the client latency. *)
            let duration_s = 0.3 in
            let r =
              Fleet.Loadgen.run ~seed:3 ~prewarm:true ~mix ~rps:1e6
                ~duration_s router
            in
            check_int "all hot answers" r.Fleet.Loadgen.offered
              r.Fleet.Loadgen.answered;
            let behind_ms =
              1e3
              *. (duration_s -. (float_of_int r.Fleet.Loadgen.offered /. 1e6))
            in
            check_true
              (Printf.sprintf "max %.1f ms covers half the %.1f ms backlog"
                 (Obs.Histogram.max_ms r.Fleet.Loadgen.latency)
                 behind_ms)
              (Obs.Histogram.max_ms r.Fleet.Loadgen.latency
              >= behind_ms /. 2.0)));
    slow_case "a chaos run terminally answers every request" (fun () ->
        let cfg =
          {
            Fleet.Router.default_config with
            Fleet.Router.response_deadline_s = 3.0;
            restart_backoff_s = 0.05;
          }
        in
        with_router ~cfg [| real_worker; real_worker |] (fun router ->
            let mix = Option.get (Fleet.Traffic.by_name "Bert-Base") in
            let spec =
              {
                Fleet.Chaos.none with
                Fleet.Chaos.kill_gap = 20.0;
                slow_gap = 25.0;
                garbage_gap = 30.0;
              }
            in
            let chaos = Fleet.Chaos.create ~spec ~seed:5 ~workers:2 () in
            let r =
              Fleet.Loadgen.run ~seed:3 ~drain_timeout_s:60.0 ~chaos
                ~retries:3 ~mix ~rps:40.0 ~duration_s:2.0 router
            in
            (* The chaos invariant: every request reaches a terminal
               typed answer — recovered, shed, or given up — none stuck. *)
            check_int "nothing unanswered" 0 r.Fleet.Loadgen.unanswered;
            check_int "every request terminally answered"
              r.Fleet.Loadgen.offered r.Fleet.Loadgen.answered;
            check_true "faults actually fired"
              (List.assoc "kill" r.Fleet.Loadgen.chaos > 0);
            check_true "injections reached the router"
              (counter router "chaos_injected" > 0);
            (* The whole scrape a --prom-out file holds, chaos kinds and
               SLO gauges included, is conformant. *)
            check_conformant
              ~present:
                [
                  "chimera_solve_ms";
                  "chimera_fleet_routed";
                  "chimera_slo_burn_rate";
                  "chimera_loadgen_latency_ms";
                  "chimera_loadgen_offered";
                  "chimera_chaos_events";
                ]
              (Fleet.Loadgen.report_prometheus router r)));
  ]

(* ------------------------------------------------------------------ *)
(* Chaos schedules: deterministic fault streams                        *)
(* ------------------------------------------------------------------ *)

let collect_events ~spec ~seed ~workers n =
  let c = Fleet.Chaos.create ~spec ~seed ~workers () in
  let evs =
    List.concat_map (fun _ -> Fleet.Chaos.advance c) (List.init n Fun.id)
  in
  (c, evs)

let chaos_tests =
  [
    case "a schedule replays exactly from its seed" (fun () ->
        let spec = Fleet.Chaos.default_spec in
        let _, a = collect_events ~spec ~seed:7 ~workers:4 2000 in
        let _, b = collect_events ~spec ~seed:7 ~workers:4 2000 in
        check_true "some faults fired" (List.length a > 0);
        check_true "identical replay" (a = b);
        let _, c = collect_events ~spec ~seed:8 ~workers:4 2000 in
        check_true "a different seed is a different schedule" (a <> c));
    case "the virtual clock and fired counts reconcile" (fun () ->
        let spec = Fleet.Chaos.default_spec in
        let c, evs = collect_events ~spec ~seed:3 ~workers:2 1500 in
        check_int "one tick per advance" 1500 (Fleet.Chaos.tick c);
        let fired = Fleet.Chaos.fired c in
        check_int "ticks reported" 1500 (List.assoc "ticks" fired);
        let count k =
          List.length
            (List.filter
               (fun (ev : Fleet.Chaos.event) ->
                 Fleet.Chaos.kind_to_string ev.kind = k)
               evs)
        in
        List.iter
          (fun k -> check_int k (count k) (List.assoc k fired))
          [ "kill"; "hang"; "slow"; "garbage" ];
        List.iter
          (fun (ev : Fleet.Chaos.event) ->
            check_true "tick in range" (ev.tick >= 1 && ev.tick <= 1500);
            check_true "worker in range" (ev.worker >= 0 && ev.worker < 2))
          evs);
    case "a zero gap disables the kind" (fun () ->
        let spec = { Fleet.Chaos.none with Fleet.Chaos.kill_gap = 5.0 } in
        let _, evs = collect_events ~spec ~seed:1 ~workers:3 500 in
        check_true "kills fired" (List.length evs > 10);
        List.iter
          (fun (ev : Fleet.Chaos.event) ->
            check_true "only kills" (ev.Fleet.Chaos.kind = Fleet.Chaos.Kill))
          evs);
    case "the spec grammar round-trips" (fun () ->
        let spec = Fleet.Chaos.default_spec in
        (match Fleet.Chaos.parse_spec (Fleet.Chaos.spec_to_string spec) with
        | Ok s -> check_true "round trip" (s = spec)
        | Error e -> Alcotest.fail e);
        (match Fleet.Chaos.parse_spec "kill:40;torn:0.5" with
        | Ok s ->
            check_true "kill set" (s.Fleet.Chaos.kill_gap = 40.0);
            check_true "torn set" (s.Fleet.Chaos.torn_prob = 0.5);
            check_true "others off" (s.Fleet.Chaos.hang_gap = 0.0)
        | Error e -> Alcotest.fail e);
        check_true "unknown kinds are refused"
          (Result.is_error (Fleet.Chaos.parse_spec "fire:3"));
        check_true "non-numeric rates are refused"
          (Result.is_error (Fleet.Chaos.parse_spec "kill:often"));
        check_true "probabilities beyond 1 are refused"
          (Result.is_error (Fleet.Chaos.parse_spec "torn:1.5")));
    case "torn-save failpoints derive per worker" (fun () ->
        let spec = Fleet.Chaos.default_spec in
        check_true "off when torn:0"
          (Fleet.Chaos.torn_failpoint Fleet.Chaos.none ~seed:1 ~worker:0
          = None);
        match
          ( Fleet.Chaos.torn_failpoint spec ~seed:1 ~worker:0,
            Fleet.Chaos.torn_failpoint spec ~seed:1 ~worker:0,
            Fleet.Chaos.torn_failpoint spec ~seed:1 ~worker:1 )
        with
        | Some a, Some a', Some b ->
            check_string "deterministic" a a';
            check_true "distinct workers, distinct streams" (a <> b);
            check_true "targets the torn failpoint"
              (contains_sub a "cache.save.torn=prob:")
        | _ -> Alcotest.fail "expected failpoint specs");
  ]

(* ------------------------------------------------------------------ *)
(* Supervisor: spawn failures, restarts, backoff, the breaker, and     *)
(* injected faults                                                     *)
(* ------------------------------------------------------------------ *)

let ev ?(tick = 1) worker kind = { Fleet.Chaos.tick; worker; kind }

(* Pump the router until [pred] holds, failing after [timeout_s]. *)
let wait_for ?(timeout_s = 10.0) ~what router pred =
  let deadline = Unix.gettimeofday () +. timeout_s in
  let rec go () =
    if not (pred ()) then
      if Unix.gettimeofday () > deadline then
        Alcotest.failf "timed out waiting for %s" what
      else begin
        ignore (Fleet.Router.poll ~timeout_s:0.05 router);
        go ()
      end
  in
  go ()

let supervisor_tests =
  [
    case "a missing worker binary is a typed spawn failure" (fun () ->
        match Fleet.Router.create [| [| "/no/such/chimera-worker" |] |] with
        | router ->
            Fleet.Router.shutdown ~timeout_s:0.5 router;
            Alcotest.fail "expected Spawn_failed"
        | exception Fleet.Worker.Spawn_failed { cmd; reason } ->
            check_string "names the binary" "/no/such/chimera-worker" cmd;
            check_true "carries a reason" (String.length reason > 0));
    case "a worker dying at startup is a spawn failure, not a restart loop"
      (fun () ->
        let cfg =
          { Fleet.Router.default_config with Fleet.Router.spawn_grace_s = 0.5 }
        in
        match Fleet.Router.create ~cfg [| sh "exit 3" |] with
        | router ->
            Fleet.Router.shutdown ~timeout_s:0.5 router;
            Alcotest.fail "expected Spawn_failed"
        | exception Fleet.Worker.Spawn_failed { reason; _ } ->
            check_true "reports the early exit"
              (contains_sub reason "exit"));
    case "a hung worker's queued request is answered at the deadline"
      (fun () ->
        let cfg =
          {
            Fleet.Router.default_config with
            Fleet.Router.response_deadline_s = 0.3;
          }
        in
        with_router ~cfg [| ok_worker |] (fun router ->
            Fleet.Router.inject router (ev 0 Fleet.Chaos.Hang);
            check_int "injection counted" 1 (counter router "chaos_injected");
            (match Fleet.Router.submit router (g2 ()) with
            | Fleet.Router.Routed _ -> ()
            | Fleet.Router.Answered _ -> Alcotest.fail "unexpected answer");
            (match poll_until router 1 with
            | [ { outcome = Fleet.Router.Dropped e; _ } ] ->
                check_string "typed deadline_exceeded" "deadline_exceeded"
                  (Service.Error.code e);
                check_true "retryable" (Service.Error.retryable e)
            | _ -> Alcotest.fail "expected one dropped event");
            check_int "deadline drop counted" 1
              (counter router "deadline_drops");
            check_int "the worker was restarted" 1
              (Fleet.Router.worker_restarts_of router 0);
            (* The respawned worker serves again. *)
            match Fleet.Router.submit router (g2 ~batch:2 ()) with
            | Fleet.Router.Routed _ -> ignore (poll_until router 1)
            | Fleet.Router.Answered _ -> Alcotest.fail "slot should be open"));
    case "a slow injection stalls the worker but loses nothing" (fun () ->
        with_router [| ok_worker |] (fun router ->
            Fleet.Router.inject router
              (ev 0 (Fleet.Chaos.Slow { stall_ms = 150.0 }));
            (match Fleet.Router.submit router (g2 ()) with
            | Fleet.Router.Routed _ -> ()
            | Fleet.Router.Answered _ -> Alcotest.fail "unexpected answer");
            (match poll_until router 1 with
            | [ { outcome = Fleet.Router.Reply { json; _ }; _ } ] ->
                check_true "answered after the stall"
                  (Util.Json.member "ok" json = Some (Util.Json.Bool true))
            | _ -> Alcotest.fail "expected a reply");
            check_int "no restart" 0
              (Fleet.Router.worker_restarts_of router 0)));
    case "garbage on the wire restarts the worker with typed answers"
      (fun () ->
        with_router [| silent_worker |] (fun router ->
            (match Fleet.Router.submit router (g2 ()) with
            | Fleet.Router.Routed _ -> ()
            | Fleet.Router.Answered _ -> Alcotest.fail "unexpected answer");
            Fleet.Router.inject router (ev 0 Fleet.Chaos.Garbage);
            (match poll_until router 1 with
            | [ { outcome = Fleet.Router.Dropped e; _ } ] ->
                check_string "typed internal" "internal" (Service.Error.code e)
            | _ -> Alcotest.fail "expected one dropped event");
            check_int "protocol error counted" 1
              (counter router "protocol_errors");
            check_int "the worker was restarted" 1
              (Fleet.Router.worker_restarts_of router 0)));
    case "repeated kills strike out through the breaker and leave the ring"
      (fun () ->
        let cfg =
          {
            Fleet.Router.default_config with
            Fleet.Router.breaker_restarts = 2;
            breaker_window_s = 60.0;
            restart_backoff_s = 0.02;
          }
        in
        with_router ~cfg [| ok_worker; ok_worker |] (fun router ->
            Fleet.Router.inject router (ev 1 Fleet.Chaos.Kill);
            wait_for ~what:"first respawn" router (fun () ->
                Fleet.Router.worker_restarts_of router 1 = 1);
            Fleet.Router.inject router (ev 1 Fleet.Chaos.Kill);
            wait_for ~what:"the breaker" router (fun () ->
                List.exists
                  (fun (ws : Fleet.Router.worker_state) ->
                    ws.Fleet.Router.ws_id = 1
                    && ws.Fleet.Router.ws_permanently_down)
                  (Fleet.Router.worker_states router));
            check_int "taken down once" 1 (counter router "workers_down");
            (* Traffic keeps flowing through the survivor. *)
            let n = 6 in
            for b = 1 to n do
              match Fleet.Router.submit router (g2 ~batch:b ()) with
              | Fleet.Router.Routed _ -> ()
              | Fleet.Router.Answered json ->
                  Alcotest.failf "shed after ring removal: %s"
                    (Util.Json.to_string json)
            done;
            List.iter
              (fun (evt : Fleet.Router.event) ->
                match evt.outcome with
                | Fleet.Router.Reply { json; _ } ->
                    check_true "survivor answers"
                      (Util.Json.member "ok" json
                      = Some (Util.Json.Bool true))
                | Fleet.Router.Dropped e ->
                    Alcotest.fail (Service.Error.to_string e))
              (poll_until router n);
            (* The stricken worker never comes back. *)
            check_int "restarts stopped" 1
              (Fleet.Router.worker_restarts_of router 1)));
    case "worker lifecycle states reach stats and prometheus" (fun () ->
        with_router [| ok_worker |] (fun router ->
            (match Fleet.Router.worker_states router with
            | [ ws ] ->
                check_int "id" 0 ws.Fleet.Router.ws_id;
                check_true "alive" ws.Fleet.Router.ws_alive;
                check_true "not down"
                  (not ws.Fleet.Router.ws_permanently_down);
                check_int "no restarts" 0 ws.Fleet.Router.ws_restarts;
                (match Fleet.Router.worker_state_json ws with
                | Util.Json.Obj fields ->
                    List.iter
                      (fun k ->
                        check_true k (List.mem_assoc k fields))
                      [
                        "worker"; "pid"; "alive"; "permanently_down";
                        "restarts"; "consecutive_health_failures"; "depth";
                      ]
                | _ -> Alcotest.fail "worker state should be an object")
            | l ->
                Alcotest.failf "expected one worker state, got %d"
                  (List.length l));
            let merged = Service.Metrics.create () in
            let text =
              Fleet.Router.prometheus router ~merged ~per_worker:[]
            in
            check_true "restart series"
              (contains_sub text
                 {|chimera_fleet_worker_restarts_total{worker="0"} 0|});
            check_true "up gauge"
              (contains_sub text {|chimera_fleet_worker_up{worker="0"} 1|});
            check_true "down gauge"
              (contains_sub text
                 {|chimera_fleet_worker_permanently_down{worker="0"} 0|})));
  ]

(* ------------------------------------------------------------------ *)
(* Ring stability across death/respawn cycles                          *)
(* ------------------------------------------------------------------ *)

let stability_tests =
  [
    case "assignment survives repeated death and respawn cycles" (fun () ->
        let n = 4 in
        let keys = uniform_keys 4000 in
        let fresh = Fleet.Ring.create (List.init n Fun.id) in
        let baseline = List.map (Fleet.Ring.lookup fresh) keys in
        (* Each round a worker dies (leaves the ring) and respawns
           under the same id (the ring is rebuilt over the full set,
           exactly what the router does across a respawn).  Whatever
           the history, the rebuilt ring must equal a fresh one. *)
        let ring = ref fresh in
        for round = 0 to 9 do
          let victim = round mod n in
          let removed = Fleet.Ring.remove !ring victim in
          (* While the victim is out, only ~1/N of keys remap, and none
             of them to the dead worker. *)
          let remapped = ref 0 in
          List.iter2
            (fun key before ->
              let after = Fleet.Ring.lookup removed key in
              check_true "never the dead worker" (after <> victim);
              if before <> victim then
                check_int "survivors keep their keys" before after
              else incr remapped)
            keys baseline;
          let frac = float_of_int !remapped /. 4000.0 in
          check_true "remapped share near 1/N" (frac > 0.1 && frac < 0.45);
          ring := Fleet.Ring.create (Fleet.Ring.workers removed @ [ victim ])
        done;
        check_true "ten cycles later the assignment is the fresh one"
          (List.map (Fleet.Ring.lookup !ring) keys = baseline));
  ]

(* ------------------------------------------------------------------ *)
(* Distributed tracing through the router                              *)
(* ------------------------------------------------------------------ *)

let with_traced_router ?cfg cmds f =
  let router = Fleet.Router.create ?cfg ~tracing:true cmds in
  Fun.protect
    ~finally:(fun () -> Fleet.Router.shutdown ~timeout_s:0.5 router)
    (fun () -> f router)

(* A client-side trace with one open "client.request" span, plus its
   traceparent — what the load generator stamps on each request. *)
let client_span () =
  let tr = Obs.Trace.make ~label:"client" () in
  let os =
    Option.get (Obs.Trace.open_span (Obs.Trace.ctx tr) "client.request")
  in
  let tp = Option.get (Obs.Trace.to_wire (Obs.Trace.open_ctx os)) in
  (tr, os, tp)

let tracing_tests =
  [
    slow_case "a traced request runs the whole fleet pipeline" (fun () ->
        with_traced_router [| real_worker |] (fun router ->
            check_true "tracing on" (Fleet.Router.tracing_enabled router);
            let tr, os, tp = client_span () in
            let req =
              Service.Request.make ~traceparent:tp ~workload:"G2" ~arch:"cpu"
                ()
            in
            (match Fleet.Router.submit router req with
            | Fleet.Router.Routed _ -> ()
            | Fleet.Router.Answered j ->
                Alcotest.failf "answered synchronously: %s"
                  (Util.Json.to_string j));
            (match poll_until ~timeout_s:120.0 router 1 with
            | [ { Fleet.Router.outcome = Fleet.Router.Reply { json; _ }; _ } ]
              ->
                check_true "answered ok"
                  (jfield "ok" json = Util.Json.Bool true)
            | _ -> Alcotest.fail "expected one reply");
            Obs.Trace.close_span os;
            ignore (Fleet.Router.note_client_trace router tr);
            (match Fleet.Router.sampler_counters router with
            | Some counters ->
                check_true "the trace was judged"
                  (List.assoc "traces_seen" counters = 1);
                check_true "judged exactly once"
                  (List.assoc "flagged" counters
                   + List.assoc "sampled_retained" counters
                   + List.assoc "passed" counters
                  = 1)
            | None -> Alcotest.fail "no sampler with tracing on");
            (match Fleet.Router.collector_counters router with
            | Some counters ->
                check_int "no ship payload was rejected" 0
                  (List.assoc "shipped_rejected" counters)
            | None -> Alcotest.fail "no collector with tracing on");
            match Fleet.Router.flight_json router with
            | Some (Util.Json.Obj fields) ->
                check_true "a chrome trace"
                  (List.mem_assoc "traceEvents" fields);
                check_true "with sampler counters"
                  (List.mem_assoc "sampler" fields)
            | Some _ -> Alcotest.fail "flight dump is not an object"
            | None -> Alcotest.fail "no flight dump with tracing on"));
    case "shed requests are flagged, retained, and join the client span"
      (fun () ->
        let cfg =
          {
            Fleet.Router.default_config with
            Fleet.Router.queue_depth = 2;
            soft_depth = 100;
          }
        in
        with_traced_router ~cfg [| silent_worker |] (fun router ->
            (* The worker consumes nothing, so the hard band fills and
               later submissions shed synchronously. *)
            let shed_clients = ref [] in
            for b = 1 to 6 do
              let tr, os, tp = client_span () in
              let req =
                Service.Request.make ~traceparent:tp ~batch:b ~workload:"G2"
                  ~arch:"cpu" ()
              in
              match Fleet.Router.submit router req with
              | Fleet.Router.Routed _ -> Obs.Trace.close_span os
              | Fleet.Router.Answered json ->
                  check_true "the shed answer is the typed overload error"
                    (jfield "code" json = Util.Json.String "overloaded");
                  Obs.Trace.close_span ~err:true os;
                  shed_clients := tr :: !shed_clients
            done;
            check_true "something shed" (!shed_clients <> []);
            List.iter
              (fun tr ->
                check_true "the shed trace was retained, client piece merged"
                  (Fleet.Router.note_client_trace router tr))
              !shed_clients;
            check_false "an unknown trace finds nothing to join"
              (Fleet.Router.note_client_trace router (Obs.Trace.make ()));
            (match Fleet.Router.sampler_counters router with
            | Some counters ->
                let n_shed = List.length !shed_clients in
                check_int "every shed trace flagged" n_shed
                  (List.assoc "flagged" counters);
                check_int "and retained" n_shed
                  (List.assoc "flagged_retained" counters);
                check_int "none evicted" 0
                  (List.assoc "flagged_evicted" counters)
            | None -> Alcotest.fail "no sampler with tracing on");
            match Fleet.Router.flight_json router with
            | Some json ->
                let s = Util.Json.to_string json in
                check_true "client spans in the flight dump"
                  (contains_sub s "client.request");
                check_true "router spans in the flight dump"
                  (contains_sub s "fleet.request")
            | None -> Alcotest.fail "no flight dump with tracing on"));
    case "tracing off costs nothing and exposes nothing" (fun () ->
        with_router [| ok_worker |] (fun router ->
            check_false "off by default" (Fleet.Router.tracing_enabled router);
            check_true "no flight dump" (Fleet.Router.flight_json router = None);
            check_true "no sampler" (Fleet.Router.sampler_counters router = None);
            check_true "no collector"
              (Fleet.Router.collector_counters router = None);
            check_int "nothing to drain" 0 (Fleet.Router.drain_spans router);
            check_false "client pieces are dropped"
              (Fleet.Router.note_client_trace router (Obs.Trace.make ()))));
    case "the fleet scrape is a conformant exposition" (fun () ->
        with_router [| ok_worker; ok_worker |] (fun router ->
            let merged = Service.Metrics.create () in
            let per_worker =
              [ (0, Service.Metrics.create ()); (1, Service.Metrics.create ()) ]
            in
            check_conformant
              ~present:
                [
                  "chimera_fleet_workers";
                  "chimera_fleet_worker_up";
                  "chimera_slo_target";
                  "chimera_slo_burn_rate";
                ]
              (Fleet.Router.prometheus router ~merged ~per_worker)));
    case "the fleet scrape matches the golden text" (fun () ->
        with_router ~slo:(Golden.slo ()) [| ok_worker; ok_worker |]
          (fun router ->
            let merged = Golden.merged () in
            let per_worker = [ (0, Golden.worker 0); (1, Golden.worker 1) ] in
            check_string "router exposition"
              (Service.Metrics.to_prometheus_many
                 (([], merged)
                 :: List.map
                      (fun (id, m) -> ([ ("worker", string_of_int id) ], m))
                      per_worker)
              ^ read_fixture "fleet_golden.prom")
              (Fleet.Router.prometheus router ~merged ~per_worker)));
    case "loadgen and worker histograms render bounds and sums alike"
      (fun () ->
        with_router [| ok_worker |] (fun router ->
            let latency = Obs.Histogram.create () in
            Obs.Histogram.observe latency 1234567.891;
            let r =
              {
                Fleet.Loadgen.mix = "fixed";
                target_rps = 1.0;
                duration_s = 1.0;
                wall_s = 1.0;
                offered = 1;
                answered = 1;
                ok = 1;
                degraded = 0;
                shed = 0;
                rejected = 0;
                failed = 0;
                unanswered = 0;
                retried = 0;
                recovered = 0;
                gave_up = 0;
                latency;
                merged = Service.Metrics.create ();
                per_worker = [];
                router = [];
                chaos = [];
                sampler = None;
                slo = Util.Json.Null;
                slo_text = "";
              }
            in
            let text = Fleet.Loadgen.report_prometheus router r in
            let les metric =
              let prefix = metric ^ "_bucket{le=\"" in
              let p = String.length prefix in
              List.filter_map
                (fun line ->
                  if String.length line > p && String.sub line 0 p = prefix
                  then
                    Some
                      (List.hd
                         (String.split_on_char '"'
                            (String.sub line p (String.length line - p))))
                  else None)
                (String.split_on_char '\n' text)
            in
            check_true "buckets rendered"
              (List.length (les "chimera_loadgen_latency_ms") > 2);
            Alcotest.(check (list string))
              "one le label set per scrape"
              (les "chimera_solve_ms")
              (les "chimera_loadgen_latency_ms");
            check_true "sum keeps every digit"
              (contains_sub text
                 "\nchimera_loadgen_latency_ms_sum 1234567.891000\n")));
  ]

let suites =
  [
    ("fleet.ring", ring_tests);
    ("fleet.traffic", traffic_tests);
    ("fleet.cache_contention", cache_contention_tests);
    ("fleet.router", router_tests);
    ("fleet.bridge", bridge_tests);
    ("fleet.chaos", chaos_tests);
    ("fleet.supervisor", supervisor_tests);
    ("fleet.stability", stability_tests);
    ("fleet.wire", wire_tests);
    ("fleet.tracing", tracing_tests);
    ("fleet.e2e", e2e_tests);
  ]
