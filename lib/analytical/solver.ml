type solution = { tiling : Tiling.t; movement : Movement.result }

type engine = [ `Batched | `Reference ]

type verdict =
  | Feasible of solution
  | Infeasible
  | Pruned of { lb_dv : float }

let candidate_sizes extent =
  if extent <= 0 then invalid_arg "Solver.candidate_sizes: bad extent";
  let rec pows acc p =
    if p > extent then acc else pows (p :: acc) (p * 2)
  in
  let rec halvings acc v =
    if v < 1 then acc else halvings (v :: acc) (if v = 1 then 0 else (v + 1) / 2)
  in
  List.sort_uniq compare (pows [] 1 @ halvings [] extent)

let better a b =
  a.movement.Movement.dv_bytes < b.movement.Movement.dv_bytes
  || a.movement.Movement.dv_bytes = b.movement.Movement.dv_bytes
     && Tiling.total_blocks a.tiling < Tiling.total_blocks b.tiling

(* The search state is a plain tile-size vector indexed by chain-axis
   position; (DV, total blocks) rides along so the [better] order can be
   applied without rebuilding a Tiling.  [blocks] replays
   [Tiling.total_blocks]'s fold (same axis order, same float ops) so
   tie-breaks agree bit-for-bit with the record-based path.

   Two engines share the search logic:

   - [`Batched] (default): the descent submits each axis sweep's whole
     candidate frontier to {!Movement.batch_sweep} — one structure-of-
     arrays pass with per-axis memoization and a per-lane DV cutoff at
     the incumbent — then replays the sequential adoption rule over the
     lanes.  Within one axis sweep every candidate differs from the
     evolving point only in that axis's coordinate, so the lane vectors
     are exactly the vectors the single-candidate path evaluates, and
     the replay (including the skip of the current value and the
     evolving (dv, blocks) incumbent) lands on the identical final
     tiling.  Lanes are bit-exact with [eval_array], so so is the DV.
   - [`Reference]: a full Algorithm-1 run per candidate, one at a
     time — the oracle the equivalence suite compares against. *)

let solve_impl chain ~perm ~capacity_bytes ?(full_tile = []) ?max_tile
    ?min_tile ?(extra_starts = []) ?(boundary_grow = true)
    ?(uniform_start = true) ?(check = fun () -> ()) ?(engine = `Batched)
    ?prune_above ?(enum_index = max_int) ?template () =
  Movement.validate_perm chain perm;
  check ();
  let axes_l = chain.Ir.Chain.axes in
  let names = Array.of_list (List.map (fun (a : Ir.Axis.t) -> a.name) axes_l) in
  let extents =
    Array.of_list (List.map (fun (a : Ir.Axis.t) -> a.extent) axes_l)
  in
  let n = Array.length names in
  let idx name =
    let rec go i =
      if i >= n then invalid_arg (Printf.sprintf "Solver: unknown axis %s" name)
      else if names.(i) = name then i
      else go (i + 1)
    in
    go 0
  in
  let evals = ref 0 in
  let evaluator =
    lazy
      (match template with
      | Some t -> Movement.compile_with t ~perm
      | None -> Movement.compile chain ~perm)
  in
  let batch = lazy (Movement.compile_batch (Lazy.force evaluator)) in
  let eval =
    match engine with
    | `Batched ->
        let ev = Lazy.force evaluator in
        fun tiles ->
          incr evals;
          Movement.eval_array ev tiles
    | `Reference ->
        (* The pre-compilation reference path: a full Algorithm-1 run per
           evaluation.  Kept selectable so benches can measure the
           speedup and tests can cross-check plan equivalence.  The
           axis-table template is hoisted: each evaluation rebinds it
           instead of re-walking the chain. *)
        let template = Tiling.ones chain in
        fun tiles ->
          incr evals;
          let assoc =
            Array.to_list (Array.mapi (fun i v -> (names.(i), v)) tiles)
          in
          let m =
            Movement.analyze chain ~perm
              ~tiling:(Tiling.rebind template assoc)
          in
          (m.Movement.dv_bytes, m.Movement.mu_bytes)
  in
  let blocks_of tiles =
    let acc = ref 1.0 in
    for i = 0 to n - 1 do
      acc := !acc *. float_of_int (Util.Ints.ceil_div extents.(i) tiles.(i))
    done;
    !acc
  in
  let fused = Array.of_list (List.map idx (Movement.fused_axes chain)) in
  let is_full_tile = Array.make n false in
  List.iter (fun a -> is_full_tile.(idx a) <- true) full_tile;
  let bound = Array.make n 1 in
  Array.iter
    (fun i ->
      bound.(i) <-
        (match max_tile with
        | None -> extents.(i)
        | Some f -> Util.Ints.clamp ~lo:1 ~hi:extents.(i) (f names.(i))))
    fused;
  let finish tiles =
    let tiling =
      Tiling.make chain
        (Array.to_list (Array.mapi (fun i v -> (names.(i), v)) tiles))
    in
    Feasible { tiling; movement = Movement.analyze chain ~perm ~tiling }
  in
  (* Branch-and-bound gate: a certified DV lower bound over this
     order's whole search box ({!Movement.dv_lower_bound} — the
     capacity-relaxed all-upper-bounds corner with varying trip counts
     priced at their real ratios).  Two exclusion rules:

     - strictly above the incumbent (shaved bound): no tiling in the
       box can win or tie, so the order is skipped outright;
     - exactly at the incumbent (raw bound), when this order enumerates
       after the incumbent's position: even a tiling achieving the
       bound only ties, and the tie-break keeps the earliest-enumerated
       minimum-DV order — so this order still cannot be selected.

     The tie rule is what lets pruning fire on GEMM boxes, where every
     order's bound degenerates to the same total-IO corner the winner
     achieves exactly.  When the bound cannot be certified (a gapped
     access, e.g. conv stride > kernel), the gate stays open and the
     descent runs normally. *)
  let pruned =
    match prune_above with
    | None -> None
    | Some (best_dv, best_idx) ->
        let ub = Array.make n 1 in
        let fixed = Array.make n true in
        Array.iter
          (fun i ->
            ub.(i) <- bound.(i);
            fixed.(i) <- is_full_tile.(i) || bound.(i) <= 1)
          fused;
        incr evals;
        (match
           Movement.dv_lower_bound ~shave:false (Lazy.force evaluator)
             ~bounds:ub ~fixed
         with
        | Some raw ->
            let lb_dv = raw *. (1.0 -. 1e-9) in
            if lb_dv > best_dv || (raw >= best_dv && enum_index > best_idx)
            then Some lb_dv
            else None
        | None -> None)
  in
  match pruned with
  | Some lb_dv -> (Pruned { lb_dv }, !evals)
  | None -> begin
    let rec attempt ~use_floors =
      let floor_ = Array.make n 1 in
      (if use_floors then
         match min_tile with
         | None -> ()
         | Some f ->
             Array.iter
               (fun i ->
                 floor_.(i) <- Util.Ints.clamp ~lo:1 ~hi:bound.(i) (f names.(i)))
               fused);
      let base = Array.make n 1 in
      Array.iter
        (fun i ->
          base.(i) <- (if is_full_tile.(i) then bound.(i) else floor_.(i)))
        fused;
      let base_dv, base_mu = eval base in
      if base_mu > capacity_bytes then
        (* The micro-kernel floors do not fit this budget: relax them
           rather than fail (the micro kernel pays the tail penalty). *)
        if use_floors && min_tile <> None then attempt ~use_floors:false
        else Infeasible
      else begin
        let base_blocks = blocks_of base in
        let free =
          Array.of_list
            (List.filter
               (fun i -> (not is_full_tile.(i)) && bound.(i) > 1)
               (Array.to_list fused))
        in
        (* Hoisted out of the descent sweeps: the candidate grid per free
           axis never changes within a solve. *)
        let cands =
          Array.map
            (fun i ->
              Array.of_list
                (List.filter
                   (fun v -> v <= bound.(i) && v >= floor_.(i))
                   (candidate_sizes extents.(i))))
            free
        in
        let clamp_start get =
          let t = Array.copy base in
          Array.iter
            (fun i ->
              t.(i) <-
                (if is_full_tile.(i) then bound.(i)
                 else
                   Util.Ints.clamp ~lo:floor_.(i) ~hi:bound.(i)
                     (get names.(i))))
            fused;
          t
        in
        (* Mutable search point: tiles + its (dv, mu-feasibility, blocks). *)
        let cur = Array.copy base in
        let cur_dv = ref base_dv in
        let cur_blocks = ref base_blocks in
        let load tiles dv blocks =
          Array.blit tiles 0 cur 0 n;
          cur_dv := dv;
          cur_blocks := blocks
        in
        let better_than_cur dv blocks =
          dv < !cur_dv || (dv = !cur_dv && blocks < !cur_blocks)
        in
        let descend_single start =
          let sdv, smu = eval start in
          if smu <= capacity_bytes then load start sdv (blocks_of start)
          else load base base_dv base_blocks;
          let improved = ref true in
          let sweeps = ref 0 in
          while !improved && !sweeps < 20 do
            check ();
            improved := false;
            incr sweeps;
            Array.iteri
              (fun j i ->
                Array.iter
                  (fun v ->
                    if v <> cur.(i) then begin
                      let prev = cur.(i) in
                      cur.(i) <- v;
                      let dv, mu = eval cur in
                      if mu <= capacity_bytes && better_than_cur dv (blocks_of cur)
                      then begin
                        cur_dv := dv;
                        cur_blocks := blocks_of cur;
                        improved := true
                      end
                      else cur.(i) <- prev
                    end)
                  cands.(j))
              free
          done
        in
        (* Push each tile to the capacity boundary: the Lagrange optimum
           sits on MU = MemoryCapacity, usually between two grid points.
           Binary search the largest feasible size per axis (MU is
           monotone in each tile) and keep it when it does not hurt DV. *)
        let grow_single () =
          let improved = ref true in
          let passes = ref 0 in
          while !improved && !passes < 3 do
            check ();
            improved := false;
            incr passes;
            Array.iter
              (fun i ->
                let feasible_at v =
                  let prev = cur.(i) in
                  cur.(i) <- v;
                  let _, mu = eval cur in
                  cur.(i) <- prev;
                  mu <= capacity_bytes
                in
                let rec bsearch lo hi =
                  (* invariant: lo feasible, hi+1 infeasible or hi = bound *)
                  if hi <= lo then lo
                  else begin
                    let mid = (lo + hi + 1) / 2 in
                    if feasible_at mid then bsearch mid hi
                    else bsearch lo (mid - 1)
                  end
                in
                let v_max = bsearch cur.(i) bound.(i) in
                List.iter
                  (fun v ->
                    if v > cur.(i) then begin
                      let prev = cur.(i) in
                      cur.(i) <- v;
                      let dv, mu = eval cur in
                      let blocks = blocks_of cur in
                      (* adopt unless the incumbent is strictly better *)
                      if
                        mu <= capacity_bytes
                        && not
                             (!cur_dv < dv
                             || (!cur_dv = dv && !cur_blocks < blocks))
                      then begin
                        cur_dv := dv;
                        cur_blocks := blocks;
                        improved := true
                      end
                      else cur.(i) <- prev
                    end)
                  [ v_max; Util.Ints.round_down_to_divisor extents.(i) v_max ])
              free
          done
        in
        (* Batched variants.  [dirty] tracks whether the batch's loaded
           base still equals [cur]: adoptions flip it, and each axis
           visit reloads first if needed.  An adoption on the axis being
           swept does not invalidate that axis's own lanes (they
           override the coordinate), so the reload waits for the next
           axis — exactly when stale off-axis state could matter. *)
        let dirty = ref true in
        let max_cands =
          Array.fold_left (fun acc c -> max acc (Array.length c)) 1 cands
        in
        let dv_lanes =
          lazy
            (Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout
               max_cands)
        in
        let mu_lanes =
          lazy (Bigarray.Array1.create Bigarray.int Bigarray.c_layout max_cands)
        in
        let reload_if_dirty b =
          if !dirty then begin
            incr evals;
            ignore (Movement.batch_load b cur);
            dirty := false
          end
        in
        let descend_batched start =
          let b = Lazy.force batch in
          incr evals;
          let sdv, smu = Movement.batch_load b start in
          if smu <= capacity_bytes then begin
            load start sdv (blocks_of start);
            dirty := false
          end
          else begin
            load base base_dv base_blocks;
            dirty := true
          end;
          let dv_lanes = Lazy.force dv_lanes in
          let mu_lanes = Lazy.force mu_lanes in
          let improved = ref true in
          let sweeps = ref 0 in
          while !improved && !sweeps < 20 do
            check ();
            improved := false;
            incr sweeps;
            Array.iteri
              (fun j i ->
                let cs = cands.(j) in
                let ncs = Array.length cs in
                if ncs > 0 then begin
                  reload_if_dirty b;
                  evals := !evals + ncs;
                  ignore
                    (Movement.batch_sweep b ~axis:i ~values:cs ~count:ncs
                       ~cutoff:!cur_dv ~dv:dv_lanes ~mu:mu_lanes ());
                  for k = 0 to ncs - 1 do
                    let v = cs.(k) in
                    if v <> cur.(i) then begin
                      let dv = dv_lanes.{k} in
                      (* A lane with dv above the incumbent (including
                         every cutoff lane, reported as infinity) can
                         neither win nor tie — skip without pricing
                         blocks. *)
                      if mu_lanes.{k} <= capacity_bytes && dv <= !cur_dv then begin
                        let prev = cur.(i) in
                        cur.(i) <- v;
                        let blocks = blocks_of cur in
                        if better_than_cur dv blocks then begin
                          cur_dv := dv;
                          cur_blocks := blocks;
                          improved := true;
                          dirty := true
                        end
                        else cur.(i) <- prev
                      end
                    end
                  done
                end)
              free
          done
        in
        let grow_batched () =
          let b = Lazy.force batch in
          let improved = ref true in
          let passes = ref 0 in
          while !improved && !passes < 3 do
            check ();
            improved := false;
            incr passes;
            Array.iter
              (fun i ->
                reload_if_dirty b;
                let feasible_at v =
                  incr evals;
                  let _, mu = Movement.batch_probe b ~axis:i v in
                  mu <= capacity_bytes
                in
                let rec bsearch lo hi =
                  if hi <= lo then lo
                  else begin
                    let mid = (lo + hi + 1) / 2 in
                    if feasible_at mid then bsearch mid hi
                    else bsearch lo (mid - 1)
                  end
                in
                let v_max = bsearch cur.(i) bound.(i) in
                List.iter
                  (fun v ->
                    if v > cur.(i) then begin
                      incr evals;
                      let dv, mu = Movement.batch_probe b ~axis:i v in
                      let prev = cur.(i) in
                      cur.(i) <- v;
                      let blocks = blocks_of cur in
                      if
                        mu <= capacity_bytes
                        && not
                             (!cur_dv < dv
                             || (!cur_dv = dv && !cur_blocks < blocks))
                      then begin
                        cur_dv := dv;
                        cur_blocks := blocks;
                        improved := true;
                        dirty := true
                      end
                      else cur.(i) <- prev
                    end)
                  [ v_max; Util.Ints.round_down_to_divisor extents.(i) v_max ])
              free
          done
        in
        let descend =
          match engine with
          | `Batched -> descend_batched
          | `Reference -> descend_single
        in
        let grow =
          match engine with
          | `Batched -> grow_batched
          | `Reference -> grow_single
        in
        let mid_start =
          let t = Array.copy base in
          Array.iter
            (fun i -> t.(i) <- Util.Ints.clamp ~lo:1 ~hi:extents.(i) 8)
            free;
          clamp_start (fun name -> t.(idx name))
        in
        (* A balanced start: the largest uniform tile size that fits, the
           discrete analogue of the symmetric Lagrange saddle point. *)
        let make_uniform_start () =
          let at s =
            let t = Array.copy base in
            Array.iter (fun i -> t.(i) <- min s bound.(i)) free;
            t
          in
          let max_extent = Array.fold_left (fun acc i -> max acc bound.(i)) 1 free in
          let rec bsearch lo hi =
            if hi <= lo then lo
            else begin
              let mid = (lo + hi + 1) / 2 in
              let _, mu = eval (at mid) in
              if mu <= capacity_bytes then bsearch mid hi
              else bsearch lo (mid - 1)
            end
          in
          at (bsearch 1 max_extent)
        in
        let starts =
          (base :: mid_start
          :: (if uniform_start then [ make_uniform_start () ] else []))
          @ List.map (fun t -> clamp_start (Tiling.get t)) extra_starts
        in
        let best = ref None in
        List.iter
          (fun start ->
            descend start;
            if boundary_grow then grow ();
            let adopt =
              match !best with
              | None -> true
              | Some (_, bdv, bblocks) ->
                  !cur_dv < bdv || (!cur_dv = bdv && !cur_blocks < bblocks)
            in
            if adopt then best := Some (Array.copy cur, !cur_dv, !cur_blocks))
          starts;
        match !best with
        | Some (tiles, _, _) -> finish tiles
        | None -> Infeasible
      end
    in
    let verdict = attempt ~use_floors:true in
    (verdict, !evals)
  end

(* The traced entry point.  The descent itself stays untouched — its
   hot loop carries no tracing code at all; one span brackets the whole
   per-order solve and records the evaluation count on close. *)
let solve chain ~perm ~capacity_bytes ?full_tile ?max_tile ?min_tile
    ?extra_starts ?boundary_grow ?uniform_start ?check ?engine ?prune_above
    ?enum_index ?template ?(obs = Obs.Trace.none) () =
  Obs.Trace.span obs "solver.descent" (fun obs ->
      let ((_, evals) as result) =
        solve_impl chain ~perm ~capacity_bytes ?full_tile ?max_tile ?min_tile
          ?extra_starts ?boundary_grow ?uniform_start ?check ?engine
          ?prune_above ?enum_index ?template ()
      in
      if Obs.Trace.enabled obs then
        Obs.Trace.annot obs [ ("evals", string_of_int evals) ];
      result)

let solve_for_perm chain ~perm ~capacity_bytes ?(full_tile = []) ?max_tile
    ?min_tile ?(extra_starts = []) ?(boundary_grow = true)
    ?(uniform_start = true) ?(check = fun () -> ()) ?(engine = `Batched) () =
  match
    solve chain ~perm ~capacity_bytes ~full_tile ?max_tile ?min_tile
      ~extra_starts ~boundary_grow ~uniform_start ~check ~engine ()
  with
  | Feasible s, _ -> Some s
  | (Infeasible | Pruned _), _ -> None
