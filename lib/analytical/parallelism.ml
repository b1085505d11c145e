let parallel_axes (chain : Ir.Chain.t) =
  List.filter
    (fun axis ->
      List.for_all
        (fun (s : Ir.Chain.stage) ->
          Ir.Operator.uses_axis s.op axis
          && not (Ir.Operator.is_reduction s.op axis))
        chain.stages)
    (Movement.fused_axes chain)

let task_count chain tiling =
  List.fold_left
    (fun acc axis -> acc *. float_of_int (Tiling.trip_count tiling axis))
    1.0 (parallel_axes chain)

(* Per parallel axis: (tile span, full tiles, ragged-edge span or 0). *)
let axis_spans chain tiling =
  List.map
    (fun axis ->
      let extent = Ir.Chain.extent_of chain axis in
      let tile = Tiling.get tiling axis in
      (tile, extent / tile, extent mod tile))
    (parallel_axes chain)

let groups_of_spans spans =
  let groups =
    List.fold_left
      (fun acc (tile, full, rem) ->
        let spans =
          (if full > 0 then [ (float_of_int tile, full) ] else [])
          @ if rem > 0 then [ (float_of_int rem, 1) ] else []
        in
        (* [w *. s] multiplies in the same order as a per-task product
           over the axes, so every weight has the per-task bits. *)
        List.concat_map
          (fun (w, c) -> List.map (fun (s, n) -> (w *. s, c * n)) spans)
          acc)
      [ (1.0, 1) ] spans
  in
  let rec merge = function
    | (w, c) :: (w', c') :: rest when Float.equal w w' ->
        merge ((w, c + c') :: rest)
    | g :: rest -> g :: merge rest
    | [] -> []
  in
  merge (List.sort (fun (a, _) (b, _) -> Float.compare b a) groups)

let task_groups chain tiling = groups_of_spans (axis_spans chain tiling)

(* Sum of every task weight in task enumeration order (first axis
   outermost, spans in index order) — the order whose rounding the
   total must reproduce once integer partial sums stop being exact. *)
let enumerated_total spans =
  let rec go acc w = function
    | [] -> acc +. w
    | (tile, full, rem) :: rest ->
        let acc = ref acc in
        for _ = 1 to full do
          acc := go !acc (w *. float_of_int tile) rest
        done;
        if rem > 0 then go !acc (w *. float_of_int rem) rest else !acc
  in
  go 0.0 1.0 spans

(* Every weight is a product of integer spans, so while the grouped
   total stays below 2^53 every partial sum in any order is an exact
   integer and the grouped sum equals the enumerated one bit for bit.
   Float rounding is monotone, so a true total at or above 2^53 can
   never compute below it. *)
let exact_integer_limit = 0x1p53

let total_work spans groups =
  let grouped =
    List.fold_left (fun acc (w, c) -> acc +. (w *. float_of_int c)) 0.0 groups
  in
  if grouped < exact_integer_limit then grouped else enumerated_total spans

(* Min-heap order on (load, core index): the core a left-to-right scan
   for the strictly smallest load would pick. *)
let before loads a b =
  loads.(a) < loads.(b) || (loads.(a) = loads.(b) && a < b)

let sift_down loads heap =
  let n = Array.length heap in
  let rec go i =
    let l = (2 * i) + 1 in
    if l < n then begin
      let r = l + 1 in
      let c = if r < n && before loads heap.(r) heap.(l) then r else l in
      if before loads heap.(c) heap.(i) then begin
        let t = heap.(i) in
        heap.(i) <- heap.(c);
        heap.(c) <- t;
        go c
      end
    end
  in
  go 0

let lpt_makespan groups ~cores =
  match groups with
  | [] -> 0.0
  | (w0, c0) :: rest ->
      (* From all-zero loads the scan deals the largest weight
         round-robin in core order; [q] and [q + 1] sequential
         additions give the two loads it leaves (no addition of a
         weight to at most 20000 copies of itself is absorbed, so the
         rounds never stall). *)
      let q = c0 / cores and r = c0 mod cores in
      let low = ref 0.0 in
      for _ = 1 to q do
        low := !low +. w0
      done;
      let low = !low in
      let high = low +. w0 in
      let loads = Array.init cores (fun i -> if i < r then high else low) in
      (* Cores [r..cores-1] then [0..r-1] is sorted by (load, index),
         hence already a heap. *)
      let heap = Array.init cores (fun i -> (i + r) mod cores) in
      List.iter
        (fun (w, c) ->
          for _ = 1 to c do
            let top = heap.(0) in
            loads.(top) <- loads.(top) +. w;
            sift_down loads heap
          done)
        rest;
      Array.fold_left Float.max 0.0 loads

let efficiency chain tiling ~cores =
  if cores <= 1 then 1.0
  else begin
    let tasks = task_count chain tiling in
    if tasks > 20_000.0 then Float.min 1.0 (tasks /. float_of_int cores)
    else begin
      let spans = axis_spans chain tiling in
      let groups = groups_of_spans spans in
      let ideal = total_work spans groups /. float_of_int cores in
      let makespan = lpt_makespan groups ~cores in
      if makespan <= 0.0 then 1.0 else ideal /. makespan
    end
  end
