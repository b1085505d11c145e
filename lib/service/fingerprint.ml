type t = string (* 16-byte MD5 digest *)

let scheme_version = 1

(* ------------------------------------------------------------------ *)
(* Canonical encoding                                                  *)
(*                                                                     *)
(* Every value is emitted with an unambiguous frame: scalars carry a   *)
(* one-character tag, strings and lists a length prefix.  The encoding *)
(* never depends on hash-table order or float formatting.              *)
(* ------------------------------------------------------------------ *)

(* The canonical string is written into a per-domain scratch [Bytes.t]
   that is reused across calls and digested in place.  Blocks above 256
   words skip the minor heap: a fresh [Buffer] per call grows to 2 KB
   for a typical 1.4 KB encoding and lands straight in the major heap
   on every request, and that garbage alone paces major GC work on the
   warm path.  A reused [Buffer] would still need its contents copied
   out to be digested, which is the same allocation for encodings over
   2 KB.  Nothing in the encoding can yield to another fingerprint on
   the same domain, so one scratch per domain is safe. *)
type scratch = { mutable bytes : Bytes.t; mutable len : int }

let scratch_key =
  Domain.DLS.new_key (fun () -> { bytes = Bytes.create 4096; len = 0 })

let reserve b n =
  let need = b.len + n in
  if need > Bytes.length b.bytes then begin
    let bigger = Bytes.create (Int.max need (2 * Bytes.length b.bytes)) in
    Bytes.blit b.bytes 0 bigger 0 b.len;
    b.bytes <- bigger
  end

let add_char b c =
  reserve b 1;
  Bytes.unsafe_set b.bytes b.len c;
  b.len <- b.len + 1

let add_raw b s =
  let n = String.length s in
  reserve b n;
  Bytes.unsafe_blit_string s 0 b.bytes b.len n;
  b.len <- b.len + n

(* The digits of [string_of_int i], written directly.  Digits are taken
   from the non-positive form so [min_int] needs no special case. *)
let rec add_digits b n =
  if n <= -10 then add_digits b (n / 10);
  add_char b (Char.unsafe_chr (Char.code '0' - (n mod 10)))

let add_decimal b i =
  if i < 0 then begin
    add_char b '-';
    add_digits b i
  end
  else add_digits b (-i)

let add_int b i =
  add_char b 'i';
  add_decimal b i;
  add_char b ';'

let add_bool b v = add_raw b (if v then "T;" else "F;")

let add_float b f =
  add_char b 'f';
  add_raw b (Printf.sprintf "%Lx" (Int64.bits_of_float f));
  add_char b ';'

let add_string b s =
  add_char b 's';
  add_decimal b (String.length s);
  add_char b ':';
  add_raw b s

let add_list b add xs =
  add_char b 'l';
  add_decimal b (List.length xs);
  add_char b ':';
  List.iter (add b) xs

let add_access b (access : Ir.Access.t) =
  add_list b
    (fun b ({ terms; offset } : Ir.Access.dim) ->
      add_int b offset;
      add_list b
        (fun b ({ axis; coeff } : Ir.Access.term) ->
          add_string b axis;
          add_int b coeff)
        terms)
    access

let add_ref b (r : Ir.Operator.tensor_ref) =
  add_string b r.tensor;
  add_int b (Tensor.Dtype.bytes r.dtype);
  add_string b (Tensor.Dtype.to_string r.dtype);
  add_list b add_int r.dims;
  add_access b r.access

let add_operator b (op : Ir.Operator.t) =
  add_string b op.name;
  add_list b add_string op.axes;
  add_list b add_string op.reduction_axes;
  add_int b op.flops_per_point;
  add_list b add_ref op.inputs;
  add_ref b op.output

let add_epilogue b (e : Ir.Chain.epilogue) =
  match e with
  | Ir.Chain.Identity -> add_raw b "E0;"
  | Ir.Chain.Relu -> add_raw b "E1;"
  | Ir.Chain.Softmax { axis } ->
      add_raw b "E2;";
      add_string b axis

let add_chain b (chain : Ir.Chain.t) =
  (* chain.name is a display label, deliberately excluded. *)
  add_list b
    (fun b (a : Ir.Axis.t) ->
      add_string b a.name;
      add_int b a.extent)
    chain.axes;
  add_list b
    (fun b (s : Ir.Chain.stage) ->
      add_operator b s.op;
      add_epilogue b s.epilogue;
      add_operator b s.standalone)
    chain.stages

let add_level b (l : Arch.Level.t) =
  add_string b l.name;
  add_int b l.capacity_bytes;
  add_float b l.link_bandwidth_gbps;
  add_int b l.line_bytes

let add_machine b (m : Arch.Machine.t) =
  (* m.name is a display label, deliberately excluded. *)
  add_string b (Arch.Machine.backend_to_string m.backend);
  add_float b m.peak_tflops;
  add_float b m.freq_ghz;
  add_int b m.cores;
  add_int b m.vector_registers;
  add_int b m.vector_lanes;
  let tm, tn, tk = m.tensor_tile in
  add_int b tm;
  add_int b tn;
  add_int b tk;
  add_list b add_level m.levels

let add_config b (c : Chimera.Config.t) =
  add_bool b c.use_cost_model;
  add_bool b c.use_fusion;
  add_bool b c.use_micro_kernel;
  (* Former [multilevel] and [parallel_refinement] switches, always on
     and since removed from [Config]; still encoded as [true] so every
     digest, and with it every persisted cache, stays valid under
     scheme_version 1. *)
  add_bool b true;
  add_bool b true;
  add_int b c.tuning_trials;
  add_int b c.seed

let of_request ~chain ~machine ~config =
  let b = Domain.DLS.get scratch_key in
  b.len <- 0;
  add_raw b "chimera-fingerprint-";
  add_int b scheme_version;
  add_chain b chain;
  add_machine b machine;
  add_config b config;
  Digest.subbytes b.bytes 0 b.len

let to_hex = Digest.to_hex
let equal = String.equal
let compare = String.compare
let pp fmt t = Format.pp_print_string fmt (to_hex t)
