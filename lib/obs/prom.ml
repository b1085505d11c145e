type kind = Counter | Gauge | Histogram

type value =
  | Int of int
  | Fixed of float
  | Float of float
  | Hist of Histogram.t

type family = {
  name : string;
  help : string;
  kind : kind;
  series : ((string * string) list * value) list;
}

(* Label values escape backslash, quote and newline; help text only
   backslash and newline (the exposition format's two escape sets). *)
let escape ~quote v =
  let buf = Buffer.create (String.length v) in
  String.iter
    (function
      | '\\' -> Buffer.add_string buf "\\\\"
      | '"' when quote -> Buffer.add_string buf "\\\""
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    v;
  Buffer.contents buf

let label_body = function
  | [] -> ""
  | labels ->
      "{"
      ^ String.concat ","
          (List.map
             (fun (k, v) -> Printf.sprintf "%s=\"%s\"" k (escape ~quote:true v))
             labels)
      ^ "}"

let add_series buf name (labels, value) =
  let line suffix labels v =
    Printf.bprintf buf "%s%s%s %s\n" name suffix (label_body labels) v
  in
  match value with
  | Int n -> line "" labels (string_of_int n)
  | Fixed f -> line "" labels (Printf.sprintf "%.6f" f)
  | Float f -> line "" labels (Printf.sprintf "%.17g" f)
  | Hist h ->
      let counts = Histogram.counts h in
      let cum = ref 0 in
      Array.iteri
        (fun i upper ->
          cum := !cum + counts.(i);
          line "_bucket"
            (labels @ [ ("le", Printf.sprintf "%.9g" upper) ])
            (string_of_int !cum))
        (Histogram.bounds h);
      line "_bucket"
        (labels @ [ ("le", "+Inf") ])
        (string_of_int (Histogram.count h));
      line "_sum" labels (Printf.sprintf "%.6f" (Histogram.sum_ms h));
      line "_count" labels (string_of_int (Histogram.count h))

let render families =
  let buf = Buffer.create 4096 in
  List.iter
    (fun f ->
      Printf.bprintf buf "# HELP %s %s\n# TYPE %s %s\n" f.name
        (escape ~quote:false f.help) f.name
        (match f.kind with
        | Counter -> "counter"
        | Gauge -> "gauge"
        | Histogram -> "histogram");
      List.iter (add_series buf f.name) f.series)
    families;
  Buffer.contents buf
