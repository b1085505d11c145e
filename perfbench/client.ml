(* A [chimera serve] worker behind pipes, driven one line at a time. *)

type t = { pid : int; oc : out_channel; ic : in_channel }

let spawn ~exe args =
  let child_in, to_child = Unix.pipe ~cloexec:true () in
  let from_child, child_out = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process exe (Array.of_list (exe :: "serve" :: args)) child_in
      child_out Unix.stderr
  in
  Unix.close child_in;
  Unix.close child_out;
  {
    pid;
    oc = Unix.out_channel_of_descr to_child;
    ic = Unix.in_channel_of_descr from_child;
  }

let send t line =
  output_string t.oc line;
  output_char t.oc '\n';
  flush t.oc

let recv t = input_line t.ic

let call_json t line =
  send t line;
  match Util.Json.parse (recv t) with
  | Ok j -> j
  | Error e -> failwith ("worker answered malformed JSON: " ^ e)

(* The serve loop loads its persisted cache before it reads a line, so
   the first health answer marks the worker ready. *)
let await_ready t =
  match Util.Json.member "ok" (call_json t {|{"cmd":"health"}|}) with
  | Some (Util.Json.Bool true) -> ()
  | _ -> failwith "worker health probe failed"

(* Spawn and wait until ready; the second component is the set-up
   time in seconds. *)
let start ~exe args =
  let t0 = Clock.now () in
  let t = spawn ~exe args in
  await_ready t;
  (t, Clock.now () -. t0)

let stats t = call_json t {|{"cmd":"stats"}|}

(* Peak resident set (VmHWM) of a live process, in MB. *)
let peak_rss_mb pid =
  let ic = open_in (Printf.sprintf "/proc/%d/status" pid) in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> Float.nan
        | line when String.starts_with ~prefix:"VmHWM:" line ->
            Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
        | _ -> scan ()
      in
      scan ())

let stop t =
  (try
     send t {|{"cmd":"quit"}|};
     ignore (recv t)
   with _ -> ());
  (try close_out t.oc with _ -> ());
  (try close_in t.ic with _ -> ());
  ignore (Unix.waitpid [] t.pid)

(* Every child inherits this environment: planning lanes pinned, no
   log output, no fault injection. *)
let pin_env ~domains =
  Unix.putenv "CHIMERA_DOMAINS" (string_of_int domains);
  Unix.putenv "CHIMERA_LOG" "";
  Unix.putenv "CHIMERA_FAILPOINTS" ""
