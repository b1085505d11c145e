(* A worker process handle: an unchanged [chimera serve] loop (or any
   JSONL-speaking command) behind a pair of Unix pipes.

   The router owns one of these per fleet slot.  Requests are written
   as lines to the child's stdin; because the serve loop is strictly
   serial and answers one line per line in order, correlation is a FIFO
   ticket queue — no id rewriting on the wire.  Reads are raw [Unix]
   reads driven by the router's [select] loop, split into complete
   lines by a {!Line_reader}; EOF is the child's death, which the
   router turns into a restart. *)

type kind =
  | Request of { key : string; client_id : Util.Json.t option }
      (** a routed request: [key] is the fingerprint hex (for the
          router's hot-entry replication), [client_id] the caller's
          ["id"] field if any (echoed in synthesized failures). *)
  | Probe

type ticket = { seq : int; kind : kind; sent_at : float }

type t = {
  id : int;
  cmd : string array;
  mutable pid : int;
  mutable stdin_fd : Unix.file_descr;
  mutable stdout_fd : Unix.file_descr;
  mutable alive : bool;
  reader : Line_reader.t;
  pending : ticket Queue.t;
  mutable consecutive_failures : int;
  mutable restarts : int;
  mutable sent : int;
  mutable answered : int;
  mutable spawned_at : float;
  mutable last_reply_at : float;
  (* supervisor state, owned by the router *)
  mutable permanently_down : bool;
  mutable down_until : float;
  mutable restart_strikes : float list;
  mutable resume_at : float option;
}

exception Spawn_failed of { cmd : string; reason : string }

let ignore_sigpipe_once =
  (* A write into a dead worker's pipe must surface as EPIPE for the
     router to handle, not kill the whole fleet process. *)
  lazy (Sys.set_signal Sys.sigpipe Sys.Signal_ignore)

(* [Unix.create_process] forks and then execs: an exec failure happens
   in the child, which exits 127 — the parent never sees an error.  So
   an unlaunchable binary is checked for up front, where it can be a
   typed exception instead of a mysteriously short-lived worker. *)
let executable_error cmd0 =
  let runnable path =
    Sys.file_exists path
    && (not (Sys.is_directory path))
    &&
    match Unix.access path [ Unix.X_OK ] with
    | () -> true
    | exception Unix.Unix_error _ -> false
  in
  if String.contains cmd0 '/' then
    if runnable cmd0 then None
    else Some (Printf.sprintf "%S is not an executable file" cmd0)
  else
    let path = try Sys.getenv "PATH" with Not_found -> "/usr/bin:/bin" in
    if
      String.split_on_char ':' path
      |> List.exists (fun d -> d <> "" && runnable (Filename.concat d cmd0))
    then None
    else Some (Printf.sprintf "%S not found on PATH" cmd0)

let launch cmd =
  (match executable_error cmd.(0) with
  | Some reason -> raise (Spawn_failed { cmd = cmd.(0); reason })
  | None -> ());
  let from_child_r, from_child_w = Unix.pipe ~cloexec:false () in
  let to_child_r, to_child_w = Unix.pipe ~cloexec:false () in
  Unix.set_close_on_exec to_child_w;
  Unix.set_close_on_exec from_child_r;
  let pid =
    Unix.create_process cmd.(0) cmd to_child_r from_child_w Unix.stderr
  in
  Unix.close to_child_r;
  Unix.close from_child_w;
  (pid, to_child_w, from_child_r)

let spawn ~id ~cmd =
  Lazy.force ignore_sigpipe_once;
  if Array.length cmd = 0 then invalid_arg "Worker.spawn: empty command";
  let pid, stdin_fd, stdout_fd = launch cmd in
  {
    id;
    cmd;
    pid;
    stdin_fd;
    stdout_fd;
    alive = true;
    reader = Line_reader.create ();
    pending = Queue.create ();
    consecutive_failures = 0;
    restarts = 0;
    sent = 0;
    answered = 0;
    spawned_at = Unix.gettimeofday ();
    last_reply_at = Unix.gettimeofday ();
    permanently_down = false;
    down_until = 0.0;
    restart_strikes = [];
    resume_at = None;
  }

let close_noerr fd = try Unix.close fd with Unix.Unix_error _ -> ()

let reap pid =
  (* The child may already have been collected (EOF path after a
     crash); ECHILD is fine. *)
  try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ()

let kill t =
  if t.alive then begin
    t.alive <- false;
    t.resume_at <- None;
    (try Unix.kill t.pid Sys.sigkill with Unix.Unix_error _ -> ());
    close_noerr t.stdin_fd;
    close_noerr t.stdout_fd;
    reap t.pid
  end

(* Drop every queued ticket (the caller answers their clients first)
   and bring up a fresh process in the same slot.  The ring is
   untouched: a restarted worker keeps its keys, it just starts cold —
   or warm, when the fleet shares an on-disk cache directory. *)
let respawn t =
  kill t;
  Queue.clear t.pending;
  Line_reader.reset t.reader;
  let pid, stdin_fd, stdout_fd = launch t.cmd in
  t.pid <- pid;
  t.stdin_fd <- stdin_fd;
  t.stdout_fd <- stdout_fd;
  t.alive <- true;
  t.restarts <- t.restarts + 1;
  t.spawned_at <- Unix.gettimeofday ();
  t.last_reply_at <- Unix.gettimeofday ()

(* Chaos hooks: a SIGSTOPped worker keeps its pipes and its queue — it
   is late, not dead — which is exactly the failure mode per-ticket
   response deadlines exist for. *)
let sigstop t =
  if t.alive then try Unix.kill t.pid Sys.sigstop with Unix.Unix_error _ -> ()

let sigcont t =
  if t.alive then try Unix.kill t.pid Sys.sigcont with Unix.Unix_error _ -> ()

let describe_status = function
  | Unix.WEXITED n -> Printf.sprintf "exited with status %d before serving" n
  | Unix.WSIGNALED s -> Printf.sprintf "killed by signal %d before serving" s
  | Unix.WSTOPPED s -> Printf.sprintf "stopped by signal %d before serving" s

(* Dead-on-arrival check: exec failures happen in the child (exit 127),
   so after a short grace the router asks whether the process is still
   there at all.  Reaps and releases the pipes when it is not. *)
let early_exit t =
  if not t.alive then Some "already dead"
  else
    match Unix.waitpid [ Unix.WNOHANG ] t.pid with
    | 0, _ -> None
    | _, status ->
        t.alive <- false;
        close_noerr t.stdin_fd;
        close_noerr t.stdout_fd;
        Some (describe_status status)
    | exception Unix.Unix_error _ -> None

(* Write one line; false when the pipe is gone (the router restarts the
   worker and re-answers the caller). *)
let send_line t line =
  let payload = Bytes.of_string (line ^ "\n") in
  match
    let n = Bytes.length payload in
    let written = ref 0 in
    while !written < n do
      written :=
        !written + Unix.write t.stdin_fd payload !written (n - !written)
    done
  with
  | () -> true
  | exception Unix.Unix_error ((Unix.EPIPE | Unix.EBADF), _, _) -> false

let enqueue t ~seq ~kind =
  Queue.add { seq; kind; sent_at = Unix.gettimeofday () } t.pending;
  t.sent <- t.sent + 1

let depth t = Queue.length t.pending
let pop_ticket t = Queue.take_opt t.pending
let drain_pending t =
  let all = List.of_seq (Queue.to_seq t.pending) in
  Queue.clear t.pending;
  all

(* Called when [select] reported the child's stdout readable.  At
   [`Eof] the child died (or closed stdout, the same thing for a serve
   loop); an unterminated last line of a dead process is no answer. *)
let read_lines t = Line_reader.read t.reader t.stdout_fd
