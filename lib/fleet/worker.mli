(** A worker process behind Unix pipes, speaking the JSONL serve
    protocol.

    Workers are unchanged [chimera serve] loops (any argv speaking the
    protocol works — tests use shell stand-ins): one JSON line in, one
    JSON line out, strictly in order.  That ordering makes correlation
    a FIFO {!ticket} queue per worker; nothing on the wire is
    rewritten.  The router drives reads from its [select] loop via
    {!read_lines} and turns [`Eof] into {!respawn}. *)

type kind =
  | Request of { key : string; client_id : Util.Json.t option }
  | Probe
      (** a control line ([cmd:health], [cmd:stats], [cmd:spans]) sent
          by a router sweep; its reply is matched to the sweep by the
          ticket's [seq]. *)

type ticket = { seq : int; kind : kind; sent_at : float }

type t = {
  id : int;  (** fleet slot, stable across restarts. *)
  cmd : string array;
  mutable pid : int;
  mutable stdin_fd : Unix.file_descr;
  mutable stdout_fd : Unix.file_descr;
  mutable alive : bool;
  reader : Line_reader.t;
  pending : ticket Queue.t;
  mutable consecutive_failures : int;
      (** health probes failed in a row; reset by any reply. *)
  mutable restarts : int;
  mutable sent : int;
  mutable answered : int;
  mutable spawned_at : float;
  mutable last_reply_at : float;
  mutable permanently_down : bool;
      (** the supervisor's circuit breaker tripped: the slot is out of
          the ring and will never respawn. *)
  mutable down_until : float;
      (** when a deferred (backed-off) respawn is due; meaningful only
          while [alive = false] and not [permanently_down]. *)
  mutable restart_strikes : float list;
      (** recent failure timestamps, newest first — the circuit
          breaker's evidence window (pruned by the router). *)
  mutable resume_at : float option;
      (** a scheduled [SIGCONT] (chaos [Slow] fault), served by the
          router's pump. *)
}

exception Spawn_failed of { cmd : string; reason : string }
(** The worker binary cannot launch: not found, not executable, or
    (via {!early_exit}) dead on arrival. *)

val spawn : id:int -> cmd:string array -> t
(** Launch the process with piped stdin/stdout (stderr inherited).
    Raises {!Spawn_failed} when [cmd.(0)] is not an executable (checked
    up front — exec failures otherwise vanish into a child exiting
    127).  Also ignores [SIGPIPE] process-wide, once — a dead worker's
    pipe must answer [EPIPE], not kill the fleet. *)

val respawn : t -> unit
(** Kill (SIGKILL + reap) and relaunch in the same slot, dropping any
    queued tickets — callers must {!drain_pending} first to answer
    their clients.  Increments [restarts].  Raises {!Spawn_failed} if
    the binary has vanished since the original spawn. *)

val sigstop : t -> unit
(** Stop (freeze) the process; pipes and queue survive.  Chaos hook. *)

val sigcont : t -> unit
(** Resume a stopped process. *)

val early_exit : t -> string option
(** [Some reason] when the process has already exited — the
    dead-on-arrival probe run shortly after {!spawn} (exec failures
    surface as a child exiting 127, invisible to [create_process]).
    Reaps the corpse and releases the pipes when it fires. *)

val kill : t -> unit
(** Kill and reap without relaunching; idempotent. *)

val send_line : t -> string -> bool
(** Write one line to the worker's stdin; [false] if the pipe is gone
    ([EPIPE]/[EBADF]), in which case the caller restarts the worker. *)

val enqueue : t -> seq:int -> kind:kind -> unit
(** Record the FIFO ticket for a line just sent. *)

val depth : t -> int
(** Outstanding tickets — the router's admission-control signal. *)

val pop_ticket : t -> ticket option
val drain_pending : t -> ticket list
(** Remove and return all outstanding tickets (worker death path). *)

val read_lines : t -> [ `Lines of string list | `Eof of string option ]
(** Pull available output (call when [select] reports readability) and
    return the complete lines ({!Line_reader.read}); [`Eof] when the
    child died. *)
