(** Newline splitting over raw file-descriptor reads, for [select]
    loops: one [Unix.read] per call, complete lines out, the partial
    last line kept for the next call.  {!Worker} reads its child's
    stdout with it and {!Bridge} its clients' stdin. *)

type t

val create : unit -> t
(** A reader with its own 64 KB read chunk, reused by every {!read}. *)

val reset : t -> unit
(** Forget any buffered partial line (the stream was replaced). *)

val read : t -> Unix.file_descr -> [ `Lines of string list | `Eof of string option ]
(** Read once (call when [select] reports [fd] readable) and return the
    complete lines, without their ['\n'].  [`Eof tail] on end of stream
    or a read error, with [tail] the unterminated last line if any;
    interrupted reads answer [`Lines []]. *)
