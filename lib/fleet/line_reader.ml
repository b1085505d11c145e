(* The fleet's one line splitter over raw [Unix] reads: the router's
   worker pipes and the bridge's client stdin both go through it.  The
   64 KB read chunk is allocated once per reader; bytes after the last
   newline wait in [partial] for the next read. *)

type t = { chunk : Bytes.t; partial : Buffer.t }

let create () = { chunk = Bytes.create 65536; partial = Buffer.create 4096 }
let reset t = Buffer.clear t.partial

let take_tail t =
  if Buffer.length t.partial = 0 then None
  else begin
    let tail = Buffer.contents t.partial in
    Buffer.clear t.partial;
    Some tail
  end

let read t fd =
  match Unix.read fd t.chunk 0 (Bytes.length t.chunk) with
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EINTR), _, _) -> `Lines []
  | 0 | (exception Unix.Unix_error _) -> `Eof (take_tail t)
  | n ->
      let lines = ref [] and start = ref 0 in
      for i = 0 to n - 1 do
        if Bytes.get t.chunk i = '\n' then begin
          Buffer.add_subbytes t.partial t.chunk !start (i - !start);
          lines := Buffer.contents t.partial :: !lines;
          Buffer.clear t.partial;
          start := i + 1
        end
      done;
      Buffer.add_subbytes t.partial t.chunk !start (n - !start);
      `Lines (List.rev !lines)
