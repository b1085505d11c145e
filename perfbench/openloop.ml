(* Open-loop arrival schedule and due-time accounting.

   Requests are due on a seeded Poisson schedule fixed before the run
   starts.  Latency is taken from the due time, not from the moment the
   generator got round to sending: a generator stalled by a slow
   callback still owes the requests that fell due meanwhile, and their
   wait is part of what a user sees.  Timing from the send instead
   would drop that wait (coordinated omission). *)

(* Offsets (seconds from the start) of Poisson arrivals at [rate] per
   second over [duration] seconds, conditioned on their count: the
   arrivals of a Poisson process that made exactly [rate * duration]
   of them are uniform order statistics.  Fixing the count keeps the
   offered load the same from seed to seed. *)
let count ~rate ~duration = max 1 (int_of_float (Float.round (rate *. duration)))

let poisson ~prng ~rate ~duration =
  let n = count ~rate ~duration in
  let offsets = Array.init n (fun _ -> Util.Prng.float prng *. duration) in
  Array.sort Float.compare offsets;
  offsets

(* Send request [i] at or after [dues.(i)], in order.  [idle d] may
   block for up to [d] seconds (serving completions meanwhile).  Returns
   the instant each request was actually sent. *)
let drive ~now ~idle ~send dues =
  Array.mapi
    (fun i due ->
      let rec wait () =
        let t = now () in
        if t < due then begin
          idle (due -. t);
          wait ()
        end
      in
      wait ();
      let sent = now () in
      send i;
      sent)
    dues
