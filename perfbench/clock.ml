(* Seconds on the monotonic clock, with nanosecond resolution.  A warm
   hit takes tens of microseconds, too few for gettimeofday's
   microsecond steps, and a latency must not jump with NTP. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9
