type t = { mutable now : int }

(* Process-wide sum of every tick on every clock, for costs that span
   several clocks (a fleet call's node work plus wire time).  [reset]
   deliberately leaves it alone: it counts simulation work performed, not
   clock positions. *)
let grand_total = ref 0

let create () = { now = 0 }
let now clock = clock.now

let tick clock n =
  assert (n >= 0);
  clock.now <- clock.now + n;
  grand_total := !grand_total + n

let elapsed clock ~since = clock.now - since

let time clock f =
  let start = clock.now in
  let result = f () in
  (result, clock.now - start)

(* Idle advance: drag a lagging clock forward (a per-core clock waiting
   for stealable work) without counting the skipped span as simulation
   work — grand_total measures work performed, not waiting. *)
let advance_to clock ~at = if at > clock.now then clock.now <- at

let reset clock = clock.now <- 0
let total_ticked () = !grand_total
