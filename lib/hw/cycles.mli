(** Simulated CPU cycle clock.

    All performance results in this reproduction are expressed in simulated
    cycles accumulated on a {!t}.  Every hardware event (memory access, page
    walk, world switch, ...) charges its cost here through the shared
    {!Cost_model}.  Clocks are cheap, single-threaded mutable counters. *)

type t
(** A monotonically increasing virtual cycle counter. *)

val create : unit -> t
(** [create ()] is a fresh clock at cycle 0. *)

val now : t -> int
(** [now clock] is the current cycle count. *)

val tick : t -> int -> unit
(** [tick clock n] advances the clock by [n] cycles.  [n] must be
    non-negative. *)

val elapsed : t -> since:int -> int
(** [elapsed clock ~since] is [now clock - since]. *)

val time : t -> (unit -> 'a) -> 'a * int
(** [time clock f] runs [f ()] and returns its result together with the
    number of simulated cycles it consumed. *)

val advance_to : t -> at:int -> unit
(** [advance_to clock ~at] moves the clock forward to cycle [at] if it is
    behind (no-op otherwise).  Models idle time — a per-core scheduler
    clock waiting for work — and a core clock catching up with a slice
    whose work was already ticked on the shared clock, so the skipped
    span is NOT added to {!total_ticked}, which counts only work
    performed, once. *)

val reset : t -> unit
(** [reset clock] sets the counter back to 0.  Only used by test fixtures;
    production code treats the clock as monotone. *)

val total_ticked : unit -> int
(** Process-wide sum of every [tick] on every clock since startup — a
    measure of simulation work performed, used where one operation's cost
    spans several clocks (the cluster bench and perfbench charge node work
    plus wire time this way).  Monotone; unaffected by [reset]. *)
