(** Periodic timer-interrupt injection.

    Long-running enclave code suffers AEX + ERESUME on every timer tick
    (Sec. 4.1) — the only enclave overhead CPU-bound workloads like NBench
    see.  Workloads call {!check} at convenient points; an interrupt fires
    for every elapsed period of simulated time. *)

open Hyperenclave_tee

type t

val create : ?period:int -> Backend.env -> t
val check : t -> Backend.env -> unit
val fired : t -> int
