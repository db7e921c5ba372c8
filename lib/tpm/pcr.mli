(** Platform Configuration Register bank.

    The trust argument of Sec. 2.2/3.3 rests on two properties modelled
    here exactly: PCRs reset to zero only on power events, and the only
    mutation is [extend] — new = SHA-256(old || measurement) — so a PCR
    value commits to the entire ordered sequence of measurements and can
    never be rolled back to a chosen value. *)

type t

val create : unit -> t
(** All registers at the 32-byte zero value (post-reset state). *)

val reset : t -> unit

val read : t -> index:int -> bytes
(** @raise Invalid_argument for an out-of-range index. *)

val extend : t -> index:int -> bytes -> unit
(** [extend t ~index m]: PCR := SHA-256(PCR || m).  [m] may be any length;
    real TPMs take a digest, callers here usually pass one. *)

val selection_digest : t -> indices:int list -> bytes
(** SHA-256 over the concatenation of the selected registers, in the given
    order — the value covered by quotes and seal policies. *)

val equal_value : bytes -> bytes -> bool
