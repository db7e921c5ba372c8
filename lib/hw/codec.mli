(** The one bounded reader and framing writer behind every binary format.

    A decoder is a reader function run by {!decode}, which never raises:
    every bound is checked in subtraction form, so no length word
    (negative, near [max_int], or with bit 63 set) can wrap it, and
    unread input is rejected.  Readers take the name of their field; an
    error reads ["<format>: <field>: <reason>"]. *)

type reader

val decode : string -> (reader -> 'a) -> bytes -> ('a, string) result
(** [decode format f b] runs [f] over [b] and requires it to consume
    every byte. *)

val fail : string -> string -> 'a
(** [fail field reason]; only inside a reader function. *)

val take : reader -> int -> string -> bytes

val take_into : reader -> bytes -> string -> unit
(** {!take} of [Bytes.length dst] bytes into [dst], allocating nothing
    (a fixed-size field read into a reused scratch). *)

val skip : reader -> int -> string -> unit
(** Step over [n] bytes the reader has no use for (the unused tail of a
    fixed-stride slot), with the same bound as {!take}. *)

val literal : reader -> string -> string -> unit
val uint8 : reader -> string -> int

val int64_le : reader -> string -> int
(** Rejects a word that is not an OCaml [int] instead of truncating it. *)

val len64_le : max:int -> reader -> string -> int
(** {!int64_le} in [[0, max]]. *)

val framed32 : reader -> string -> bytes
(** A field behind a 32-bit big-endian length word. *)

val framed64 : reader -> string -> bytes
(** A field behind a 64-bit little-endian length word. *)

val nested32 : reader -> string -> (reader -> 'a) -> 'a
(** A {!framed32} field parsed in place, under a limit at its end that
    the inner reader must reach exactly. *)

val put_framed32 : Buffer.t -> bytes -> unit
val put_framed64 : Buffer.t -> bytes -> unit
