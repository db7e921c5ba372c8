(** Last-level cache model.

    Figure 11's shape is governed by the LLC: below 8 MB the encryption
    engines are invisible (hits), above it every miss pays DRAM plus the
    engine.  A set-associative cache with LRU replacement over 64-byte
    lines reproduces that knee; nothing finer-grained is needed. *)

type t

type result = Hit | Miss of { evicted_dirty : bool }

val create : ?line_bytes:int -> ?ways:int -> size_bytes:int -> unit -> t
(** Default: 64-byte lines, 16 ways.  [size_bytes] is rounded to a power-of-
    two number of sets. *)

val access : t -> ?write:bool -> int -> result
(** Look up the line containing the physical address, filling on miss. *)

val flush_line : t -> int -> unit
(** CLFLUSH: evict the line containing the address (Fig. 7 methodology
    flushes transferred data to defeat caching). *)

val flush_all : t -> unit
val size_bytes : t -> int
val accesses : t -> int
val misses : t -> int
val reset_stats : t -> unit
