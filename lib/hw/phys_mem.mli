(** Simulated physical memory.

    Frames are allocated lazily (a hash table of frame number to 4 KiB
    buffer), so a multi-gigabyte simulated address space costs only what is
    actually touched.  Reads of never-written memory return zeroes, like
    freshly scrubbed DRAM.

    Access *policy* (who may touch which frame) is not enforced here — that
    is the MMU/NPT/IOMMU's job; this module is the raw DRAM array. *)

type t

val create : size_bytes:int -> t
(** [create ~size_bytes] is a physical memory of the given size (rounded up
    to whole pages).  Out-of-range accesses raise [Invalid_argument]. *)

val size_bytes : t -> int
val frames : t -> int

val read_u8 : t -> int -> int
val write_u8 : t -> int -> int -> unit

val read_u64 : t -> int -> int64
(** Little-endian; may span a page boundary. *)

val write_u64 : t -> int -> int64 -> unit

val read_bytes : t -> int -> int -> bytes
(** [read_bytes mem addr len]. *)

val write_bytes : t -> int -> bytes -> unit

val write_sub : t -> int -> bytes -> pos:int -> len:int -> unit
(** [write_sub mem addr buf ~pos ~len] writes [buf[pos, pos+len)] at
    [addr] without copying the slice out first — the allocation-free
    counterpart of {!write_bytes} for recycled staging buffers. *)

val read_into : t -> int -> bytes -> pos:int -> len:int -> unit
(** [read_into mem addr buf ~pos ~len] reads [len] bytes at [addr]
    straight into [buf[pos, pos+len)] — the allocation-free counterpart
    of {!read_bytes}. *)

val blit : t -> src:int -> dst:int -> len:int -> unit
val fill : t -> addr:int -> len:int -> char -> unit

val read_page : t -> frame:int -> bytes
(** Copy of the 4 KiB frame contents. *)

val write_page : t -> frame:int -> bytes -> unit
(** [write_page mem ~frame data] stores [data] (must be exactly one page). *)

val zero_page : t -> frame:int -> unit
(** Scrub a frame back to zeroes (used when the monitor reclaims EPC). *)

val set_write_observer : t -> (int -> unit) option -> unit
(** [set_write_observer mem (Some f)] calls [f frame] just before any
    mutation of [frame] (writes, fills, page zeroing).  Used by lib/mc
    to keep a dirty-frame log so DFS backtracking restores only the
    frames a transition actually touched.  [None] (the default) is a
    single-branch fast path. *)
