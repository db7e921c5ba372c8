(** Physical frame allocator.

    RustMonitor manages the reserved physical region as a free list of 4 KiB
    frames (Sec. 5.1); the primary OS uses a separate allocator over its own
    region.  This module serves both. *)

type t

exception Out_of_frames

val create : base_frame:int -> nframes:int -> t
(** An allocator over frames [\[base_frame, base_frame + nframes)]. *)

val alloc : t -> int
(** Take a free frame.  @raise Out_of_frames when exhausted. *)

val alloc_contiguous : t -> int -> int
(** [alloc_contiguous t n] takes [n] physically contiguous frames and
    returns the first.  @raise Out_of_frames if no run of [n] exists. *)

val free : t -> int -> unit
(** Return a frame.  Double-free and out-of-range raise [Invalid_argument]. *)

val owns : t -> int -> bool
(** Whether the frame lies in this allocator's range (free or not). *)

val free_count : t -> int
val used_count : t -> int
val total : t -> int
val base_frame : t -> int

val hint : t -> int
(** Next scan index [alloc] will try — part of the allocator's
    behavioural state, so lib/mc folds it into canonical hashes. *)

type snapshot

val snapshot : t -> snapshot
(** Capture the free map, count and scan hint (for lib/mc backtracking;
    the hint is included so allocation order replays identically). *)

val restore : t -> snapshot -> unit
(** Restore in place.  @raise Invalid_argument if the snapshot came from
    an allocator of a different size. *)
