(** Memory-system cost simulator: LLC + memory-encryption engine + EPC
    paging, with deterministic sampling for large scans.

    Workloads describe their memory behaviour (sequential scans, random
    accesses inside a working set) and this module charges cycles through
    the cache model and the engine: {!Hyperenclave_hw.Mem_crypto.Plain}
    for the unprotected baselines, [Sme] for HyperEnclave, [Mee] with a
    93 MB EPC for SGX.  This is where Figure 11's knees (LLC at 8 MB, EPC
    at 93 MB) and Figure 8b's SGX cliff come from.

    Scans larger than the sampling cap are simulated over a deterministic
    sample and the cost scaled, keeping bench runtimes bounded without
    changing per-access averages. *)

open Hyperenclave_hw

type t

(** How data-side virtual addresses translate: native processes and
    HU-Enclaves walk one level of page tables, GU/P-Enclaves walk the
    two-dimensional nested tables (Sec. 4.2's "extra virtualization
    overhead ... two-dimensional page walking"). *)
type translation = One_level | Nested

val create :
  clock:Cycles.t ->
  cost:Cost_model.t ->
  rng:Rng.t ->
  engine:Mem_crypto.engine ->
  ?llc_bytes:int ->
  ?sample_cap:int ->
  ?translation:translation ->
  unit ->
  t
(** Defaults: 8 MiB LLC, 262,144 sampled accesses per operation,
    one-level translation. *)

val tlb_flush : t -> unit
(** World switches flush the data TLB (Sec. 6); backends call this around
    enclave transitions so post-switch re-walks are charged at the
    mode-appropriate rate. *)

val engine : t -> Mem_crypto.engine

val seq_scan : t -> base:int -> bytes:int -> write:bool -> unit
(** Stream through [\[base, base+bytes)] line by line.

    Implementation note shared by {!seq_scan}, {!touch_bytes} and
    {!touch_dependent}: lines are charged per page run — one real
    EPC-residency probe and TLB lookup-and-insert for the first line of
    each 4 KiB page, then the remaining (up to 63) lines accounted as
    deterministic TLB/EPC hits analytically while the stateful LLC model
    still sees every line.  TLB hits draw no randomness, so simulated
    cycles, the RNG stream, swap counts and TLB/cache statistics are
    bit-identical to the per-line reference walk (asserted by the golden
    and property tests against {!seq_scan_reference}). *)

val random_access : t -> base:int -> working_set:int -> count:int -> write:bool -> unit
(** [count] uniformly random line accesses within the working set. *)

val touch_bytes : t -> addr:int -> len:int -> write:bool -> unit
(** Access a small range (an object / record), line-granular, unsampled;
    the first line is a dependent load, the rest stream. *)

val touch_dependent : t -> addr:int -> len:int -> write:bool -> unit
(** Like {!touch_bytes} but every line is a dependent load (pointer
    chasing inside the object, e.g. a B-tree node binary search). *)

val seq_scan_reference : t -> base:int -> bytes:int -> write:bool -> unit

val touch_bytes_reference : t -> addr:int -> len:int -> write:bool -> unit

val touch_dependent_reference : t -> addr:int -> len:int -> write:bool -> unit
(** Naive per-line walks (one EPC probe + one TLB probe + one cache access
    per 64-byte line) — the specification oracles the page-granular fast
    paths are tested against.  Not used on production paths. *)

val flush_all : t -> unit

val swaps : t -> int
(** EPC page swaps incurred so far (Mee engine only). *)

val tlb_stats : t -> int * int
(** [(lookups, hits)] of the internal data TLB.  Fast-path accounting
    (see {!seq_scan}) must keep these identical to a per-line walk; the
    golden regression tests assert exactly that. *)

val cache_stats : t -> int * int
(** [(accesses, misses)] of the LLC model. *)

val resident_pages : t -> int
(** EPC-resident page count (Mee engine only; 0 otherwise). *)

val avg_access_cycles : t -> pattern:[ `Seq | `Random ] -> working_set:int -> float
(** Measured average cycles per access for the pattern at the given
    working-set size — the Fig. 11 metric.  Runs a warm-up pass then a
    measured pass on a private clock; does not disturb [t]'s clock. *)
