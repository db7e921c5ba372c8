(* Set-associative LLC model on a flat packed slab.

   [access] runs once per simulated 64-byte line, so the representation
   is optimized for it: each set is one contiguous block of [ways] ints,
   each packing a way's whole state as

     (lru_tick lsl 33) lor (dirty lsl 32) lor line_tag

   (-1 = invalid way).  A lookup therefore touches a single run of at
   most [ways] host words — one or two cache lines — instead of chasing
   per-line records across the heap, and the packed words compare in LRU
   order directly: ticks come from a per-access counter and are unique,
   so ordering by the full word is ordering by tick, and replacement
   decisions, hit/miss results and all statistics match the original
   record-based model bit-for-bit (the golden cycle tests depend on
   that).

   Line tags occupy the low 32 bits, which bounds addresses to 256 GB of
   simulated space — far above any workload here.  The tick field has 30
   bits; [renormalize] compresses stamps to per-set ranks before it can
   overflow, which preserves within-set order (LRU never compares across
   sets) and hence every observable result. *)

type t = {
  line_bytes : int;
  line_shift : int; (* -1 when line_bytes is not a power of two *)
  ways : int;
  sets : int;
  slab : int array; (* sets x ways packed words *)
  mutable tick : int;
  mutable accesses : int;
  mutable misses : int;
}

type result = Hit | Miss of { evicted_dirty : bool }

let miss_clean = Miss { evicted_dirty = false }
let miss_dirty = Miss { evicted_dirty = true }
let invalid = -1
let tag_mask = 0xFFFF_FFFF
let renorm_threshold = 1 lsl 29

let rec pow2_floor n = if n land (n - 1) = 0 then n else pow2_floor (n land (n - 1))

let shift_of n =
  let rec go v s = if v = 1 then s else go (v lsr 1) (s + 1) in
  if n > 0 && n land (n - 1) = 0 then go n 0 else -1

let create ?(line_bytes = 64) ?(ways = 16) ~size_bytes () =
  let sets = max 1 (pow2_floor (size_bytes / line_bytes / ways)) in
  {
    line_bytes;
    line_shift = shift_of line_bytes;
    ways;
    sets;
    slab = Array.make (sets * ways) invalid;
    tick = 0;
    accesses = 0;
    misses = 0;
  }

let line_no t addr =
  if t.line_shift >= 0 then addr lsr t.line_shift else addr / t.line_bytes

(* Replace each valid way's tick with its rank among the valid ways of
   its set (1..ways).  Within-set order — the only order LRU ever
   consults — is unchanged, so replacement behavior is identical; this
   just keeps the 30-bit tick field from overflowing on very long runs. *)
let renormalize t =
  let ways = t.ways in
  let tmp = Array.make ways 0 in
  for set = 0 to t.sets - 1 do
    let base = set * ways in
    Array.blit t.slab base tmp 0 ways;
    for i = 0 to ways - 1 do
      let w = tmp.(i) in
      if w <> invalid then begin
        let rank = ref 1 in
        for j = 0 to ways - 1 do
          if tmp.(j) <> invalid && tmp.(j) < w then incr rank
        done;
        t.slab.(base + i) <- (!rank lsl 33) lor (w land ((1 lsl 33) - 1))
      end
    done
  done;
  t.tick <- ways + 1

let access t ?(write = false) addr =
  t.accesses <- t.accesses + 1;
  if t.tick >= renorm_threshold then renormalize t;
  t.tick <- t.tick + 1;
  let tag = line_no t addr in
  let base = (tag land (t.sets - 1)) * t.ways in
  let slab = t.slab in
  let ways = t.ways in
  let hit = ref (-1) in
  let i = ref 0 in
  while !hit < 0 && !i < ways do
    let w = Array.unsafe_get slab (base + !i) in
    if w <> invalid && w land tag_mask = tag then hit := base + !i;
    incr i
  done;
  if !hit >= 0 then begin
    let dirty = (if write then 1 else 0) lor ((slab.(!hit) lsr 32) land 1) in
    slab.(!hit) <- (t.tick lsl 33) lor (dirty lsl 32) lor tag;
    Hit
  end
  else begin
    t.misses <- t.misses + 1;
    (* Victim = first invalid way if any, else LRU among valid ways;
       unique ticks in the top bits make packed-word order = tick order. *)
    let victim = ref base in
    for i = 1 to ways - 1 do
      let ii = base + i in
      if Array.unsafe_get slab ii = invalid then begin
        if slab.(!victim) <> invalid then victim := ii
      end
      else if slab.(!victim) <> invalid
              && Array.unsafe_get slab ii < slab.(!victim)
      then victim := ii
    done;
    let v = !victim in
    let evicted_dirty = slab.(v) <> invalid && (slab.(v) lsr 32) land 1 = 1 in
    slab.(v) <- (t.tick lsl 33) lor ((if write then 1 else 0) lsl 32) lor tag;
    if evicted_dirty then miss_dirty else miss_clean
  end

let flush_line t addr =
  let tag = line_no t addr in
  let base = (tag land (t.sets - 1)) * t.ways in
  for i = 0 to t.ways - 1 do
    let w = t.slab.(base + i) in
    if w <> invalid && w land tag_mask = tag then t.slab.(base + i) <- invalid
  done

let flush_all t = Array.fill t.slab 0 (Array.length t.slab) invalid
let size_bytes t = t.sets * t.ways * t.line_bytes
let accesses t = t.accesses
let misses t = t.misses

let reset_stats t =
  t.accesses <- 0;
  t.misses <- 0
