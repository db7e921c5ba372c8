type t = {
  base : int;
  nframes : int;
  free : bool array; (* indexed by frame - base *)
  mutable free_count : int;
  mutable hint : int; (* next index to try, keeps alloc O(1) amortized *)
}

exception Out_of_frames

let create ~base_frame ~nframes =
  if nframes <= 0 then invalid_arg "Frame_alloc.create: nframes <= 0";
  {
    base = base_frame;
    nframes;
    free = Array.make nframes true;
    free_count = nframes;
    hint = 0;
  }

let owns t frame = frame >= t.base && frame < t.base + t.nframes

let alloc t =
  if t.free_count = 0 then raise Out_of_frames;
  let rec scan i remaining =
    if remaining = 0 then raise Out_of_frames
    else
      let i = if i >= t.nframes then 0 else i in
      if t.free.(i) then i else scan (i + 1) (remaining - 1)
  in
  let i = scan t.hint t.nframes in
  t.free.(i) <- false;
  t.free_count <- t.free_count - 1;
  t.hint <- i + 1;
  t.base + i

let alloc_contiguous t n =
  if n <= 0 then invalid_arg "Frame_alloc.alloc_contiguous: n <= 0";
  if n > t.free_count then raise Out_of_frames;
  let run_start = ref 0 and run_len = ref 0 and found = ref (-1) in
  (try
     for i = 0 to t.nframes - 1 do
       if t.free.(i) then begin
         if !run_len = 0 then run_start := i;
         incr run_len;
         if !run_len = n then begin
           found := !run_start;
           raise Exit
         end
       end
       else run_len := 0
     done
   with Exit -> ());
  if !found < 0 then raise Out_of_frames;
  for i = !found to !found + n - 1 do
    t.free.(i) <- false
  done;
  t.free_count <- t.free_count - n;
  t.base + !found

let free t frame =
  if not (owns t frame) then invalid_arg "Frame_alloc.free: out of range";
  let i = frame - t.base in
  if t.free.(i) then invalid_arg "Frame_alloc.free: double free";
  t.free.(i) <- true;
  t.free_count <- t.free_count + 1

let free_count t = t.free_count
let used_count t = t.nframes - t.free_count
let total t = t.nframes
let base_frame t = t.base
let hint t = t.hint

type snapshot = { s_free : bool array; s_free_count : int; s_hint : int }

let snapshot t =
  { s_free = Array.copy t.free; s_free_count = t.free_count; s_hint = t.hint }

let restore t snap =
  if Array.length snap.s_free <> t.nframes then
    invalid_arg "Frame_alloc.restore: snapshot from a different allocator";
  Array.blit snap.s_free 0 t.free 0 t.nframes;
  t.free_count <- snap.s_free_count;
  t.hint <- snap.s_hint
