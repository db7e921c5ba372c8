(* In-memory span recorder for the traced run.

   A span wraps one call from the benchmark into a layer of the system
   and records, at entry and exit: host nanoseconds, the process-wide
   simulated work counter ([Cycles.total_ticked]), GC minor words, and
   the primary node's platform clock.  Spans nest through a parent
   index and carry the id of the closed-loop call that caused them.

   Storage is a flat, doubling [int array] (one row of [stride] ints per
   span) so that recording allocates nothing on the minor heap between a
   span's two readings.  Disabled recording costs one branch. *)

open Hyperenclave

let stride = 11

(* Row layout. *)
let f_name = 0
let f_call = 1
let f_parent = 2
let f_ns0 = 3
let f_ns1 = 4
let f_tk0 = 5
let f_tk1 = 6
let f_w0 = 7
let f_w1 = 8
let f_pc0 = 9
let f_pc1 = 10

let names : string array ref = ref [||]

(* Layer names are registered once at module initialisation; a span
   refers to its layer by index. *)
let layer name =
  let id = Array.length !names in
  names := Array.append !names [| name |];
  id

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let minor_words () = int_of_float (Gc.minor_words ())

let enabled = ref false
let rows = ref (Array.make (stride * 4096) 0)
let count = ref 0
let top = ref (-1)
let call_id = ref 0
let clock : Cycles.t option ref = ref None

let reset () =
  count := 0;
  top := -1;
  call_id := 0

let platform_now () = match !clock with Some c -> Cycles.now c | None -> 0

let open_span name =
  let i = !count in
  if stride * (i + 1) > Array.length !rows then begin
    let bigger = Array.make (2 * Array.length !rows) 0 in
    Array.blit !rows 0 bigger 0 (Array.length !rows);
    rows := bigger
  end;
  count := i + 1;
  let r = !rows and b = stride * i in
  r.(b + f_name) <- name;
  r.(b + f_call) <- !call_id;
  r.(b + f_parent) <- !top;
  top := i;
  r.(b + f_pc0) <- platform_now ();
  r.(b + f_w0) <- minor_words ();
  r.(b + f_tk0) <- Cycles.total_ticked ();
  r.(b + f_ns0) <- now_ns ();
  i

let close_span i =
  let ns = now_ns () in
  let r = !rows and b = stride * i in
  r.(b + f_ns1) <- ns;
  r.(b + f_tk1) <- Cycles.total_ticked ();
  r.(b + f_w1) <- minor_words ();
  r.(b + f_pc1) <- platform_now ();
  top := r.(b + f_parent)

let span name f =
  if not !enabled then f ()
  else begin
    let i = open_span name in
    match f () with
    | v ->
        close_span i;
        v
    | exception e ->
        close_span i;
        raise e
  end

(* --- aggregation ---------------------------------------------------------- *)

type self = {
  mutable spans : int;
  mutable ns : int;
  mutable ticks : int;
  mutable words : int;
  mutable platform : int;
}

let field i f = !rows.((stride * i) + f)

(* Per-layer self time: each span's interval minus the intervals of its
   direct children, summed per layer name. *)
let self_times () =
  let n = !count in
  let child = Array.make (n * 4) 0 in
  for i = 0 to n - 1 do
    let p = field i f_parent in
    if p >= 0 then begin
      child.(4 * p) <- child.(4 * p) + field i f_ns1 - field i f_ns0;
      child.((4 * p) + 1) <- child.((4 * p) + 1) + field i f_tk1 - field i f_tk0;
      child.((4 * p) + 2) <- child.((4 * p) + 2) + field i f_w1 - field i f_w0;
      child.((4 * p) + 3) <- child.((4 * p) + 3) + field i f_pc1 - field i f_pc0
    end
  done;
  let per =
    Array.map
      (fun _ -> { spans = 0; ns = 0; ticks = 0; words = 0; platform = 0 })
      !names
  in
  for i = 0 to n - 1 do
    let s = per.(field i f_name) in
    s.spans <- s.spans + 1;
    s.ns <- s.ns + field i f_ns1 - field i f_ns0 - child.(4 * i);
    s.ticks <- s.ticks + field i f_tk1 - field i f_tk0 - child.((4 * i) + 1);
    s.words <- s.words + field i f_w1 - field i f_w0 - child.((4 * i) + 2);
    s.platform <-
      s.platform + field i f_pc1 - field i f_pc0 - child.((4 * i) + 3)
  done;
  per

let lookup per name =
  let rec go i =
    if i >= Array.length !names then invalid_arg ("Trace.lookup: " ^ name)
    else if !names.(i) = name then per.(i)
    else go (i + 1)
  in
  go 0

(* Chrome trace-event JSON (complete events, microsecond timestamps
   relative to the first span), loadable in chrome://tracing or
   Perfetto. *)
let write_chrome path =
  let n = !count in
  let oc = open_out path in
  let base = if n > 0 then field 0 f_ns0 else 0 in
  output_string oc "{\"traceEvents\":[";
  for i = 0 to n - 1 do
    if i > 0 then output_string oc ",\n";
    Printf.fprintf oc
      "{\"name\":\"%s\",\"cat\":\"perfbench\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
       \"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d,\"call\":%d,\
       \"sim_cycles\":%d,\"minor_words\":%d,\"platform_cycles\":%d}}"
      !names.(field i f_name)
      (float_of_int (field i f_ns0 - base) /. 1e3)
      (float_of_int (field i f_ns1 - field i f_ns0) /. 1e3)
      i (field i f_parent) (field i f_call)
      (field i f_tk1 - field i f_tk0)
      (field i f_w1 - field i f_w0)
      (field i f_pc1 - field i f_pc0)
  done;
  output_string oc "],\"displayTimeUnit\":\"ns\"}\n";
  close_out oc
