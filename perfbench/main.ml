(* The benchmark of the attested request path.

     main.exe --workload echo_plane|libos_mix|fleet_churn --seed N
              --seconds S --trace 0|1 [--trace-out FILE]
     main.exe --selftest
     main.exe --determinism --workload NAME --seed N

   One single-threaded process drives a workload closed loop through the
   system's public API only.  Set-up (build, attested handshakes, data
   loading, lazy LibOS construction and an untimed warm-up) is timed on
   its own.  The timed phase is a window of a fixed number of calls per
   workload, the same for every build of the program; every reply is
   checked.  More timed set-ups fill the run up to [--seconds].

   Two currencies are reported over the window and kept apart: host cost
   (wall-clock nanoseconds and GC minor words of this OCaml process) and
   simulated cycles, which depend on the seed and not on the host.

   [--trace 0] prints the end-to-end metrics.  The GC's peak heap is read
   when the window ends, in a process that has set up only once.  [--trace 1] runs the window
   twice from fresh set-ups — untraced, then with spans around every call
   the benchmark makes into a layer — and prints the per-layer metrics;
   it fails the run unless the traced window's simulated metrics equal
   the untraced ones and its simulated cycles reconcile (see
   [reconciles]).  The last line of standard output is one JSON
   object. *)

open Hyperenclave

let clock_hz = 2.2e9

type spec = {
  setup : seed:int64 -> Workload.instance;
  warmup : int;  (** untimed calls at the end of set-up *)
  calls : int;  (** calls in the timed window *)
}

(* Fewest timed set-ups in a [--trace 0] run; [setup_s] is the fastest. *)
let min_setups = 20

let workloads =
  [
    ("echo_plane", { setup = Echo_plane.setup; warmup = 32; calls = 2000 });
    ("libos_mix", { setup = Libos_mix.setup; warmup = 48; calls = 12000 });
    ("fleet_churn", { setup = Fleet_churn.setup; warmup = 64; calls = 10000 });
  ]

(* --- growable sample buffers --------------------------------------------- *)

module Samples = struct
  type t = { mutable a : int array; mutable n : int }

  let create () = { a = Array.make 4096 0; n = 0 }

  let push t v =
    if t.n = Array.length t.a then begin
      let b = Array.make (2 * t.n) 0 in
      Array.blit t.a 0 b 0 t.n;
      t.a <- b
    end;
    t.a.(t.n) <- v;
    t.n <- t.n + 1

  let sum t =
    let s = ref 0 in
    for i = 0 to t.n - 1 do
      s := !s + t.a.(i)
    done;
    !s

  (* Nearest-rank percentile. *)
  let pct t p =
    if t.n = 0 then 0
    else begin
      let s = Array.sub t.a 0 t.n in
      Array.sort compare s;
      s.(max 0 (min (t.n - 1) (int_of_float (ceil (p *. float_of_int t.n)) - 1)))
    end
end

let div a b = if b = 0. then 0. else a /. b
let fdiv a b = div (float_of_int a) (float_of_int b)

(* --- reading the system from outside ------------------------------------- *)

let telemetry_keys =
  [
    "switch.eenter";
    "switch.eexit";
    "switch.aex";
    "sdk.ocall";
    "sdk.ocall_ring";
    "sdk.ocall_switchless";
    "epc.commit";
    "epc.evict";
    "epc.swap_in";
    "sdk.ring_dispatch";
    "sdk.ring_slots";
  ]

type snapshot = {
  ticked : int;
  platform : int;  (** platform clocks, summed over nodes *)
  busy : int;
  makespan : int;
  core_makespan : int;  (** sum over nodes of cores x makespan *)
  sched_failed : int;
  steals : int;
  preempts : int;
  tele : int list;  (** [telemetry_keys], summed over nodes *)
  net : Netsim.stats;
}

let snapshot (inst : Workload.instance) =
  let platform = ref 0 and busy = ref 0 and makespan = ref 0 and core_makespan = ref 0 in
  let failed = ref 0 and steals = ref 0 and preempts = ref 0 in
  Array.iter
    (fun ((p : Platform.t), plane) ->
      let s = Serve.sched_stats plane in
      platform := !platform + Cycles.now p.Platform.clock;
      Array.iter (fun (c : Sched.core_stats) -> busy := !busy + c.Sched.busy) s.Sched.per_core;
      makespan := !makespan + s.Sched.makespan;
      core_makespan := !core_makespan + (Array.length s.Sched.per_core * s.Sched.makespan);
      failed := !failed + s.Sched.failed_requests;
      steals := !steals + s.Sched.steals;
      preempts := !preempts + s.Sched.preempts)
    inst.nodes;
  let tele =
    List.map
      (fun k ->
        Array.fold_left
          (fun sum ((p : Platform.t), _) ->
            sum + Telemetry.counter (Monitor.telemetry p.Platform.monitor) k)
          0 inst.nodes)
      telemetry_keys
  in
  {
    ticked = Cycles.total_ticked ();
    platform = !platform;
    busy = !busy;
    makespan = !makespan;
    core_makespan = !core_makespan;
    sched_failed = !failed;
    steals = !steals;
    preempts = !preempts;
    tele;
    net =
      (match inst.net with
      | Some n -> Netsim.stats n
      | None -> { Netsim.sent = 0; delivered = 0; dropped = 0; bytes_moved = 0; cycles_charged = 0 });
  }

(* Simulated latency so far: the plane's serial work (platform clock
   minus the scheduled slices it contains, which run on the platform
   clock and are charged again to a core), the scheduler's critical path
   (makespan) and the wire, summed over nodes.  A call's latency is the
   difference of two readings. *)
let sim_now (inst : Workload.instance) =
  let t = ref 0 in
  Array.iter
    (fun ((p : Platform.t), plane) ->
      let s = Serve.sched_stats plane in
      let busy =
        Array.fold_left (fun b (c : Sched.core_stats) -> b + c.Sched.busy) 0 s.Sched.per_core
      in
      t := !t + Cycles.now p.Platform.clock - busy + s.Sched.makespan)
    inst.nodes;
  match inst.net with Some n -> !t + (Netsim.stats n).Netsim.cycles_charged | None -> !t

let live_words () =
  Gc.compact ();
  (Gc.stat ()).Gc.live_words

let top_heap_words () = (Gc.quick_stat ()).Gc.top_heap_words

(* --- timed windows ----------------------------------------------------------- *)

(* A window is a fixed number of calls, the same for every build of the
   program, run right after a fresh set-up.  The count is fixed, not the
   time, because host cost per call grows with the calls served: over a
   fixed time a faster program would serve more calls and pay more per
   call for it. *)
type window = {
  setup_ns : int;
  window_ns : int;  (** wall time of the whole window *)
  attempted : int;
  verified : int;
  mismatches : int;
  work_ns : int;  (** host time in calls and scheduled fleet work *)
  work_words : int;
  call_ns : Samples.t;
  lat : Samples.t;  (** simulated latency per call *)
  driver_ticks : int;  (** [total_ticked] deltas bracketing each call and [between] *)
  before : snapshot;
  after : snapshot;
  live_growth : int;
  heap_setup_words : int;  (** GC high-water mark when the window starts *)
  heap_end_words : int;  (** ... and when it ends *)
  counters : Workload.counters;
  max_pause : int;
  spans : Trace.self array;
}

let time_setup spec ~seed =
  Workload.reset_setup_counters ();
  let t0 = Trace.now_ns () in
  let inst = spec.setup ~seed in
  for i = 0 to spec.warmup - 1 do
    let o = inst.Workload.prepare i () in
    if o.Workload.verified <> o.Workload.attempted then
      Workload.fail "warm-up call %d: %d of %d replies verified" i o.Workload.verified
        o.Workload.attempted;
    inst.Workload.between i
  done;
  (inst, Trace.now_ns () - t0)

(* One timed set-up and one window; the instance is left running. *)
let run_window spec ~seed ~traced ~measure_live ~calls =
  Gc.full_major ();
  let inst, setup_ns = time_setup spec ~seed in
  Workload.reset_counters ();
  let live0 = if measure_live then live_words () else 0 in
  Trace.reset ();
  (* Platform-clock self time is attributed on single-node workloads. *)
  Trace.clock :=
    (match inst.Workload.nodes with
    | [| ((p : Platform.t), _) |] -> Some p.Platform.clock
    | _ -> None);
  Trace.enabled := traced;
  let heap_setup_words = top_heap_words () in
  let before = snapshot inst in
  let start = Trace.now_ns () in
  let call_ns = Samples.create () and lat = Samples.create () in
  let attempted = ref 0 and verified = ref 0 in
  let work_ns = ref 0 and work_words = ref 0 and driver_ticks = ref 0 in
  for n = 0 to calls - 1 do
    let i = spec.warmup + n in
    let call = inst.Workload.prepare i in
    let s0 = sim_now inst in
    Trace.call_id := i;
    let k0 = Cycles.total_ticked () in
    let w0 = Trace.minor_words () in
    let t0 = Trace.now_ns () in
    let o = call () in
    let t1 = Trace.now_ns () in
    let w1 = Trace.minor_words () in
    let k1 = Cycles.total_ticked () in
    Samples.push lat (sim_now inst - s0);
    let w2 = Trace.minor_words () in
    let k2 = Cycles.total_ticked () in
    let t2 = Trace.now_ns () in
    inst.Workload.between i;
    let t3 = Trace.now_ns () in
    let w3 = Trace.minor_words () in
    let k3 = Cycles.total_ticked () in
    Samples.push call_ns (t1 - t0);
    work_ns := !work_ns + (t1 - t0) + (t3 - t2);
    work_words := !work_words + (w1 - w0) + (w3 - w2);
    driver_ticks := !driver_ticks + (k1 - k0) + (k3 - k2);
    attempted := !attempted + o.Workload.attempted;
    verified := !verified + o.Workload.verified
  done;
  Trace.enabled := false;
  let window_ns = Trace.now_ns () - start in
  let heap_end_words = top_heap_words () in
  let after = snapshot inst in
  let live_growth = if measure_live then live_words () - live0 else 0 in
  ( {
      setup_ns;
      window_ns;
      attempted = !attempted;
      verified = !verified;
      mismatches = Workload.counters.Workload.mismatches;
      work_ns = !work_ns;
      work_words = !work_words;
      call_ns;
      lat;
      driver_ticks = !driver_ticks;
      before;
      after;
      live_growth;
      heap_setup_words;
      heap_end_words;
      counters = Workload.copy_counters ();
      max_pause =
        (match inst.Workload.cluster with
        | Some cl -> (Cluster.stats cl).Cluster.max_pause
        | None -> 0);
      spans = Trace.self_times ();
    },
    inst )

(* One window, then timed set-ups (each destroyed again) until at least
   [min_setups] set-ups in all have run and [seconds] have passed since
   the start.  They run after the window so that they leave no mark on
   the heap it measures, and spread over the run so that the fastest
   does not rest on one moment of a shared host. *)
type run = { window : window; setups_ns : int list (** the window's own set-up first *) }

let run_phase spec ~seed ~min_setups ~traced ~measure_live ~seconds =
  let deadline = Trace.now_ns () + int_of_float (seconds *. 1e9) in
  let w, inst = run_window spec ~seed ~traced ~measure_live ~calls:spec.calls in
  inst.Workload.destroy ();
  let rec more n acc =
    if n >= min_setups && Trace.now_ns () >= deadline then List.rev acc
    else begin
      Gc.full_major ();
      let i, ns = time_setup spec ~seed in
      i.Workload.destroy ();
      more (n + 1) (ns :: acc)
    end
  in
  { window = w; setups_ns = more 1 [ w.setup_ns ] }

(* --- metrics -------------------------------------------------------------- *)

(* The set-up time a run reports: its fastest set-up.  On a shared host a
   set-up takes either about its own time or 1.6 to 1.9 times that, in
   stretches that can cover whole runs, so any middle statistic follows
   the share of slow stretches in a run.  Over sets of ten runs of one
   build, on a 2-core Xeon VM, the median of the runs' median set-up moved
   from 0.240 s to 0.306 s (echo_plane), the median of their lower decile
   from 0.184 s to 0.230 s; the fastest set-up is slow only when every
   set-up in the run is.  It still moves with the work done in set-up,
   since every set-up does all of it. *)
let fastest l = float_of_int (List.fold_left min max_int l)

let median l =
  let a = Array.of_list (List.sort compare l) in
  let n = Array.length a in
  if n = 0 then 0. else if n mod 2 = 1 then float_of_int a.(n / 2)
  else float_of_int (a.((n / 2) - 1) + a.(n / 2)) /. 2.

let sim_rps (w : window) = fdiv w.verified (Samples.sum w.lat) *. clock_hz

(* Simulated end-to-end metrics: identical for equal seeds. *)
let sim_metrics (r : window) =
  [
    ("sim_cycles_per_req", fdiv (r.after.ticked - r.before.ticked) r.verified, "cycles");
    ("sim_call_p50_cycles", float_of_int (Samples.pct r.lat 0.50), "cycles");
    ("sim_call_p99_cycles", float_of_int (Samples.pct r.lat 0.99), "cycles");
    ("sim_rps", sim_rps r, "req/s");
  ]

let host_rps (w : window) = fdiv w.verified w.work_ns *. 1e9
let host_call_us (w : window) p = float_of_int (Samples.pct w.call_ns p) /. 1e3
let mb words = float_of_int (words * (Sys.word_size / 8)) /. 1e6

(* End-to-end metrics.  Host wall-clock time is not among them: on a
   shared machine, memory-bound code alternates between a fast and a roughly 2x slower
   regime for seconds to minutes at a time, so it does not repeat from
   run to run.  It is reported with the per-layer metrics. *)
let end_to_end r =
  let w = r.window in
  [
    ("minor_words_per_req", fdiv w.work_words w.verified, "words");
    ("peak_heap_mb", mb w.heap_end_words, "MB");
    ("setup_s", fastest r.setups_ns /. 1e9, "s");
  ]
  @ sim_metrics w
  @ [ ("verified_frac", fdiv w.verified w.attempted, "ratio") ]

let tele_delta r key =
  let rec find ks a b =
    match (ks, a, b) with
    | k :: ks, x :: a, y :: b -> if k = key then y - x else find ks a b
    | _ -> invalid_arg key
  in
  find telemetry_keys r.before.tele r.after.tele

(* Simulated self time of every reported layer; the [call] span that
   encloses a whole call is not one. *)
let reported_ticks r =
  let sum = ref 0 in
  Array.iteri (fun i s -> if i <> Workload.l_call then sum := !sum + s.Trace.ticks) r.spans;
  !sum

(* What the driver's own brackets around each call and [between] saw and
   no reported layer claims: work inside a call but outside every wrapped
   layer (the [call] span's self time), and fleet work outside a
   migration span. *)
let unattributed r = r.driver_ticks - reported_ticks r

(* The traced window reconciles when the reported layers plus the
   unattributed rest equal the window's [total_ticked] delta (so the
   brackets, read apart from the spans, missed no simulated work), and
   no simulated cycle inside a call escaped the wrapped layers.  Prints
   what failed. *)
let reconciles r =
  let phase = r.after.ticked - r.before.ticked in
  let call_self = r.spans.(Workload.l_call).Trace.ticks in
  let fail fmt = Printf.ksprintf (fun m -> prerr_endline ("perfbench: " ^ m); false) fmt in
  if reported_ticks r + unattributed r <> phase then
    fail "layers %d + unattributed %d <> total_ticked delta %d" (reported_ticks r)
      (unattributed r) phase
  else if call_self <> 0 then
    fail "%d simulated cycles inside calls are outside every wrapped layer" call_self
  else unattributed r >= 0 || fail "negative unattributed cycles %d" (unattributed r)

let per_layer ~untraced (r : window) =
  let reqs = max 1 r.verified in
  let per v = fdiv v reqs in
  let self name = Trace.lookup r.spans name in
  let seal = self "client.seal" and opn = self "client.open" in
  let submit = self "serve.submit" and flush = self "serve.flush" in
  let ccall = self "cluster.call" and connect = self "cluster.connect" in
  let migrate = self "cluster.migrate" in
  let d f = f r.after - f r.before in
  let busy = d (fun s -> s.busy) in
  let net f = f r.after.net - f r.before.net in
  let service kind =
    let name = "services." ^ Services.kind_name kind in
    let s = self name in
    let n = !(List.assoc kind r.counters.Workload.service_reqs) in
    [
      (name ^ ".ns_per_req", fdiv s.Trace.ns n, "ns");
      (name ^ ".sim_cycles_per_req", fdiv s.Trace.ticks n, "cycles");
      (name ^ ".words_per_req", fdiv s.Trace.words n, "words");
    ]
  in
  let c = r.counters in
  let monitor key = per (tele_delta r key) in
  [
    ("host.rps", host_rps untraced, "req/s");
    ("host.call_p50_us", host_call_us untraced 0.50, "us");
    ("host.call_p90_us", host_call_us untraced 0.90, "us");
    ("client.seal_ns_per_req", per seal.Trace.ns, "ns");
    ("client.open_ns_per_req", per opn.Trace.ns, "ns");
    ("client.words_per_req", per (seal.Trace.words + opn.Trace.words), "words");
    ("serve.submit.ns_per_req", per submit.Trace.ns, "ns");
    ("serve.submit.sim_cycles_per_req", per submit.Trace.ticks, "cycles");
    ("serve.submit.rejects", float_of_int c.Workload.rejects, "count");
    ("serve.flush.ns_per_req", per flush.Trace.ns, "ns");
    ("serve.flush.words_per_req", per flush.Trace.words, "words");
    ("serve.flush.plane_cycles_per_req", per flush.Trace.platform, "cycles");
    ("serve.flush.makespan_cycles_per_req", per (d (fun s -> s.makespan)), "cycles");
    ("sched.busy_cycles_per_req", per busy, "cycles");
    ("sched.utilization", fdiv busy (d (fun s -> s.core_makespan)), "ratio");
    ("sched.steals", float_of_int (d (fun s -> s.steals)), "count");
    ("sched.preempts", float_of_int (d (fun s -> s.preempts)), "count");
    ("sched.failed", float_of_int (d (fun s -> s.sched_failed)), "count");
    ( "sdk.ring_slots_per_dispatch",
      fdiv (tele_delta r "sdk.ring_slots") (tele_delta r "sdk.ring_dispatch"),
      "slots" );
    ("monitor.eenter_per_req", monitor "switch.eenter", "count");
    ("monitor.eexit_per_req", monitor "switch.eexit", "count");
    ("monitor.aex_per_req", monitor "switch.aex", "count");
    ( "monitor.ocall_per_req",
      per
        (tele_delta r "sdk.ocall" + tele_delta r "sdk.ocall_ring"
        + tele_delta r "sdk.ocall_switchless"),
      "count" );
    ("monitor.epc_commit_per_req", monitor "epc.commit", "count");
    ("monitor.epc_evict_per_req", monitor "epc.evict", "count");
    ("monitor.epc_swap_in_per_req", monitor "epc.swap_in", "count");
  ]
  @ List.concat_map service Workload.service_kinds
  @ [
      ("mem_sim.llc_miss_ratio", fdiv c.Workload.llc_misses c.Workload.llc_accesses, "ratio");
      ( "mem_sim.tlb_miss_ratio",
        fdiv (c.Workload.tlb_lookups - c.Workload.tlb_hits) c.Workload.tlb_lookups,
        "ratio" );
      ("mem_sim.swaps", float_of_int c.Workload.swaps, "count");
      ("serve.handshake.sim_cycles", fdiv c.Workload.handshake_cycles c.Workload.handshakes, "cycles");
      ("client.establish.ns", fdiv c.Workload.establish_ns c.Workload.handshakes, "ns");
      ("cluster.connect.ns", fdiv connect.Trace.ns connect.Trace.spans, "ns");
      ("cluster.connect.sim_cycles", fdiv connect.Trace.ticks connect.Trace.spans, "cycles");
      ("cluster.call.ns_per_req", per ccall.Trace.ns, "ns");
      ("cluster.call.sim_cycles_per_req", per ccall.Trace.ticks, "cycles");
      ("cluster.reroutes", float_of_int c.Workload.reroutes, "count");
      ("cluster.migrate.ns", fdiv migrate.Trace.ns migrate.Trace.spans, "ns");
      ("cluster.migrate.sim_cycles", fdiv migrate.Trace.ticks migrate.Trace.spans, "cycles");
      ("cluster.migrate.refused", float_of_int c.Workload.migrations_refused, "count");
      ("cluster.max_pause_cycles", float_of_int r.max_pause, "cycles");
      ("netsim.cycles_per_req", per (net (fun s -> s.Netsim.cycles_charged)), "cycles");
      ("netsim.bytes_per_req", per (net (fun s -> s.Netsim.bytes_moved)), "bytes");
      ("netsim.messages_per_req", per (net (fun s -> s.Netsim.sent)), "count");
      ( "netsim.delivered_ratio",
        fdiv (net (fun s -> s.Netsim.delivered)) (net (fun s -> s.Netsim.sent)),
        "ratio" );
      ( "driver.tracing_overhead",
        div
          (float_of_int (Samples.pct r.call_ns 0.5))
          (float_of_int (Samples.pct untraced.call_ns 0.5))
        -. 1.,
        "ratio" );
      ("driver.heap_growth_mb", mb (untraced.heap_end_words - untraced.heap_setup_words), "MB");
      ("driver.unattributed_sim_cycles", float_of_int (unattributed r), "cycles");
      ( "driver.live_words_per_req",
        fdiv untraced.live_growth (max 1 untraced.verified),
        "words" );
    ]

(* --- output --------------------------------------------------------------- *)

let print_result ~correct ~attempted ~failed metrics =
  List.iter
    (fun (name, v, unit) -> Printf.printf "  %-40s %18.4f %s\n" name v unit)
    metrics;
  let json =
    String.concat ", "
      (List.map
         (fun (name, v, unit) ->
           Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name
             (if Float.is_finite v then v else 0.)
             unit)
         metrics)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed json

(* --- entry points ---------------------------------------------------------- *)

let ok (w : window) = w.verified = w.attempted && w.mismatches = 0

let run ~workload ~seed ~seconds ~trace ~trace_out =
  let spec =
    match List.assoc_opt workload workloads with
    | Some s -> s
    | None ->
        Printf.eprintf "perfbench: unknown workload %S (one of %s)\n" workload
          (String.concat ", " (List.map fst workloads));
        exit 2
  in
  let print_run what r =
    let w = r.window in
    Printf.printf
      "%s seed %Ld%s: %d calls in %.2f s (host %.0f ns/req), %d requests, %d verified, %d \
       set-ups (fastest %.1f ms, median %.1f ms, slowest %.1f ms)\n"
      workload seed what spec.calls
      (float_of_int w.window_ns /. 1e9)
      (fdiv w.work_ns w.verified) w.attempted w.verified (List.length r.setups_ns)
      (fastest r.setups_ns /. 1e6)
      (median r.setups_ns /. 1e6)
      (float_of_int (List.fold_left max 0 r.setups_ns) /. 1e6)
  in
  if not trace then begin
    let r = run_phase spec ~seed ~min_setups ~traced:false ~measure_live:false ~seconds in
    let w = r.window in
    print_run "" r;
    print_result ~correct:(ok w) ~attempted:w.attempted ~failed:(w.attempted - w.verified)
      (end_to_end r)
  end
  else begin
    let half = seconds /. 2. in
    let u = run_phase spec ~seed ~min_setups:1 ~traced:false ~measure_live:true ~seconds:half in
    let t = run_phase spec ~seed ~min_setups:1 ~traced:true ~measure_live:false ~seconds:half in
    Option.iter Trace.write_chrome trace_out;
    let uw = u.window and tw = t.window in
    let same_sim = sim_metrics uw = sim_metrics tw in
    if not same_sim then prerr_endline "perfbench: traced and untraced simulated metrics differ";
    let balanced = reconciles tw in
    print_run " untraced" u;
    print_run " traced" t;
    let attempted = uw.attempted + tw.attempted in
    print_result
      ~correct:(ok uw && ok tw && same_sim && balanced)
      ~attempted
      ~failed:(attempted - uw.verified - tw.verified)
      (per_layer ~untraced:uw tw)
  end

(* --- determinism self-test ------------------------------------------------ *)

(* What must repeat exactly for an equal seed: every simulated and
   counted quantity, minor words and the verified share — everything
   but host time and the GC's heap high-water mark (which varies by a
   few hundredths of a percent between processes). *)
let deterministic (r : window) =
  sim_metrics r
  @ [
      ("minor_words_per_req", fdiv r.work_words r.verified, "words");
      ("verified_frac", fdiv r.verified r.attempted, "ratio");
    ]
  @ List.filter
      (fun (name, _, unit) ->
        not
          (List.mem unit [ "ns"; "us"; "MB" ]
          || List.mem name [ "host.rps"; "driver.tracing_overhead" ]))
      (per_layer ~untraced:r r)

let selftest_calls = 48

(* One short traced run, printed one quantity a line. *)
let dump_determinism ~workload ~seed =
  let spec = List.assoc workload workloads in
  let r, inst = run_window spec ~seed ~traced:true ~measure_live:false ~calls:selftest_calls in
  inst.Workload.destroy ();
  List.iter (fun (k, v, _) -> Printf.printf "det %s %.17g\n" k v) (deterministic r);
  Printf.printf "ok %b\ninputs %d\n"
    (ok r && reconciles r)
    r.counters.Workload.input_hash

(* Two fresh processes at one seed must agree on every deterministic
   line; a second seed must change the generated inputs. *)
let selftest () =
  let dump workload seed =
    let ic =
      Unix.open_process_args_in Sys.executable_name
        [|
          Sys.executable_name; "--determinism"; "--workload"; workload; "--seed";
          string_of_int seed;
        |]
    in
    let lines = In_channel.input_all ic |> String.split_on_char '\n' in
    (match Unix.close_process_in ic with
    | Unix.WEXITED 0 -> ()
    | _ -> Workload.fail "%s seed %d: run failed" workload seed);
    lines
  in
  let starts p l = String.length l >= String.length p && String.sub l 0 (String.length p) = p in
  let failures = ref 0 in
  let check cond fmt =
    Printf.ksprintf
      (fun msg ->
        if not cond then begin
          incr failures;
          print_endline ("FAIL " ^ msg)
        end)
      fmt
  in
  List.iter
    (fun (workload, _) ->
      let a = dump workload 1 and b = dump workload 1 and c = dump workload 2 in
      let det l = List.filter (starts "det ") l in
      List.iter2
        (fun x y -> check (x = y) "%s: equal seeds differ: %S vs %S" workload x y)
        (det a) (det b);
      check (List.mem "ok true" a) "%s: unverified replies or unreconciled cycles" workload;
      check
        (List.filter (starts "inputs ") a <> List.filter (starts "inputs ") c)
        "%s: seed 2 generated the same inputs as seed 1" workload;
      Printf.printf "%s: %d deterministic quantities agree across processes\n%!" workload
        (List.length (det a)))
    workloads;
  if !failures > 0 then exit 1;
  print_endline "perfbench selftest: OK"

let () =
  let workload = ref "" and seed = ref 1L and seconds = ref 10. and trace = ref 0 in
  let trace_out = ref None and self = ref false in
  let determinism = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME echo_plane | libos_mix | fleet_churn");
      ("--seed", Arg.String (fun s -> seed := Int64.of_string s), "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S minimum run length (the window, then set-ups)");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ("--trace-out", Arg.String (fun s -> trace_out := Some s), "FILE Chrome trace-event JSON");
      ("--selftest", Arg.Set self, " determinism self-test");
      ("--determinism", Arg.Set determinism, " print one short run's deterministic quantities");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  if !self then selftest ()
  else if !determinism then dump_determinism ~workload:!workload ~seed:!seed
  else
    try
      run ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1)
        ~trace_out:!trace_out
    with e ->
      Printf.eprintf "perfbench: %s\n" (Printexc.to_string e);
      exit 1
