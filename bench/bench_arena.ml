(* PR 7 tentpole bench: the allocation-free attested data path.

   [summarize] feeds the perf gate (the row list in perf_smoke.ml,
   baselines in PERF_BASELINE.json):

   - steady-state GC pressure: minor words allocated per attested
     request across submit+flush, with requests pre-sealed so only the
     plane's own allocations count;
   - a single hot tenant (8 sessions, one enclave) against the 8-core
     multi-tenant rate, and its own 1 -> 2 core speedup — the
     per-tenant ring sharding claim: one tenant's traffic saturates all
     cores. *)

open Hyperenclave


(* --- steady-state allocation accounting -------------------------------- *)

let alloc_warmup_rounds = 2
let alloc_rounds = 8
let alloc_reqs_per_round = 32

let attested_client plane ~p ~name =
  let backend =
    Serve.add_tenant plane ~name
      {
        (Backend.config (Backend.Hyperenclave Sgx_types.GU)) with
        Backend.handlers = Bench_serve.handlers;
        code_seed = Some name;
      }
  in
  let identity = Option.get backend.Backend.identity in
  let client =
    Serve.Client.create
      ~rng:(Rng.create ~seed:7001L)
      ~golden:(Bench_serve.golden_of p)
      ~policy:
        {
          Verifier.expected_mrenclave = Some identity;
          expected_mrsigner = None;
          allow_debug = false;
        }
      ~expected_tenant:identity ()
  in
  (match Serve.handshake plane ~tenant:name (Serve.Client.hello client) with
  | Ok accept -> (
      match Serve.Client.establish client accept with
      | Ok () -> ()
      | Error r ->
          Format.eprintf "bench_arena: establish failed: %a@." Serve.pp_reject r;
          exit 2)
  | Error r ->
      Format.eprintf "bench_arena: handshake failed: %a@." Serve.pp_reject r;
      exit 2);
  client

(* Minor words allocated per request by the plane itself (admission +
   flush + reply assembly), measured over a steady state: every request
   envelope is sealed up front, the arenas and rings are warmed by
   untimed rounds, then [Gc.minor_words] brackets the measured rounds. *)
let minor_words_per_request () =
  let p = Platform.create ~seed:971L () in
  let plane =
    Serve.create_node ~platform:p @@ Serve.Node_config.v ~platform:p
      {
        Serve.default_config with
        Serve.sched =
          { Sched.default_config with Sched.batch = 16; drop_on_error = true };
      }
  in
  let client = attested_client plane ~p ~name:"alloc-tenant" in
  let rounds =
    List.init (alloc_warmup_rounds + alloc_rounds) (fun r ->
        List.init alloc_reqs_per_round (fun i ->
            Serve.Client.request client
              ~ecall:(1 + ((r + i) mod 2))
              (Bench_serve.payload r i)))
  in
  let serve round =
    List.iter
      (fun req ->
        match Serve.submit plane req with
        | Ok () -> ()
        | Error r ->
            Format.eprintf "bench_arena: submit rejected: %a@." Serve.pp_reject r;
            exit 2)
      round;
    List.iter
      (function
        | { Serve.r_result = Ok _; _ } -> ()
        | { Serve.r_result = Error r; _ } ->
            Format.eprintf "bench_arena: request failed: %a@." Serve.pp_reject r;
            exit 2)
      (Serve.flush plane)
  in
  let warmup, measured =
    let rec split n = function
      | rest when n = 0 -> ([], rest)
      | [] -> ([], [])
      | r :: rest ->
          let w, m = split (n - 1) rest in
          (r :: w, m)
    in
    split alloc_warmup_rounds rounds
  in
  List.iter serve warmup;
  let words0 = Gc.minor_words () in
  List.iter serve measured;
  let words1 = Gc.minor_words () in
  Serve.destroy plane;
  (words1 -. words0) /. float_of_int (alloc_rounds * alloc_reqs_per_round)

(* --- hot-tenant sharding ------------------------------------------------ *)

let hot_sessions = 8
let hot_rounds = 3
let hot_reqs_per_session_round = 8

type hot_run = { h_cores : int; h_rps : float; h_served : int }

(* One tenant, one enclave, [hot_sessions] attested sessions hammering
   it: the plane-wide block rotor must spread the single tenant's
   staged blocks across every ring shard (and so every core). *)
let measure_hot ~cores =
  let p = Platform.create ~seed:972L () in
  let plane =
    Serve.create_node ~platform:p @@ Serve.Node_config.v ~platform:p
      {
        Serve.default_config with
        Serve.sched =
          {
            Sched.default_config with
            Sched.cores;
            batch = 16;
            drop_on_error = true;
          };
        max_queue = 256;
      }
  in
  let first = attested_client plane ~p ~name:"hot-tenant" in
  let others =
    List.init (hot_sessions - 1) (fun i ->
        let client =
          Serve.Client.create
            ~rng:(Rng.create ~seed:(Int64.of_int (7100 + i)))
            ~golden:(Bench_serve.golden_of p)
            ~policy:
              {
                Verifier.expected_mrenclave = None;
                expected_mrsigner = None;
                allow_debug = false;
              }
            ()
        in
        (match
           Serve.handshake plane ~tenant:"hot-tenant" (Serve.Client.hello client)
         with
        | Ok accept -> (
            match Serve.Client.establish client accept with
            | Ok () -> ()
            | Error r ->
                Format.eprintf "bench_arena: hot establish failed: %a@."
                  Serve.pp_reject r;
                exit 2)
        | Error r ->
            Format.eprintf "bench_arena: hot handshake failed: %a@."
              Serve.pp_reject r;
            exit 2);
        client)
  in
  let clients = first :: others in
  let served = ref 0 in
  let crit0 = Bench_serve.critical_path p plane in
  for round = 0 to hot_rounds - 1 do
    List.iteri
      (fun ci client ->
        for i = 0 to hot_reqs_per_session_round - 1 do
          let req =
            Serve.Client.request client
              ~ecall:(1 + ((round + i) mod 2))
              (Bench_serve.payload ((ci * 131) + round) i)
          in
          match Serve.submit plane req with
          | Ok () -> ()
          | Error r ->
              Format.eprintf "bench_arena: hot submit rejected: %a@."
                Serve.pp_reject r;
              exit 2
        done)
      clients;
    List.iter
      (function
        | { Serve.r_result = Ok _; _ } -> incr served
        | { Serve.r_result = Error r; _ } ->
            Format.eprintf "bench_arena: hot request failed: %a@."
              Serve.pp_reject r;
            exit 2)
      (Serve.flush plane)
  done;
  let stats = Serve.sched_stats plane in
  let crit = Bench_serve.critical_path p plane - crit0 in
  Serve.destroy plane;
  let served_total = stats.Sched.total_requests in
  {
    h_cores = cores;
    h_rps = Bench_serve.rate ~served:served_total ~cycles:crit;
    h_served = !served;
  }

(* --- summary -------------------------------------------------------------- *)

type summary = {
  words_arena : float;
  rps_8core : float;  (* 4-tenant arena path, from Bench_serve *)
  hot_runs : hot_run list;
  hot_rps_8core : float;
  hot_ratio : float;  (* hot single-tenant rate / multi-tenant rate *)
  hot_speedup_2core : float;
}

let summarize () =
  let words_arena = minor_words_per_request () in
  let rps_8core = (Bench_serve.measure ~cores:8).Bench_serve.rps in
  let hot_runs = List.map (fun cores -> measure_hot ~cores) [ 1; 2; 4; 8 ] in
  let hot_rps n = (List.find (fun r -> r.h_cores = n) hot_runs).h_rps in
  {
    words_arena;
    rps_8core;
    hot_runs;
    hot_rps_8core = hot_rps 8;
    hot_ratio = hot_rps 8 /. rps_8core;
    hot_speedup_2core = hot_rps 2 /. hot_rps 1;
  }

let run () =
  Util.set_experiment "arena";
  Util.banner "Arena"
    "Allocation-free attested data path: minor words per request, 8-core \
     throughput, and a single hot tenant sharded across every core.";
  let s = summarize () in
  Printf.printf "  minor words per attested request (steady state): %.1f\n"
    s.words_arena;
  Printf.printf "\n  hot tenant (1 enclave, %d sessions) vs cores:\n\n"
    hot_sessions;
  Util.print_table
    ~columns:[ "cores"; "served"; "attested req/s" ]
    (List.map
       (fun r ->
         [
           string_of_int r.h_cores;
           string_of_int r.h_served;
           Printf.sprintf "%.0f" r.h_rps;
         ])
       s.hot_runs);
  Printf.printf
    "\n  8-core: %.0f req/s multi-tenant, %.0f hot tenant (%.0f%%, gate: >= \
     80%%)\n"
    s.rps_8core s.hot_rps_8core (s.hot_ratio *. 100.0);
  Printf.printf "  hot tenant 1 -> 2 core speedup: %.2fx (gate: >= 1.6x)\n"
    s.hot_speedup_2core
