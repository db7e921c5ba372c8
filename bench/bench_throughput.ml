(* PR 4 tentpole bench: end-to-end request throughput of the SMP enclave
   scheduler (lib/sched) serving the RESP KV workload across 1/2/4/8
   simulated cores, plus the switchless call ring's amortization of the
   world-switch cost as the batch factor K grows.

   [summarize] feeds the perf gate (the row list in perf_smoke.ml,
   baselines in PERF_BASELINE.json): req/s at every core count, the 1 ->
   2 core speedup, and the K = 8 ring amortization.  All are
   simulated-cycle quantities, so the gate is deterministic. *)

open Hyperenclave
module Resp_kv = Hyperenclave_workloads.Resp_kv
module Ycsb = Hyperenclave_workloads.Ycsb

(* The paper's evaluation machine: 2.2 GHz EPYC (Sec. 7.1); same
   constant resp_kv uses for its latency curves. *)
let clock_hz = 2.2e9
let records = 256
let enclaves = 8
let reqs_per_enclave = 24
let value_bytes = 128

let key_name key = Printf.sprintf "user%08d" key

(* A YCSB-A request stream, pre-encoded as RESP commands. *)
let request_stream ~seed n =
  let gen = Ycsb.create ~rng:(Rng.create ~seed) ~records () in
  List.init n (fun _ ->
      let parts =
        match Ycsb.next_op_a gen with
        | Ycsb.Read key | Ycsb.Scan (key, _) -> [ "GET"; key_name key ]
        | Ycsb.Update key ->
            [
              "SET";
              key_name key;
              Bytes.to_string (Ycsb.record_value ~key ~size:value_bytes);
            ]
      in
      (Resp_kv.ecall_command, Resp_kv.encode_command parts))

type run = {
  cores : int;
  rps : float;
  makespan : int;
  total : int;
  steals : int;
  aex : int;
}

(* N enclaves, [reqs_per_enclave] requests each, scheduled over [cores]
   cores.  Fresh platform per configuration so runs are independent and
   seed-reproducible. *)
let measure ~cores ~batch =
  let p = Platform.create ~seed:906L () in
  let backends =
    List.init enclaves (fun i ->
        Backend.hyperenclave p ~mode:Sgx_types.GU
          ~tweak:(fun c ->
            { c with Urts.code_seed = Printf.sprintf "throughput-%d" i })
          ~handlers:(Resp_kv.handlers ())
          ~ocalls:(Resp_kv.ocalls ()) ())
  in
  List.iter (fun b -> Resp_kv.load b ~records) backends;
  let sched =
    Sched.create ~shared_clock:p.Platform.clock
      ~telemetry:(Monitor.telemetry p.Platform.monitor)
      { Sched.default_config with Sched.cores; batch; quantum = 500_000 }
  in
  List.iteri
    (fun i b ->
      Sched.submit sched
        ~urts:(Option.get b.Backend.urts)
        (request_stream ~seed:(Int64.of_int (7_000 + i)) reqs_per_enclave))
    backends;
  let stats = Sched.run sched in
  List.iter (fun b -> b.Backend.destroy ()) backends;
  {
    cores;
    rps =
      float_of_int stats.Sched.total_requests
      *. clock_hz
      /. float_of_int (max 1 stats.Sched.makespan);
    makespan = stats.Sched.makespan;
    total = stats.Sched.total_requests;
    steals = stats.Sched.steals;
    aex = stats.Sched.aex_preempts;
  }

(* Ring amortization on a minimal echo enclave: the compute inside the
   call is ~zero, so the measured cycles are almost entirely transition
   cost — the quantity the ring exists to amortize. *)
let ring_amortization ~k =
  let p = Platform.create ~seed:907L () in
  let handle =
    Urts.create ~kmod:p.Platform.kmod ~proc:p.Platform.proc ~rng:p.Platform.rng
      ~signer:p.Platform.signer
      ~config:(Urts.default_config Sgx_types.GU)
      ~ecalls:[ (1, fun _ input -> input) ]
      ~ocalls:[]
  in
  let reqs = List.init k (fun i -> (1, Bytes.of_string (string_of_int i))) in
  (* Warm call: both paths start from identical paging/TLB state. *)
  ignore (Urts.ecall handle ~id:1 ~data:Bytes.empty ~direction:Edge.In_out ());
  let _, batched =
    Cycles.time p.Platform.clock (fun () -> Urts.ecall_batch handle ~reqs ())
  in
  let _, unbatched =
    Cycles.time p.Platform.clock (fun () ->
        List.iter
          (fun (id, data) ->
            ignore (Urts.ecall handle ~id ~data ~direction:Edge.In_out ()))
          reqs)
  in
  Urts.destroy handle;
  (batched, unbatched)

type summary = {
  runs : run list;
  speedup_2core : float;
  amortized_ratio_k8 : float;
}

let summarize () =
  let runs = List.map (fun cores -> measure ~cores ~batch:1) [ 1; 2; 4; 8 ] in
  let rps_of n = (List.find (fun r -> r.cores = n) runs).rps in
  let batched, unbatched = ring_amortization ~k:8 in
  {
    runs;
    speedup_2core = rps_of 2 /. rps_of 1;
    amortized_ratio_k8 = float_of_int unbatched /. float_of_int batched;
  }

let print_scaling (s : summary) =
  Util.print_table
    ~columns:[ "cores"; "requests"; "makespan (Mcyc)"; "req/s"; "steals"; "AEX" ]
    (List.map
       (fun r ->
         [
           string_of_int r.cores;
           string_of_int r.total;
           Printf.sprintf "%.2f" (float_of_int r.makespan /. 1e6);
           Printf.sprintf "%.0f" r.rps;
           string_of_int r.steals;
           string_of_int r.aex;
         ])
       s.runs);
  Printf.printf "\n  1 -> 2 core speedup: %.2fx (gate: >= 1.6x)\n"
    s.speedup_2core

let print_ring () =
  Util.print_table
    ~columns:
      [ "K"; "batched (cyc)"; "unbatched (cyc)"; "cyc/req batched"; "ratio" ]
    (List.map
       (fun k ->
         let batched, unbatched = ring_amortization ~k in
         [
           string_of_int k;
           string_of_int batched;
           string_of_int unbatched;
           string_of_int (batched / k);
           Printf.sprintf "%.2fx" (float_of_int unbatched /. float_of_int batched);
         ])
       [ 1; 2; 4; 8; 16 ]);
  print_newline ()

let run () =
  Util.set_experiment "throughput";
  Util.banner "Throughput"
    "SMP scheduler: RESP KV requests/sec vs simulated cores (8 enclaves, \
     YCSB-A), and the switchless ring's world-switch amortization vs K.";
  let s = summarize () in
  print_scaling s;
  Printf.printf
    "\n  Switchless call ring, echo ECALL (pure transition cost):\n\n";
  print_ring ();
  Printf.printf
    "  K=8 amortization: %.2fx fewer cycles per request (gate: >= 2x).\n"
    s.amortized_ratio_k8
