(* PR 6 tentpole bench: the zero-copy attested request path.

   [summarize] feeds the perf gate (the row list in perf_smoke.ml,
   baselines in PERF_BASELINE.json), all deterministic simulated-cycle
   quantities:

   - attested req/s at 8 cores (the serving plane's zero-copy AEAD +
     chunked flush);
   - the switchless OCALL reply ring's cost for K = 8 out-calls against
     eight individual EEXIT/ORET round trips;
   - resuming a session from a sealed ticket against the full SIGMA
     handshake it replaces. *)

open Hyperenclave

let echo_ocall = 7

(* ECALL 1: fan [k] OCALLs out through the backend's reply ring (one
   EEXIT + one batched ORET on HyperEnclave).  ECALL 2: the same k
   out-calls as individual world switches — the baseline the ring's
   amortization is measured against.  Payloads are identical so the
   difference is pure transition cost. *)
let ocall_handlers =
  let reqs_of input =
    let k = Char.code (Bytes.get input 0) in
    List.init k (fun i -> (echo_ocall, Bytes.make 8 (Char.chr (65 + i))))
  in
  [
    ( 1,
      fun (env : Backend.env) input ->
        let replies = env.Backend.ocall_ring ~reqs:(reqs_of input) () in
        Bytes.make 1 (Char.chr (List.length replies)) );
    ( 2,
      fun (env : Backend.env) input ->
        let n =
          List.fold_left
            (fun acc (id, data) ->
              ignore (env.Backend.ocall ~id ~data () : bytes);
              acc + 1)
            0 (reqs_of input)
        in
        Bytes.make 1 (Char.chr n) );
  ]

let ocall_ring_amortization ~k =
  let p = Platform.create ~seed:961L () in
  let backend =
    Backend.create p
      {
        (Backend.config (Backend.Hyperenclave Sgx_types.GU)) with
        Backend.handlers = ocall_handlers;
        ocalls = [ (echo_ocall, fun data -> data) ];
        code_seed = Some "zerocopy-ocall-ring";
      }
  in
  let data = Bytes.make 1 (Char.chr k) in
  (* Warm call: both paths start from identical paging/TLB state. *)
  ignore (backend.Backend.call ~id:2 ~data ~direction:Edge.In_out ());
  let _, ringed =
    Cycles.time p.Platform.clock (fun () ->
        backend.Backend.call ~id:1 ~data ~direction:Edge.In_out ())
  in
  let _, sequential =
    Cycles.time p.Platform.clock (fun () ->
        backend.Backend.call ~id:2 ~data ~direction:Edge.In_out ())
  in
  backend.Backend.destroy ();
  (ringed, sequential)

(* Full SIGMA handshake vs ticket resumption on the same plane: the
   quantity a reconnecting client saves by skipping quote generation
   and verification. *)
let resume_vs_handshake () =
  let p = Platform.create ~seed:962L () in
  let plane = Serve.create_node ~platform:p @@ Serve.Node_config.v ~platform:p Serve.default_config in
  let backend =
    Serve.add_tenant plane ~name:"resume-tenant"
      {
        (Backend.config (Backend.Hyperenclave Sgx_types.GU)) with
        Backend.handlers = [ (1, fun _env input -> input) ];
        code_seed = Some "resume-tenant";
      }
  in
  let identity = Option.get backend.Backend.identity in
  let golden =
    Verifier.golden_of_boot_log
      ~ek_public:(Tpm.ek_public p.Platform.tpm)
      (Monitor.boot_log p.Platform.monitor)
  in
  let client =
    Serve.Client.create
      ~rng:(Rng.create ~seed:4242L)
      ~golden
      ~policy:
        {
          Verifier.expected_mrenclave = Some identity;
          expected_mrsigner = None;
          allow_debug = false;
        }
      ~expected_tenant:identity ()
  in
  let fail : 'a. string -> Serve.reject -> 'a =
   fun what r ->
    Format.eprintf "bench_zerocopy: %s failed: %a@." what Serve.pp_reject r;
    exit 2
  in
  let before = Cycles.now p.Platform.clock in
  (match Serve.handshake plane ~tenant:"resume-tenant" (Serve.Client.hello client) with
  | Ok accept -> (
      match Serve.Client.establish client accept with
      | Ok () -> ()
      | Error r -> fail "establish" r)
  | Error r -> fail "handshake" r);
  let handshake_cycles = Cycles.now p.Platform.clock - before in
  let ticket =
    match Serve.issue_ticket plane ~session:(Serve.Client.session_id client) with
    | Ok tk -> tk
    | Error r -> fail "issue_ticket" r
  in
  let before = Cycles.now p.Platform.clock in
  let resume = Serve.Client.resume_hello client ~ticket in
  (match Serve.resume plane resume with
  | Ok session_id -> Serve.Client.complete_resume client ~session_id
  | Error r -> fail "resume" r);
  let resume_cycles = Cycles.now p.Platform.clock - before in
  (* The resumed channel must actually serve: one sealed roundtrip. *)
  (match Serve.Client.roundtrip plane client [ (1, Bytes.of_string "ping") ] with
  | [ Ok body ] when Bytes.to_string body = "ping" -> ()
  | _ ->
      prerr_endline "bench_zerocopy: resumed session failed to serve";
      exit 2);
  Serve.destroy plane;
  (handshake_cycles, resume_cycles)

type summary = {
  rps_8core : float;
  ring_k8 : float;
  handshake_cycles : int;
  resume_cycles : int;
}

let summarize () =
  let r8 = Bench_serve.measure ~cores:8 in
  let ringed, sequential = ocall_ring_amortization ~k:8 in
  let handshake_cycles, resume_cycles = resume_vs_handshake () in
  {
    rps_8core = r8.Bench_serve.rps;
    ring_k8 = float_of_int sequential /. float_of_int ringed;
    handshake_cycles;
    resume_cycles;
  }

let run () =
  Util.set_experiment "zerocopy";
  Util.banner "Zero-copy"
    "Zero-copy attested path: 8-core serving throughput, switchless OCALL \
     reply-ring amortization vs K, and ticket resumption vs the full \
     handshake.";
  let s = summarize () in
  Printf.printf "  attested req/s, 8 cores: %.0f\n\n" s.rps_8core;
  Printf.printf "  Switchless OCALL reply ring (echo out-call, pure transition cost):\n\n";
  Util.print_table
    ~columns:[ "K"; "ringed (cyc)"; "sequential (cyc)"; "ratio" ]
    (List.map
       (fun k ->
         let ringed, sequential = ocall_ring_amortization ~k in
         [
           string_of_int k;
           string_of_int ringed;
           string_of_int sequential;
           Printf.sprintf "%.2fx" (float_of_int sequential /. float_of_int ringed);
         ])
       [ 1; 2; 4; 8; 16 ]);
  Printf.printf "\n  K=8 amortization: %.2fx fewer cycles per OCALL (gate: >= 2x).\n"
    s.ring_k8;
  Printf.printf
    "  resumption: %d cycles vs %d handshake (%.3fx, gate: <= 0.1x).\n"
    s.resume_cycles s.handshake_cycles
    (float_of_int s.resume_cycles /. float_of_int s.handshake_cycles)
