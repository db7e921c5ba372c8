(* The attested serving plane: SIGMA-style handshake bound to the
   attestation chain, AEAD request channels, typed admission control,
   per-tenant quotas, EDMM-backed session state, and graceful
   degradation under injected faults. *)

open Hyperenclave

let upper input = Bytes.of_string (String.uppercase_ascii (Bytes.to_string input))

let echo_handlers =
  [
    (1, fun _env input -> input);
    (2, fun _env input -> upper input);
  ]

let golden_of (p : Platform.t) =
  Verifier.golden_of_boot_log
    ~ek_public:(Tpm.ek_public p.Platform.tpm)
    (Monitor.boot_log p.Platform.monitor)

let policy_pinning identity =
  { Verifier.expected_mrenclave = Some identity; expected_mrsigner = None; allow_debug = false }

let tenant_config ?(kind = Backend.Hyperenclave Sgx_types.GU) () =
  { (Backend.config kind) with Backend.handlers = echo_handlers }

(* One plane with one enclave tenant, plus a client already holding the
   golden values and the tenant pin. *)
let build ?(seed = 7000L) ?(config = Serve.default_config)
    ?(kind = Backend.Hyperenclave Sgx_types.GU) () =
  let p = Platform.create ~seed () in
  let plane = Serve.create_node ~platform:p @@ Serve.Node_config.v ~platform:p config in
  let backend = Serve.add_tenant plane ~name:"acme" (tenant_config ~kind ()) in
  let identity =
    match backend.Backend.identity with
    | Some id -> id
    | None -> Bytes.empty
  in
  let quoter_identity =
    match kind with
    | Backend.Sgx -> Serve.quoting_identity plane
    | _ -> identity
  in
  let client =
    Serve.Client.create
      ~rng:(Rng.create ~seed:(Int64.add seed 1L))
      ~golden:(golden_of p)
      ~policy:(policy_pinning quoter_identity)
      ~expected_tenant:identity ()
  in
  (p, plane, backend, client)

let establish ?(tenant = "acme") plane client =
  match Serve.handshake plane ~tenant (Serve.Client.hello client) with
  | Error r -> Alcotest.failf "handshake rejected: %a" Serve.pp_reject r
  | Ok accept -> (
      match Serve.Client.establish client accept with
      | Error r -> Alcotest.failf "establish failed: %a" Serve.pp_reject r
      | Ok () -> ())

let expect_reject expected = function
  | Ok _ -> Alcotest.failf "expected %s rejection" expected
  | Error r -> Alcotest.(check string) "reject kind" expected (Serve.reject_name r)

(* ------------------------------------------------------------------ *)
(* Handshake + end-to-end serving                                      *)

let test_roundtrip_modes () =
  List.iter
    (fun mode ->
      let _p, plane, _backend, client =
        build ~kind:(Backend.Hyperenclave mode) ()
      in
      establish plane client;
      let data = Bytes.of_string "hello enclave" in
      (match Serve.Client.roundtrip plane client [ (1, data); (2, data) ] with
      | [ Ok r1; Ok r2 ] ->
          Alcotest.(check string) "echo" "hello enclave" (Bytes.to_string r1);
          Alcotest.(check string) "upper" "HELLO ENCLAVE" (Bytes.to_string r2)
      | results ->
          List.iter
            (function
              | Error r -> Alcotest.failf "roundtrip failed: %a" Serve.pp_reject r
              | Ok _ -> ())
            results;
          Alcotest.failf "expected 2 replies, got %d" (List.length results));
      Serve.destroy plane)
    Sgx_types.all_modes

let test_sgx_tenant_via_quoting_enclave () =
  (* An SGX-model tenant cannot self-quote; the plane's quoting enclave
     vouches for the identity carried in the transcript, which the
     client pins. *)
  let _p, plane, backend, client = build ~seed:7002L ~kind:Backend.Sgx () in
  establish plane client;
  (match backend.Backend.urts with
  | Some _ -> Alcotest.fail "SGX-model backend should have no SDK handle"
  | None -> ());
  (match Serve.Client.roundtrip plane client [ (2, Bytes.of_string "sgx") ] with
  | [ Ok r ] -> Alcotest.(check string) "served" "SGX" (Bytes.to_string r)
  | _ -> Alcotest.fail "SGX tenant roundtrip failed");
  Serve.destroy plane

let test_sgx_wrong_tenant_pin_rejected () =
  let p = Platform.create ~seed:7003L () in
  let plane = Serve.create_node ~platform:p @@ Serve.Node_config.v ~platform:p Serve.default_config in
  let backend = Serve.add_tenant plane ~name:"acme" (tenant_config ~kind:Backend.Sgx ()) in
  ignore (backend : Backend.t);
  let client =
    Serve.Client.create ~rng:(Rng.create ~seed:1L) ~golden:(golden_of p)
      ~policy:(policy_pinning (Serve.quoting_identity plane))
      ~expected_tenant:(Bytes.make 32 'z') ()
  in
  (match Serve.handshake plane ~tenant:"acme" (Serve.Client.hello client) with
  | Error r -> Alcotest.failf "handshake rejected: %a" Serve.pp_reject r
  | Ok accept ->
      expect_reject "handshake-failed" (Serve.Client.establish client accept));
  Serve.destroy plane

let test_native_tenant_refused () =
  let p = Platform.create ~seed:7004L () in
  let plane = Serve.create_node ~platform:p @@ Serve.Node_config.v ~platform:p Serve.default_config in
  ignore (Serve.add_tenant plane ~name:"bare" (tenant_config ~kind:Backend.Native ()));
  let client =
    Serve.Client.create ~rng:(Rng.create ~seed:2L) ~golden:(golden_of p)
      ~policy:{ Verifier.expected_mrenclave = None; expected_mrsigner = None; allow_debug = false }
      ()
  in
  expect_reject "unsupported"
    (Serve.handshake plane ~tenant:"bare" (Serve.Client.hello client));
  Serve.destroy plane

let test_unknown_tenant () =
  let _p, plane, _backend, client = build ~seed:7005L () in
  expect_reject "unknown-tenant"
    (Serve.handshake plane ~tenant:"nobody" (Serve.Client.hello client));
  Serve.destroy plane

let test_replayed_nonce () =
  let _p, plane, _backend, client = build ~seed:7006L () in
  let hello = Serve.Client.hello client in
  (match Serve.handshake plane ~tenant:"acme" hello with
  | Error r -> Alcotest.failf "first handshake rejected: %a" Serve.pp_reject r
  | Ok _ -> ());
  expect_reject "replayed-nonce" (Serve.handshake plane ~tenant:"acme" hello);
  Serve.destroy plane

let test_spliced_accept_fails_binding () =
  (* A quote lifted from one exchange must not authenticate another:
     swap the server share after the fact and the transcript binding
     breaks. *)
  let _p, plane, _backend, client = build ~seed:7007L () in
  (match Serve.handshake plane ~tenant:"acme" (Serve.Client.hello client) with
  | Error r -> Alcotest.failf "handshake rejected: %a" Serve.pp_reject r
  | Ok accept ->
      let _, other_share = Kx.generate (Rng.create ~seed:99L) in
      expect_reject "channel-binding"
        (Serve.Client.establish client { accept with Serve.server_kx = other_share }));
  Serve.destroy plane

let test_garbage_quote_wire () =
  let _p, plane, _backend, client = build ~seed:7008L () in
  (match Serve.handshake plane ~tenant:"acme" (Serve.Client.hello client) with
  | Error r -> Alcotest.failf "handshake rejected: %a" Serve.pp_reject r
  | Ok accept ->
      expect_reject "bad-wire"
        (Serve.Client.establish client
           { accept with Serve.quote_wire = Bytes.of_string "not a quote" }));
  Serve.destroy plane

(* ------------------------------------------------------------------ *)
(* Channel security + admission control                                *)

let served plane client data =
  match Serve.Client.roundtrip plane client [ (2, Bytes.of_string data) ] with
  | [ Ok r ] -> Alcotest.(check string) "served" (String.uppercase_ascii data) (Bytes.to_string r)
  | [ Error r ] -> Alcotest.failf "roundtrip failed: %a" Serve.pp_reject r
  | _ -> Alcotest.fail "expected one reply"

let flip_byte0 b =
  let b = Bytes.copy b in
  Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 1));
  b

let with_ciphertext f (req : Serve.request) =
  let env = req.Serve.envelope in
  { req with Serve.envelope = { env with Crypto.Authenc.ciphertext = f env.Crypto.Authenc.ciphertext } }

let with_tag f (req : Serve.request) =
  let env = req.Serve.envelope in
  { req with Serve.envelope = { env with Crypto.Authenc.tag = f env.Crypto.Authenc.tag } }

(* The tag is checked where the session key lives, in the enclave's
   ring worker: a tampered envelope is admitted (its sequence number is
   burnt) and refused in its own reply, and the channel stays in step. *)
let test_tampered_envelope_rejected () =
  let _p, plane, _backend, client = build ~seed:7010L () in
  establish plane client;
  let req = Serve.Client.request client ~ecall:1 (Bytes.of_string "payload") in
  (match Serve.submit plane (with_ciphertext flip_byte0 req) with
  | Ok () -> ()
  | Error r -> Alcotest.failf "tampered submit not admitted: %a" Serve.pp_reject r);
  (match Serve.flush plane with
  | [ { Serve.r_seq; r_result = Error Serve.Bad_auth; _ } ] ->
      Alcotest.(check int) "the tampered request's reply" req.Serve.seq r_seq
  | _ -> Alcotest.fail "expected one bad-auth reply");
  served plane client "next";
  Serve.destroy plane

let test_respliced_header_rejected () =
  (* Redirecting a valid envelope at a different ECALL id: the AAD binds
     the id, so the plane refuses. *)
  let _p, plane, _backend, client = build ~seed:7011L () in
  establish plane client;
  let req = Serve.Client.request client ~ecall:1 (Bytes.of_string "payload") in
  expect_reject "bad-auth" (Serve.submit plane { req with Serve.ecall_id = 2 });
  Serve.destroy plane

let test_replayed_request_rejected () =
  let _p, plane, _backend, client = build ~seed:7012L () in
  establish plane client;
  let req = Serve.Client.request client ~ecall:1 (Bytes.of_string "once") in
  (match Serve.submit plane req with
  | Ok () -> ()
  | Error r -> Alcotest.failf "first submit rejected: %a" Serve.pp_reject r);
  expect_reject "bad-sequence" (Serve.submit plane req);
  Serve.destroy plane

let test_unknown_session () =
  let _p, plane, _backend, client = build ~seed:7013L () in
  establish plane client;
  let req = Serve.Client.request client ~ecall:1 Bytes.empty in
  expect_reject "unknown-session"
    (Serve.submit plane { req with Serve.session_id = 4242 });
  Serve.destroy plane

let test_backpressure () =
  let config = { Serve.default_config with Serve.max_queue = 2 } in
  let _p, plane, _backend, client = build ~seed:7014L ~config () in
  establish plane client;
  let submit () =
    Serve.submit plane (Serve.Client.request client ~ecall:1 (Bytes.of_string "x"))
  in
  (match (submit (), submit ()) with
  | Ok (), Ok () -> ()
  | _ -> Alcotest.fail "first two submits should be admitted");
  expect_reject "backpressure" (submit ());
  (* Flushing drains the queue; admission resumes. *)
  ignore (Serve.flush plane);
  (match submit () with
  | Ok () -> ()
  | Error r -> Alcotest.failf "post-flush submit rejected: %a" Serve.pp_reject r);
  ignore (Serve.flush plane);
  Serve.destroy plane

let test_quota_exhaustion_and_grant () =
  (* The arena's switchless ring dispatch charges only a few hundred
     cycles per single-request flush (post fence + slot dispatch + page
     walks) — a quota below that still admits the first request and is
     exhausted by it. *)
  let config = { Serve.default_config with Serve.cycle_quota = Some 300 } in
  let _p, plane, _backend, client = build ~seed:7015L ~config () in
  establish plane client;
  let roundtrip () =
    Serve.Client.roundtrip plane client [ (1, Bytes.of_string "spend") ]
  in
  (match roundtrip () with
  | [ Ok _ ] -> ()
  | _ -> Alcotest.fail "first roundtrip should succeed under a fresh quota");
  let spent, budget = Serve.quota_state plane ~tenant:"acme" in
  Alcotest.(check bool) "cycles were charged" true (spent > 0);
  Alcotest.(check int) "budget as configured" 300 budget;
  Alcotest.(check bool) "quota exhausted" true (spent >= budget);
  (match roundtrip () with
  | [ Error (Serve.Quota_exhausted { tenant; _ }) ] ->
      Alcotest.(check string) "tenant named" "acme" tenant
  | _ -> Alcotest.fail "expected quota rejection");
  (* A grant re-opens admission. *)
  Serve.grant plane ~tenant:"acme" 10_000_000;
  (match roundtrip () with
  | [ Ok _ ] -> ()
  | _ -> Alcotest.fail "roundtrip after grant should succeed");
  Serve.destroy plane

let test_tenant_isolation () =
  (* Two tenants, one plane: each session only decrypts with its own
     key, and per-tenant accounting stays separate. *)
  let p = Platform.create ~seed:7016L () in
  let plane =
    Serve.create_node ~platform:p @@ Serve.Node_config.v ~platform:p
      { Serve.default_config with Serve.cycle_quota = Some 100_000_000 }
  in
  let b1 = Serve.add_tenant plane ~name:"acme" (tenant_config ()) in
  let b2 = Serve.add_tenant plane ~name:"globex" (tenant_config ()) in
  let mk backend seed =
    let identity = Option.get backend.Backend.identity in
    Serve.Client.create ~rng:(Rng.create ~seed) ~golden:(golden_of p)
      ~policy:(policy_pinning identity) ~expected_tenant:identity ()
  in
  let c1 = mk b1 3L and c2 = mk b2 4L in
  establish plane c1;
  (match Serve.handshake plane ~tenant:"globex" (Serve.Client.hello c2) with
  | Error r -> Alcotest.failf "globex handshake rejected: %a" Serve.pp_reject r
  | Ok accept -> (
      match Serve.Client.establish c2 accept with
      | Error r -> Alcotest.failf "globex establish failed: %a" Serve.pp_reject r
      | Ok () -> ()));
  (* A request sealed under c2's key aimed at c1's session must bounce —
     and the very same envelope must still serve on its own session. *)
  let stolen = Serve.Client.request c2 ~ecall:2 (Bytes.of_string "two") in
  expect_reject "bad-auth"
    (Serve.submit plane { stolen with Serve.session_id = Serve.Client.session_id c1 });
  (match Serve.submit plane stolen with
  | Ok () -> ()
  | Error r -> Alcotest.failf "rightful session rejected: %a" Serve.pp_reject r);
  (* Both tenants serve side by side in one flush. *)
  (match Serve.submit plane (Serve.Client.request c1 ~ecall:2 (Bytes.of_string "one")) with
  | Ok () -> ()
  | Error r -> Alcotest.failf "c1 submit rejected: %a" Serve.pp_reject r);
  let replies = Serve.flush plane in
  Alcotest.(check int) "both served" 2 (List.length replies);
  let spent1, _ = Serve.quota_state plane ~tenant:"acme" in
  let spent2, _ = Serve.quota_state plane ~tenant:"globex" in
  Alcotest.(check bool) "acme charged" true (spent1 > 0);
  Alcotest.(check bool) "globex charged" true (spent2 > 0);
  Serve.destroy plane

let test_many_requests_ordered () =
  (* A burst across several flushes keeps sequence discipline and reply
     order on a multi-core scheduler. *)
  let config =
    { Serve.default_config with
      Serve.sched = { Sched.default_config with Sched.cores = 4; drop_on_error = true; batch = 4 } }
  in
  let _p, plane, _backend, client = build ~seed:7017L ~config () in
  establish plane client;
  for round = 0 to 2 do
    let reqs =
      List.init 8 (fun i -> (1, Bytes.of_string (Printf.sprintf "r%d-%d" round i)))
    in
    let replies = Serve.Client.roundtrip plane client reqs in
    Alcotest.(check int) "all replied" 8 (List.length replies);
    List.iteri
      (fun i reply ->
        match reply with
        | Ok body ->
            Alcotest.(check string) "in order"
              (Printf.sprintf "r%d-%d" round i)
              (Bytes.to_string body)
        | Error r -> Alcotest.failf "request failed: %a" Serve.pp_reject r)
      replies
  done;
  let stats = Serve.sched_stats plane in
  Alcotest.(check int) "scheduler served all requests" 24 stats.Sched.total_requests;
  Serve.destroy plane

(* ------------------------------------------------------------------ *)
(* EDMM session state                                                  *)

let test_resize_session_edmm () =
  let _p, plane, backend, client = build ~seed:7020L () in
  establish plane client;
  let enclave = Urts.enclave (Option.get backend.Backend.urts) in
  let before = enclave.Enclave.stats.Enclave.dyn_pages in
  (match Serve.resize_session plane ~session:(Serve.Client.session_id client) ~pages:4 with
  | Ok n -> Alcotest.(check int) "pages committed" 4 n
  | Error r -> Alcotest.failf "resize rejected: %a" Serve.pp_reject r);
  Alcotest.(check bool) "EDMM demand-committed pages" true
    (enclave.Enclave.stats.Enclave.dyn_pages > before);
  (* Out-of-stride requests are a caller error. *)
  (try
     ignore (Serve.resize_session plane ~session:(Serve.Client.session_id client)
               ~pages:(Serve.default_config.Serve.state_stride_pages + 1));
     Alcotest.fail "oversized resize accepted"
   with Invalid_argument _ -> ());
  Serve.destroy plane

let test_resize_session_sgx_unsupported () =
  let _p, plane, _backend, client = build ~seed:7021L ~kind:Backend.Sgx () in
  establish plane client;
  (match Serve.resize_session plane ~session:(Serve.Client.session_id client) ~pages:2 with
  | Error (Serve.Unsupported _) -> ()
  | Ok _ -> Alcotest.fail "SGX1 EDMM resize should be refused"
  | Error r -> Alcotest.failf "expected Unsupported, got %a" Serve.pp_reject r);
  Serve.destroy plane

let test_state_ecall_reserved () =
  let p = Platform.create ~seed:7022L () in
  let plane = Serve.create_node ~platform:p @@ Serve.Node_config.v ~platform:p Serve.default_config in
  (try
     ignore
       (Serve.add_tenant plane ~name:"clash"
          { (Backend.config (Backend.Hyperenclave Sgx_types.GU)) with
            Backend.handlers = [ (Serve.state_ecall, fun _ input -> input) ] });
     Alcotest.fail "reserved ECALL collision accepted"
   with Invalid_argument _ -> ());
  Serve.destroy plane

(* ------------------------------------------------------------------ *)
(* Graceful degradation under injected faults                          *)

let test_transient_fault_absorbed () =
  let _p, plane, _backend, client = build ~seed:7030L () in
  establish plane client;
  Fault.install [ { Fault.site = "serve.session"; nth = 1; kind = Fault.Transient } ];
  let replies = Serve.Client.roundtrip plane client [ (1, Bytes.of_string "survive") ] in
  Fault.clear ();
  (match replies with
  | [ Ok body ] -> Alcotest.(check string) "served through retry" "survive" (Bytes.to_string body)
  | [ Error r ] -> Alcotest.failf "transient fault not absorbed: %a" Serve.pp_reject r
  | _ -> Alcotest.fail "expected one reply");
  Serve.destroy plane

let test_permanent_fault_typed () =
  let p, plane, _backend, client = build ~seed:7031L () in
  establish plane client;
  (* Make sure the session works, then break it permanently at the next
     site crossing: the reply must be a typed Session_fault, invariants
     must stay green, and the session must keep working afterwards. *)
  (match Serve.Client.roundtrip plane client [ (1, Bytes.of_string "ok") ] with
  | [ Ok _ ] -> ()
  | _ -> Alcotest.fail "pre-fault roundtrip failed");
  let inv_failures = ref [] in
  Fault.install [ { Fault.site = "serve.session"; nth = 1; kind = Fault.Permanent } ];
  Fault.on_inject (fun ~site:_ _kind ->
      match Invariants.check p.Platform.monitor with
      | [] -> ()
      | findings -> inv_failures := Invariants.summary findings :: !inv_failures);
  let replies = Serve.Client.roundtrip plane client [ (1, Bytes.of_string "doomed") ] in
  Fault.clear ();
  Alcotest.(check (list string)) "invariants green at injection" [] !inv_failures;
  (match replies with
  | [ Error (Serve.Session_fault _) ] -> ()
  | [ Ok _ ] -> Alcotest.fail "permanent fault produced a clean reply"
  | [ Error r ] -> Alcotest.failf "expected session-fault, got %a" Serve.pp_reject r
  | _ -> Alcotest.fail "expected one reply");
  (match Serve.Client.roundtrip plane client [ (1, Bytes.of_string "after") ] with
  | [ Ok body ] -> Alcotest.(check string) "session recovered" "after" (Bytes.to_string body)
  | _ -> Alcotest.fail "session unusable after typed fault");
  Serve.destroy plane

let test_chaos_two_tenants_two_cores () =
  (* Seeded chaos over the serving plane: 2 tenants, 2 cores, faults on
     every site the serving path crosses.  Every request must end in a
     clean reply or a typed rejection — never an escaped exception —
     with monitor invariants green at the moment of every injection. *)
  let seeds = [ 9100; 9200; 9300 ] in
  List.iter
    (fun seed ->
      let p = Platform.create ~seed:(Int64.of_int (0x5E12E000 + seed)) () in
      let plane =
        Serve.create_node ~platform:p @@ Serve.Node_config.v ~platform:p
          { Serve.default_config with
            Serve.sched = { Sched.default_config with Sched.cores = 2; drop_on_error = true } }
      in
      let b1 = Serve.add_tenant plane ~name:"acme" (tenant_config ()) in
      let b2 =
        Serve.add_tenant plane ~name:"globex"
          (tenant_config ~kind:(Backend.Hyperenclave Sgx_types.HU) ())
      in
      let mk backend seed =
        let identity = Option.get backend.Backend.identity in
        Serve.Client.create ~rng:(Rng.create ~seed) ~golden:(golden_of p)
          ~policy:(policy_pinning identity) ~expected_tenant:identity ()
      in
      let c1 = mk b1 11L and c2 = mk b2 12L in
      establish plane c1;
      (match Serve.handshake plane ~tenant:"globex" (Serve.Client.hello c2) with
      | Ok accept -> (
          match Serve.Client.establish c2 accept with
          | Ok () -> ()
          | Error r -> Alcotest.failf "globex establish: %a" Serve.pp_reject r)
      | Error r -> Alcotest.failf "globex handshake: %a" Serve.pp_reject r);
      let plan =
        Fault.plan_of_seed
          ~sites:
            [ "serve.session"; "sdk.ms_copy_in"; "sdk.ms_copy_out";
              "switch.aex"; "switch.eresume"; "epc.alloc" ]
          ~faults:5 (Int64.of_int seed)
      in
      let plan_str = Fault.plan_to_string plan in
      let inv_failures = ref [] in
      Fault.install ~telemetry:(Monitor.telemetry p.Platform.monitor) plan;
      Fault.on_inject (fun ~site _kind ->
          match Invariants.check p.Platform.monitor with
          | [] -> ()
          | findings ->
              inv_failures := (site, Invariants.summary findings) :: !inv_failures);
      for round = 0 to 3 do
        List.iter
          (fun (client, tag) ->
            let reqs =
              List.init 3 (fun i ->
                  (1, Bytes.of_string (Printf.sprintf "%s-%d-%d" tag round i)))
            in
            match Serve.Client.roundtrip plane client reqs with
            | exception e ->
                Alcotest.failf "escaped exception under plan %s: %s" plan_str
                  (Printexc.to_string e)
            | replies ->
                List.iter
                  (function
                    | Ok _ -> ()
                    | Error r ->
                        (* Typed degradation is the contract; anything
                           typed is acceptable under chaos. *)
                        ignore (Serve.reject_name r))
                  replies)
          [ (c1, "a"); (c2, "g") ]
      done;
      Fault.clear ();
      (match !inv_failures with
      | [] -> ()
      | (site, summary) :: _ ->
          Alcotest.failf "invariants broken at %s under plan %s: %s" site plan_str
            summary);
      (match Invariants.check p.Platform.monitor with
      | [] -> ()
      | findings ->
          Alcotest.failf "invariants broken after chaos run: %s"
            (Invariants.summary findings));
      Serve.destroy plane)
    seeds

(* ------------------------------------------------------------------ *)
(* Session lifecycle: close, churn, bounded replay cache, teardown     *)

let test_close_session () =
  let _p, plane, _backend, client = build ~seed:7050L () in
  establish plane client;
  let sid = Serve.Client.session_id client in
  (* A queued request is dropped with its session: nothing of it may
     survive to the next flush, and its queue slot is released. *)
  (match Serve.submit plane (Serve.Client.request client ~ecall:1 (Bytes.of_string "doomed")) with
  | Ok () -> ()
  | Error r -> Alcotest.failf "submit rejected: %a" Serve.pp_reject r);
  (match Serve.close_session plane ~session:sid with
  | Ok () -> ()
  | Error r -> Alcotest.failf "close rejected: %a" Serve.pp_reject r);
  Alcotest.(check int) "session gone" 0 (Serve.session_count plane);
  Alcotest.(check int) "pending dropped" 0 (List.length (Serve.flush plane));
  expect_reject "unknown-session"
    (Serve.submit plane (Serve.Client.request client ~ecall:1 Bytes.empty));
  expect_reject "unknown-session" (Serve.close_session plane ~session:sid);
  Serve.destroy plane

(* The enclave's session-key table, read through the reserved key ECALL
   with an empty batch (its reply is the number of keys held). *)
let enclave_keys backend =
  match
    Backend.protected_call backend ~id:Serve.key_ecall ~data:(Serve.key_request [])
      ~direction:Edge.In_out ()
  with
  | Backend.Success reply -> (
      match Serve.decode_state_count reply with
      | Ok n -> n
      | Error m -> Alcotest.failf "key ECALL reply: %s" m)
  | Backend.Typed_error m | Backend.Violation m -> Alcotest.failf "key ECALL: %s" m

(* A session's key enters the enclave at its first flush, leaves it with
   the tenant's next flush after a close, and at retire: the table holds
   only live sessions. *)
let test_enclave_key_lifecycle () =
  let p, plane, backend, c1 = build ~seed:7052L () in
  let c2 =
    Serve.Client.create ~rng:(Rng.create ~seed:7099L) ~golden:(golden_of p)
      ~policy:(policy_pinning (Option.get backend.Backend.identity))
      ()
  in
  establish plane c1;
  establish plane c2;
  Alcotest.(check int) "no key before a flush" 0 (enclave_keys backend);
  served plane c1 "first";
  served plane c2 "second";
  Alcotest.(check int) "both flushed sessions keyed" 2 (enclave_keys backend);
  (match Serve.close_session plane ~session:(Serve.Client.session_id c1) with
  | Ok () -> ()
  | Error r -> Alcotest.failf "close rejected: %a" Serve.pp_reject r);
  served plane c2 "third";
  Alcotest.(check int) "closed session's key dropped" 1 (enclave_keys backend);
  (match Serve.retire_tenant plane ~tenant:"acme" ~to_node:1 with
  | Ok 1 -> ()
  | Ok n -> Alcotest.failf "retired %d sessions" n
  | Error r -> Alcotest.failf "retire rejected: %a" Serve.pp_reject r);
  Alcotest.(check int) "retire empties the table" 0 (enclave_keys backend);
  Serve.destroy plane

(* A host that drops a live session's key from the enclave (the key
   ECALL is an ordinary ECALL it can issue) only denies service: the
   session's ring fails with a typed fault and nothing raises. *)
let test_dropped_key_typed_fault () =
  let _p, plane, backend, client = build ~seed:7054L () in
  establish plane client;
  served plane client "keyed";
  ignore
    (Backend.protected_call backend ~id:Serve.key_ecall
       ~data:(Serve.key_request [ (Serve.Client.session_id client, Bytes.empty) ])
       ~direction:Edge.In_out ()
      : Backend.outcome);
  (match Serve.Client.roundtrip plane client [ (2, Bytes.of_string "unkeyed") ] with
  | [ Error (Serve.Session_fault m) ] ->
      Alcotest.(check bool) ("names the missing key: " ^ m) true
        (let needle = "no key installed" in
         let rec go i =
           i + String.length needle <= String.length m
           && (String.sub m i (String.length needle) = needle || go (i + 1))
         in
         go 0)
  | [ Error r ] -> Alcotest.failf "expected session-fault, got %a" Serve.pp_reject r
  | _ -> Alcotest.fail "expected one typed failure");
  Serve.destroy plane

(* The worker derives a reply's nonce from the host-written sequence
   word, so it serves each session's sequence numbers strictly
   increasing: a host that replays a served request, or publishes one
   request in two slots, fails the ring typed instead of getting two
   replies sealed under one key and nonce. *)
let test_replayed_slot_seq_typed () =
  let p, plane, backend, client = build ~seed:7055L () in
  establish plane client;
  let first = Serve.Client.request client ~ecall:2 (Bytes.of_string "first") in
  (match Serve.submit plane first with
  | Ok () -> ()
  | Error r -> Alcotest.failf "submit rejected: %a" Serve.pp_reject r);
  (match Serve.flush plane with
  | [ { Serve.r_result = Ok _; _ } ] -> ()
  | _ -> Alcotest.fail "first request not served");
  let next = Serve.Client.request client ~ecall:2 (Bytes.of_string "next") in
  let ring = List.hd (Serve.tenant_rings plane ~tenant:"acme") in
  List.iter
    (fun (what, reqs) ->
      List.iter
        (fun (r : Serve.request) ->
          let env = r.Serve.envelope in
          let ct = env.Crypto.Authenc.ciphertext in
          Urts.ring_stage ring ~ecall_id:r.Serve.ecall_id ~session:r.Serve.session_id
            ~seq:r.Serve.seq ~tag:env.Crypto.Authenc.tag ~src:ct ~src_off:0
            ~len:(Bytes.length ct))
        reqs;
      Urts.ring_publish ring;
      let sched =
        Sched.create ~shared_clock:p.Platform.clock
          ~telemetry:(Monitor.telemetry p.Platform.monitor)
          { Sched.default_config with Sched.cores = 1; drop_on_error = true }
      in
      let results = ref [] in
      Sched.submit_ring sched ~urts:(Option.get backend.Backend.urts)
        ~on_result:(fun ~index:_ r -> results := r :: !results)
        ring;
      let stats = Sched.run sched in
      Alcotest.(check int) (what ^ ": every slot failed") (List.length reqs)
        stats.Sched.failed_requests;
      List.iter
        (function
          | Ok _ -> Alcotest.failf "%s: a slot was served" what
          | Error m ->
              Alcotest.(check bool)
                (Printf.sprintf "%s: names the sequence number (%s)" what m)
                true
                (let needle = "sequence number" in
                 let rec go i =
                   i + String.length needle <= String.length m
                   && (String.sub m i (String.length needle) = needle || go (i + 1))
                 in
                 go 0))
        !results;
      Urts.ring_reset ring)
    [ ("a served request replayed", [ first ]); ("one request in two slots", [ next; next ]) ];
  Serve.destroy plane

(* A host that has the pinned marshalling buffer can rewrite a
   published slot: find [needle] there and overwrite it with [patch]. *)
let rewrite_pinned (p : Platform.t) urts ~needle ~patch =
  let base, size = Option.get (Urts.enclave urts).Enclave.marshalling in
  let kernel = Kmod.kernel p.Platform.kmod in
  let pages = size / Hw.Addr.page_size in
  let frame i =
    match Kernel.resolve_frame kernel p.Platform.proc ~vpn:(Hw.Addr.page_of base + i) with
    | Some frame -> Hw.Addr.base_of_page frame
    | None -> Alcotest.fail "marshalling page not resident"
  in
  let image =
    Bytes.concat Bytes.empty
      (List.init pages (fun i -> Hw.Phys_mem.read_bytes p.Platform.mem (frame i) Hw.Addr.page_size))
  in
  let n = Bytes.length needle in
  let rec find i =
    if i + n > Bytes.length image then Alcotest.fail "needle not in the marshalling buffer"
    else if Bytes.sub image i n = needle then i
    else find (i + 1)
  in
  Bytes.blit patch 0 image (find 0) (Bytes.length patch);
  for i = 0 to pages - 1 do
    Hw.Phys_mem.write_bytes p.Platform.mem (frame i)
      (Bytes.sub image (i * Hw.Addr.page_size) Hw.Addr.page_size)
  done

(* The request's tag binds its ECALL id: a host that rewrites a
   published slot's id gets the slot refused by the enclave instead of
   served by another handler, and the ring's dispatch does not fail. *)
let test_respliced_slot_ecall_refused () =
  let p = Platform.create ~seed:7056L () in
  let plane =
    Serve.create_node ~platform:p @@ Serve.Node_config.v ~platform:p Serve.default_config
  in
  let ran = Array.make 3 0 in
  let counting id f = (id, fun _env input -> ran.(id) <- ran.(id) + 1; f input) in
  let backend =
    Serve.add_tenant plane ~name:"acme"
      { (tenant_config ()) with Backend.handlers = [ counting 1 Fun.id; counting 2 upper ] }
  in
  let identity = Option.get backend.Backend.identity in
  let client =
    Serve.Client.create ~rng:(Rng.create ~seed:7057L) ~golden:(golden_of p)
      ~policy:(policy_pinning identity) ~expected_tenant:identity ()
  in
  establish plane client;
  served plane client "keyed";
  let req = Serve.Client.request client ~ecall:2 (Bytes.of_string "for ecall 2") in
  let env = req.Serve.envelope in
  let ct = env.Crypto.Authenc.ciphertext in
  let header ecall =
    Urts.encode_slot_header
      {
        Urts.h_ecall = ecall;
        h_len = Bytes.length ct;
        h_session = req.Serve.session_id;
        h_seq = req.Serve.seq;
        h_tag = env.Crypto.Authenc.tag;
        h_clear = false;
      }
  in
  let ring = List.hd (Serve.tenant_rings plane ~tenant:"acme") in
  let urts = Option.get backend.Backend.urts in
  Urts.ring_stage ring ~ecall_id:2 ~session:req.Serve.session_id ~seq:req.Serve.seq
    ~tag:env.Crypto.Authenc.tag ~src:ct ~src_off:0 ~len:(Bytes.length ct);
  Urts.ring_publish ring;
  rewrite_pinned p urts ~needle:(header 2) ~patch:(header 1);
  let sched =
    Sched.create ~shared_clock:p.Platform.clock
      ~telemetry:(Monitor.telemetry p.Platform.monitor)
      { Sched.default_config with Sched.cores = 1; drop_on_error = true }
  in
  Sched.submit_ring sched ~urts ~on_result:(fun ~index:_ _ -> ()) ring;
  let stats = Sched.run sched in
  Alcotest.(check int) "the ring did not fail" 0 stats.Sched.failed_requests;
  Urts.ring_read_replies ring;
  Alcotest.(check bool) "the respliced slot is refused" true
    (Urts.ring_reply_refused ring ~slot:0);
  Alcotest.(check (array int)) "no handler ran for it" [| 0; 0; 1 |] ran;
  Urts.ring_reset ring;
  Serve.destroy plane

(* A ring with a flipped ciphertext byte, a flipped tag byte and a
   genuine sibling: the worker refuses the two damaged slots, serves the
   sibling, and each damaged request comes back as [Bad_auth]. *)
let test_damaged_slots_bad_auth () =
  let p, plane, _backend, client = build ~seed:7058L () in
  establish plane client;
  let request text = Serve.Client.request client ~ecall:2 (Bytes.of_string text) in
  let ct_flipped = with_ciphertext flip_byte0 (request "ciphertext flipped") in
  let tag_flipped = with_tag flip_byte0 (request "tag flipped") in
  let reqs = [ ct_flipped; tag_flipped; request "sibling" ] in
  List.iter
    (fun req ->
      match Serve.submit plane req with
      | Ok () -> ()
      | Error r -> Alcotest.failf "submit not admitted: %a" Serve.pp_reject r)
    reqs;
  (match Serve.flush plane with
  | [
   { Serve.r_result = Error Serve.Bad_auth; _ };
   { Serve.r_result = Error Serve.Bad_auth; _ };
   sibling;
  ] -> (
      match Serve.Client.read_reply client sibling with
      | Ok body -> Alcotest.(check string) "sibling served" "SIBLING" (Bytes.to_string body)
      | Error r -> Alcotest.failf "sibling failed: %a" Serve.pp_reject r)
  | _ -> Alcotest.fail "expected two bad-auth replies, then the sibling's");
  Alcotest.(check int) "one ring carried all three" 1
    (List.length (Serve.tenant_rings plane ~tenant:"acme"));
  Alcotest.(check int) "bad-auth counted per reply" 2
    (Telemetry.counter (Monitor.telemetry p.Platform.monitor) "serve.reject.bad-auth");
  Serve.destroy plane

let test_session_churn_reuses_state_slots () =
  (* PR 6 lifecycle fix: closed sessions recycle their EDMM state slot
     through the tenant free list.  Observable through the enclave's
     dynamic-page count — a reused slot's stride is already committed,
     so churning sessions must not keep growing the heap. *)
  let _p, plane, backend, client = build ~seed:7051L () in
  let enclave = Urts.enclave (Option.get backend.Backend.urts) in
  let reconnect () =
    establish plane client;
    match Serve.resize_session plane ~session:(Serve.Client.session_id client) ~pages:2 with
    | Ok _ -> ()
    | Error r -> Alcotest.failf "resize rejected: %a" Serve.pp_reject r
  in
  reconnect ();
  let after_first = enclave.Enclave.stats.Enclave.dyn_pages in
  for _ = 1 to 8 do
    (match Serve.close_session plane ~session:(Serve.Client.session_id client) with
    | Ok () -> ()
    | Error r -> Alcotest.failf "close rejected: %a" Serve.pp_reject r);
    reconnect ()
  done;
  Alcotest.(check int) "slot reuse: no dynamic-page growth under churn"
    after_first enclave.Enclave.stats.Enclave.dyn_pages;
  Alcotest.(check int) "one live session after churn" 1 (Serve.session_count plane);
  Serve.destroy plane

let test_nonce_cache_bounded () =
  (* The replay cache remembers only the last [nonce_cache] nonces — a
     hard memory bound.  Recent nonces are still rejected; one pushed
     out by newer handshakes is accepted again (the documented trade of
     a bounded cache). *)
  let config = { Serve.default_config with Serve.nonce_cache = 4 } in
  let _p, plane, _backend, client = build ~seed:7052L ~config () in
  let oldest = Serve.Client.hello client in
  (match Serve.handshake plane ~tenant:"acme" oldest with
  | Ok _ -> ()
  | Error r -> Alcotest.failf "handshake rejected: %a" Serve.pp_reject r);
  let newest = ref oldest in
  for _ = 1 to 4 do
    let hello = Serve.Client.hello client in
    newest := hello;
    match Serve.handshake plane ~tenant:"acme" hello with
    | Ok _ -> ()
    | Error r -> Alcotest.failf "handshake rejected: %a" Serve.pp_reject r
  done;
  expect_reject "replayed-nonce" (Serve.handshake plane ~tenant:"acme" !newest);
  (match Serve.handshake plane ~tenant:"acme" oldest with
  | Ok _ -> ()
  | Error r ->
      Alcotest.failf "evicted nonce should re-admit (bounded cache): %a"
        Serve.pp_reject r);
  Serve.destroy plane

let test_destroy_owns_tenant_backends () =
  (* PR 6 teardown fix: the plane created the tenant backends, so
     [destroy] tears them down too — no enclave outlives the plane —
     and destroying twice is a harmless no-op. *)
  let p, plane, _backend, client = build ~seed:7053L () in
  establish plane client;
  Alcotest.(check bool) "tenant enclave live" true
    (Monitor.enclave_count p.Platform.monitor > 0);
  Serve.destroy plane;
  Alcotest.(check int) "no enclave outlives the plane" 0
    (Monitor.enclave_count p.Platform.monitor);
  Alcotest.(check int) "session table cleared" 0 (Serve.session_count plane);
  Serve.destroy plane;
  (match Invariants.check p.Platform.monitor with
  | [] -> ()
  | findings ->
      Alcotest.failf "invariants broken after teardown: %s"
        (Invariants.summary findings))

(* ------------------------------------------------------------------ *)
(* Scheduler statistics must be a read-only snapshot                   *)

let test_sched_stats_read_only () =
  (* Regression: [sched_stats] used to call the mutating [Sched.run],
     silently draining whatever was queued.  A snapshot taken between
     submit and flush must neither serve the queued request nor change
     across repeated calls. *)
  let _p, plane, _backend, client = build ~seed:7054L () in
  establish plane client;
  (match Serve.Client.roundtrip plane client [ (1, Bytes.of_string "warm") ] with
  | [ Ok _ ] -> ()
  | _ -> Alcotest.fail "warm-up roundtrip failed");
  (match Serve.submit plane (Serve.Client.request client ~ecall:1 (Bytes.of_string "queued")) with
  | Ok () -> ()
  | Error r -> Alcotest.failf "submit rejected: %a" Serve.pp_reject r);
  let s1 = Serve.sched_stats plane in
  let s2 = Serve.sched_stats plane in
  Alcotest.(check int) "snapshot is stable across calls"
    s1.Sched.total_requests s2.Sched.total_requests;
  Alcotest.(check int) "snapshot did not serve the queued request" 1
    s1.Sched.total_requests;
  (* The queued request is still there for flush to serve. *)
  (match Serve.flush plane with
  | [ reply ] -> (
      match Serve.Client.read_reply client reply with
      | Ok body -> Alcotest.(check string) "still served" "queued" (Bytes.to_string body)
      | Error r -> Alcotest.failf "reply rejected: %a" Serve.pp_reject r)
  | replies -> Alcotest.failf "expected 1 reply, got %d" (List.length replies));
  let s3 = Serve.sched_stats plane in
  Alcotest.(check int) "flush, not stats, advanced the counter" 2
    s3.Sched.total_requests;
  Serve.destroy plane

(* ------------------------------------------------------------------ *)
(* Reply-channel splice and direction attacks                          *)

let test_reply_splice_rejected () =
  (* Replies are sealed to their session and sequence: a reply lifted
     from tenant A's channel must bounce off client B, a re-numbered
     reply must fail its AAD, and a reply envelope fed back in as a
     request must trip the direction binding — all typed, with monitor
     invariants green throughout. *)
  let p = Platform.create ~seed:7055L () in
  let plane = Serve.create_node ~platform:p @@ Serve.Node_config.v ~platform:p Serve.default_config in
  let b1 = Serve.add_tenant plane ~name:"acme" (tenant_config ()) in
  let b2 = Serve.add_tenant plane ~name:"globex" (tenant_config ()) in
  let mk backend seed =
    let identity = Option.get backend.Backend.identity in
    Serve.Client.create ~rng:(Rng.create ~seed) ~golden:(golden_of p)
      ~policy:(policy_pinning identity) ~expected_tenant:identity ()
  in
  let c1 = mk b1 21L and c2 = mk b2 22L in
  establish plane c1;
  (match Serve.handshake plane ~tenant:"globex" (Serve.Client.hello c2) with
  | Ok accept -> (
      match Serve.Client.establish c2 accept with
      | Ok () -> ()
      | Error r -> Alcotest.failf "globex establish: %a" Serve.pp_reject r)
  | Error r -> Alcotest.failf "globex handshake: %a" Serve.pp_reject r);
  (match Serve.submit plane (Serve.Client.request c1 ~ecall:1 (Bytes.of_string "mine")) with
  | Ok () -> ()
  | Error r -> Alcotest.failf "submit rejected: %a" Serve.pp_reject r);
  (match Serve.flush plane with
  | [ reply ] ->
      (* Cross-session read: wrong recipient, typed refusal. *)
      expect_reject "unknown-session" (Serve.Client.read_reply c2 reply);
      (* Re-numbered reply: the AAD binds the sequence. *)
      expect_reject "bad-auth"
        (Serve.Client.read_reply c1 { reply with Serve.r_seq = reply.Serve.r_seq + 9 });
      (* Reply-as-request: the direction byte in nonce and AAD domain
         separate the two halves of the channel. *)
      (match reply.Serve.r_result with
      | Ok envelope ->
          expect_reject "bad-auth"
            (Serve.submit plane
               { Serve.session_id = reply.Serve.r_session_id;
                 seq = reply.Serve.r_seq;
                 ecall_id = 1;
                 envelope })
      | Error r -> Alcotest.failf "reply carried a rejection: %a" Serve.pp_reject r);
      (* The rightful recipient still reads it cleanly. *)
      (match Serve.Client.read_reply c1 reply with
      | Ok body -> Alcotest.(check string) "rightful read" "mine" (Bytes.to_string body)
      | Error r -> Alcotest.failf "rightful read rejected: %a" Serve.pp_reject r)
  | replies -> Alcotest.failf "expected 1 reply, got %d" (List.length replies));
  (match Invariants.check p.Platform.monitor with
  | [] -> ()
  | findings ->
      Alcotest.failf "invariants broken after splice attempts: %s"
        (Invariants.summary findings));
  Serve.destroy plane

(* ------------------------------------------------------------------ *)
(* Session resumption tickets                                          *)

let test_ticket_resume () =
  let p, plane, _backend, client = build ~seed:7056L () in
  establish plane client;
  (match Serve.Client.roundtrip plane client [ (1, Bytes.of_string "full") ] with
  | [ Ok _ ] -> ()
  | _ -> Alcotest.fail "pre-ticket roundtrip failed");
  let ticket =
    match Serve.issue_ticket plane ~session:(Serve.Client.session_id client) with
    | Ok tk -> tk
    | Error r -> Alcotest.failf "issue_ticket rejected: %a" Serve.pp_reject r
  in
  let old_sid = Serve.Client.session_id client in
  let resume = Serve.Client.resume_hello client ~ticket in
  (match Serve.resume plane resume with
  | Ok session_id ->
      Alcotest.(check bool) "fresh session id" true (session_id <> old_sid);
      Serve.Client.complete_resume client ~session_id
  | Error r -> Alcotest.failf "resume rejected: %a" Serve.pp_reject r);
  (* The resumed channel serves without any new quote having been cut. *)
  (match Serve.Client.roundtrip plane client [ (2, Bytes.of_string "resumed") ] with
  | [ Ok body ] -> Alcotest.(check string) "served on resumed key" "RESUMED" (Bytes.to_string body)
  | _ -> Alcotest.fail "resumed roundtrip failed");
  let tel = Monitor.telemetry p.Platform.monitor in
  Alcotest.(check int) "resume counted" 1 (Telemetry.counter tel "serve.resume");
  Alcotest.(check int) "only the handshake cut a quote" 1
    (Telemetry.counter tel "serve.handshake");
  Serve.destroy plane

let test_ticket_tampered () =
  let _p, plane, _backend, client = build ~seed:7057L () in
  establish plane client;
  let ticket =
    match Serve.issue_ticket plane ~session:(Serve.Client.session_id client) with
    | Ok tk -> tk
    | Error r -> Alcotest.failf "issue_ticket rejected: %a" Serve.pp_reject r
  in
  let tampered = Bytes.copy ticket in
  let mid = Bytes.length tampered / 2 in
  Bytes.set tampered mid (Char.chr (Char.code (Bytes.get tampered mid) lxor 1));
  expect_reject "bad-ticket"
    (Serve.resume plane (Serve.Client.resume_hello client ~ticket:tampered));
  (* Garbage that never parses is the same typed refusal, not a crash. *)
  let client2_resume = { Serve.r_ticket = Bytes.of_string "junk"; r_nonce = Bytes.make 16 'n' } in
  expect_reject "bad-ticket" (Serve.resume plane client2_resume);
  Serve.destroy plane

let test_ticket_expired () =
  let config = { Serve.default_config with Serve.ticket_ttl = 1_000 } in
  let p, plane, _backend, client = build ~seed:7058L ~config () in
  establish plane client;
  let ticket =
    match Serve.issue_ticket plane ~session:(Serve.Client.session_id client) with
    | Ok tk -> tk
    | Error r -> Alcotest.failf "issue_ticket rejected: %a" Serve.pp_reject r
  in
  Cycles.tick p.Platform.clock 2_000;
  expect_reject "ticket-expired"
    (Serve.resume plane (Serve.Client.resume_hello client ~ticket));
  Serve.destroy plane

let test_ticket_replay_rejected () =
  (* The client's fresh resume nonce is burnt on first use: replaying
     the whole resume record must not mint a second session. *)
  let _p, plane, _backend, client = build ~seed:7059L () in
  establish plane client;
  let ticket =
    match Serve.issue_ticket plane ~session:(Serve.Client.session_id client) with
    | Ok tk -> tk
    | Error r -> Alcotest.failf "issue_ticket rejected: %a" Serve.pp_reject r
  in
  let resume = Serve.Client.resume_hello client ~ticket in
  (match Serve.resume plane resume with
  | Ok session_id -> Serve.Client.complete_resume client ~session_id
  | Error r -> Alcotest.failf "first resume rejected: %a" Serve.pp_reject r);
  expect_reject "replayed-nonce" (Serve.resume plane resume);
  (* The legitimately resumed session is unaffected by the replay. *)
  (match Serve.Client.roundtrip plane client [ (1, Bytes.of_string "still here") ] with
  | [ Ok body ] -> Alcotest.(check string) "unaffected" "still here" (Bytes.to_string body)
  | _ -> Alcotest.fail "resumed session broken by replay attempt");
  Serve.destroy plane

let test_telemetry_counters () =
  let p, plane, _backend, client = build ~seed:7040L () in
  establish plane client;
  (match Serve.Client.roundtrip plane client [ (1, Bytes.of_string "t") ] with
  | [ Ok _ ] -> ()
  | _ -> Alcotest.fail "roundtrip failed");
  expect_reject "unknown-tenant"
    (Serve.handshake plane ~tenant:"ghost" (Serve.Client.hello client));
  let tel = Monitor.telemetry p.Platform.monitor in
  let check_counter name expected =
    Alcotest.(check int) name expected (Telemetry.counter tel name)
  in
  check_counter "serve.handshake" 1;
  check_counter "serve.session_open" 1;
  check_counter "serve.request.admitted" 1;
  check_counter "serve.request.ok" 1;
  check_counter "serve.reject.unknown-tenant" 1;
  (* PR 7 arena watermarks: one staged request, one ring shard used. *)
  check_counter "serve.arena.high_water" 1;
  check_counter "serve.ring.shards_active" 1;
  Alcotest.(check bool) "tenant cycles recorded" true
    (Telemetry.counter tel "serve.tenant.acme.cycles" > 0);
  Serve.destroy plane

(* ------------------------------------------------------------------ *)
(* Reply spec: what [submit] and [flush] must answer                   *)

(* Traffic for a plane with three tenants and two sessions each (session
   [i] belongs to tenant [i / 2]): two HyperEnclave tenants served
   through the ring path, one SGX-model tenant through the synchronous
   fallback.  A damaged send flips a byte of its envelope's tag (or of
   its ciphertext, for an odd-length payload) after sealing. *)
type op =
  | Send of int * int * string * bool  (* session, ecall, payload, damaged *)
  | Close of int

let spec_kinds =
  Backend.[| Hyperenclave Sgx_types.GU; Hyperenclave Sgx_types.HU; Sgx |]

type spec_session = {
  sid : int;
  mutable alive : bool;
  mutable sent : int;  (* the client's next sequence number *)
  mutable recv : int;  (* the sequence number the plane expects *)
  mutable staged : (int * string option) list;
      (* rev (seq, reply body), [None] for a damaged envelope *)
}

(* The serving contract as a pure model.  [submit] answers "ok" or a
   [Serve.reject_name]: unknown-session once closed; unsupported for a
   ciphertext over [slot_bytes] (the sequence number is not burnt);
   bad-sequence once the client's counter ran ahead; backpressure past
   [max_queue] staged requests per tenant (burnt).  A damaged envelope
   is admitted like a genuine one: admission checks no tag.  [close]
   drops what the session staged.  [flush] answers every staged request
   once, in tenant insertion order, then session id, then sequence
   number, with the handler's output as body, or bad-auth for a damaged
   envelope. *)
module Spec = struct
  type t = {
    ss : spec_session array;
    queued : int array;  (* per tenant *)
    max_queue : int;
    slot_bytes : int;
  }

  let submit m i ecall payload ~damaged =
    let s = m.ss.(i) and tn = i / 2 in
    let seq = s.sent in
    s.sent <- seq + 1;
    if not s.alive then "unknown-session"
    else if String.length payload > m.slot_bytes then "unsupported"
    else if seq <> s.recv then "bad-sequence"
    else begin
      s.recv <- seq + 1;
      if m.queued.(tn) >= m.max_queue then "backpressure"
      else begin
        m.queued.(tn) <- m.queued.(tn) + 1;
        let body =
          if damaged then None
          else if ecall = 2 then Some (String.uppercase_ascii payload)
          else Some payload
        in
        s.staged <- (seq, body) :: s.staged;
        "ok"
      end
    end

  let close m i =
    let s = m.ss.(i) in
    if not s.alive then "unknown-session"
    else begin
      m.queued.(i / 2) <- m.queued.(i / 2) - List.length s.staged;
      s.staged <- [];
      s.alive <- false;
      "ok"
    end

  (* (session, seq, body) in reply order *)
  let flush m =
    let key i = (i / 2, m.ss.(i).sid) in
    let replies =
      List.init (Array.length m.ss) Fun.id
      |> List.sort (fun a b -> compare (key a) (key b))
      |> List.concat_map (fun i ->
             List.rev_map (fun (seq, body) -> (i, seq, body)) m.ss.(i).staged)
    in
    Array.iter (fun s -> s.staged <- []) m.ss;
    Array.fill m.queued 0 (Array.length m.queued) 0;
    replies
end

(* The reply nonce: direction byte, then the sequence number at 4. *)
let reply_nonce seq =
  let n = Bytes.make 12 '\000' in
  Bytes.set n 0 '<';
  Bytes.set_int64_le n 4 (Int64.of_int seq);
  n

(* Run each batch of ops, then a flush, on a real plane and hold every
   outcome to [Spec].  A reply matches when its session id, sequence
   number and nonce are the expected ones and [Client.read_reply] opens
   it (AAD check + AEAD tag) to the expected body: with key, nonce, AAD
   and plaintext fixed, that pins every byte of the envelope.  A damaged
   request's reply must be bad-auth. *)
let spec_property ((cores, batch, shard_block, max_queue), batches) =
  let config =
    {
      Serve.default_config with
      Serve.max_queue;
      shard_block;
      sched = { Sched.default_config with Sched.cores; batch };
    }
  in
  let p = Platform.create ~seed:7050L () in
  let plane =
    Serve.create_node ~platform:p @@ Serve.Node_config.v ~platform:p config
  in
  let name tn = Printf.sprintf "t%d" tn in
  let ids =
    Array.mapi
      (fun tn kind ->
        Option.get
          (Serve.add_tenant plane ~name:(name tn) (tenant_config ~kind ()))
            .Backend.identity)
      spec_kinds
  in
  let clients =
    Array.init 6 (fun i ->
        let quoter =
          if spec_kinds.(i / 2) = Backend.Sgx then Serve.quoting_identity plane
          else ids.(i / 2)
        in
        Serve.Client.create
          ~rng:(Rng.create ~seed:(Int64.of_int (7150 + i)))
          ~golden:(golden_of p) ~policy:(policy_pinning quoter)
          ~expected_tenant:ids.(i / 2) ())
  in
  (* out of tenant order, so session ids and tenant order disagree *)
  List.iter
    (fun i -> establish ~tenant:(name (i / 2)) plane clients.(i))
    [ 4; 0; 2; 1; 5; 3 ];
  let m =
    {
      Spec.ss =
        Array.map
          (fun c ->
            let sid = Serve.Client.session_id c in
            { sid; alive = true; sent = 0; recv = 0; staged = [] })
          clients;
      queued = Array.make 3 0;
      max_queue;
      slot_bytes = config.Serve.slot_bytes;
    }
  in
  let outcome = function Ok () -> "ok" | Error r -> Serve.reject_name r in
  let damage (req : Serve.request) =
    let env = req.Serve.envelope in
    let flip b =
      let b = Bytes.copy b in
      Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 0x80));
      b
    in
    let env =
      if Bytes.length env.Crypto.Authenc.ciphertext land 1 = 1 then
        { env with Crypto.Authenc.ciphertext = flip env.Crypto.Authenc.ciphertext }
      else { env with Crypto.Authenc.tag = flip env.Crypto.Authenc.tag }
    in
    { req with Serve.envelope = env }
  in
  let op_ok = function
    | Send (i, ecall, payload, damaged) ->
        let req =
          Serve.Client.request clients.(i) ~ecall (Bytes.of_string payload)
        in
        let req = if damaged then damage req else req in
        outcome (Serve.submit plane req) = Spec.submit m i ecall payload ~damaged
    | Close i ->
        outcome (Serve.close_session plane ~session:m.Spec.ss.(i).sid)
        = Spec.close m i
  in
  let reply_ok (r : Serve.reply) (i, seq, body) =
    r.Serve.r_session_id = m.Spec.ss.(i).sid
    && r.Serve.r_seq = seq
    &&
    match (body, r.Serve.r_result) with
    | None, result -> result = Error Serve.Bad_auth
    | Some _, Error _ -> false
    | Some body, Ok e ->
        Bytes.equal e.Crypto.Authenc.nonce (reply_nonce seq)
        && Serve.Client.read_reply clients.(i) r = Ok (Bytes.of_string body)
  in
  let ok =
    List.for_all
      (fun ops ->
        let ops_ok = List.for_all op_ok ops in
        let replies = Serve.flush plane in
        let expected = Spec.flush m in
        ops_ok
        && List.length replies = List.length expected
        && List.for_all2 reply_ok replies expected)
      batches
  in
  Serve.destroy plane;
  ok

(* Every case shuffles one oversized ciphertext into its first batch and
   closes, mid-batch, the session that batch opened with, so the close
   usually drops staged requests; a 2-request queue then shows any
   leaked queue slot as early backpressure.  Shard blocks down to 1
   split a session's requests over several rings. *)
let spec_gen =
  let open QCheck.Gen in
  let sess = int_bound 5 in
  let send =
    let+ i = sess
    and+ ecall = oneofl [ 1; 2 ]
    and+ payload = string_size ~gen:printable (int_bound 64)
    and+ damaged = map (fun k -> k = 0) (int_bound 4) in
    Send (i, ecall, payload, damaged)
  in
  let batch = list_size (int_bound 12) send in
  let* cfg =
    quad (oneofl [ 1; 2; 4 ]) (oneofl [ 1; 4; 16 ]) (oneofl [ 1; 2; 8 ])
      (oneofl [ 2; 64 ])
  and* big = sess
  and* closed = sess
  and* first = batch
  and* after_close = batch
  and* rest = list_size (int_bound 3) batch in
  let closed = match first with Send (i, _, _, _) :: _ -> i | _ -> closed in
  let+ first = shuffle_l (Send (big, 1, String.make 257 'o', false) :: first) in
  (cfg, (first @ (Close closed :: after_close)) :: rest)

let print_spec_case ((cores, batch, shard_block, max_queue), batches) =
  let op = function
    | Send (i, ecall, payload, damaged) ->
        Printf.sprintf "send%s(s%d,e%d,%dB)"
          (if damaged then "!" else "")
          i ecall (String.length payload)
    | Close i -> Printf.sprintf "close(s%d)" i
  in
  Printf.sprintf "cores=%d batch=%d shard_block=%d max_queue=%d: %s" cores
    batch shard_block max_queue
    (String.concat " | "
       (List.map (fun ops -> String.concat " " (List.map op ops)) batches))

let spec_qcheck =
  QCheck.Test.make ~name:"replies match the reply spec" ~count:20
    (QCheck.make ~print:print_spec_case spec_gen)
    spec_property

(* ------------------------------------------------------------------ *)
(* Arena path: ring sharding                                           *)

let test_arena_hot_tenant_scales () =
  (* The point of block-rotor sharding: one hot tenant's traffic spreads
     across per-core rings, so adding a second core must cut the
     makespan by >= 1.6x even with a single tenant and session. *)
  let makespan ~cores =
    let config =
      {
        Serve.default_config with
        Serve.max_queue = 256;
        sched =
          { Sched.default_config with Sched.cores; Sched.batch = 16 };
      }
    in
    let _p, plane, _backend, client = build ~seed:7051L ~config () in
    establish plane client;
    for round = 0 to 2 do
      List.iteri
        (fun i () ->
          match
            Serve.submit plane
              (Serve.Client.request client ~ecall:1
                 (Bytes.of_string (Printf.sprintf "hot-%d-%d" round i)))
          with
          | Ok () -> ()
          | Error r -> Alcotest.failf "submit rejected: %a" Serve.pp_reject r)
        (List.init 64 (fun _ -> ()));
      List.iter
        (fun (reply : Serve.reply) ->
          match reply.Serve.r_result with
          | Ok _ -> ()
          | Error r -> Alcotest.failf "reply failed: %a" Serve.pp_reject r)
        (Serve.flush plane)
    done;
    let stats = Serve.sched_stats plane in
    Serve.destroy plane;
    stats.Sched.makespan
  in
  let one = makespan ~cores:1 and two = makespan ~cores:2 in
  let speedup = float_of_int one /. float_of_int two in
  Alcotest.(check bool)
    (Printf.sprintf "hot tenant 1->2 core speedup %.2fx >= 1.6x" speedup)
    true (speedup >= 1.6)

(* ------------------------------------------------------------------ *)
(* Client-side AEAD: frozen bytes and steady-state cost                *)

let client_payload = Bytes.init 96 (fun i -> Char.chr (((i * 31) + 7) land 0xff))

let session_key plane =
  match Serve.export_tenant plane ~tenant:"acme" with
  | Ok { Serve.x_sessions = [ x ]; _ } -> x.Serve.x_key
  | Ok _ -> Alcotest.fail "expected exactly one exported session"
  | Error r -> Alcotest.failf "export rejected: %a" Serve.pp_reject r

(* The client seals with a key prepared once per session; its envelope
   must stay byte-identical to the one-shot seal under the session key,
   and to the bytes this deterministic handshake (platform seed 7000)
   produced before the client prepared its keys. *)
let test_client_envelope_frozen () =
  let open Crypto in
  let _p, plane, _backend, client = build () in
  establish plane client;
  let req = Serve.Client.request client ~ecall:1 client_payload in
  let env = req.Serve.envelope in
  Alcotest.(check string)
    "envelope = Authenc.seal under the session key"
    (Bytes.to_string
       (Authenc.encode
          (Authenc.seal ~key:(session_key plane) ~aad:env.Authenc.aad
             ~nonce:env.Authenc.nonce client_payload)))
    (Bytes.to_string (Authenc.encode env));
  Alcotest.(check string)
    "envelope bytes frozen"
    "0000000c3e00000000000000000000000000002273657276652d7265713a000000000000000000000000000000000100000000000000000000600fed83f5299c32528ea6dc6963ded1a225a60c903ff947ef4a654cead14ce4e4df1f28e4dac408ebf7984d89050eb1f3b5b4a50c1e0568130687131f86dbc927b14d538137a02f320b7ab460dbb4d85c30a8747c6ce789b4bd0e5d8a6824263700000020b9bdec7504665fc75ee60f1af4d79295530711bc2ce79c65ff4e03836dd90afd"
    (Sha256.to_hex (Authenc.encode env));
  Serve.destroy plane

(* One request plus the read-back of its reply, 96-byte echo, counting
   only the client's own calls.  When the client re-derived HKDF, the
   AES schedule and the HMAC pads per call this was 3215 minor words on
   OCaml 5.1 without flambda; with the session's prepared keys it is
   the envelope, the reply body and two tags. *)
let test_client_allocation () =
  let _p, plane, _backend, client = build () in
  establish plane client;
  let serve req =
    (match Serve.submit plane req with
    | Ok () -> ()
    | Error r -> Alcotest.failf "submit rejected: %a" Serve.pp_reject r);
    match Serve.flush plane with
    | [ reply ] -> reply
    | _ -> Alcotest.fail "expected one reply"
  in
  let calls = 50 and words = ref 0.0 in
  for i = 0 to calls do
    let w0 = Gc.minor_words () in
    let req = Serve.Client.request client ~ecall:1 client_payload in
    let w1 = Gc.minor_words () in
    let reply = serve req in
    let w2 = Gc.minor_words () in
    let body = Serve.Client.read_reply client reply in
    let w3 = Gc.minor_words () in
    (match body with
    | Ok b -> Alcotest.(check bool) "echoed" true (Bytes.equal b client_payload)
    | Error r -> Alcotest.failf "read_reply failed: %a" Serve.pp_reject r);
    (* the first round warms up; it is not counted *)
    if i > 0 then words := !words +. (w1 -. w0) +. (w3 -. w2)
  done;
  let per_call = !words /. float_of_int calls in
  if per_call > 250.0 then
    Alcotest.failf
      "request + read_reply allocate %.1f minor words (bound 250)" per_call;
  Serve.destroy plane

let suite =
  [
    Alcotest.test_case "roundtrip on all modes" `Quick test_roundtrip_modes;
    Alcotest.test_case "sgx tenant via quoting enclave" `Quick
      test_sgx_tenant_via_quoting_enclave;
    Alcotest.test_case "sgx wrong tenant pin rejected" `Quick
      test_sgx_wrong_tenant_pin_rejected;
    Alcotest.test_case "native tenant refused" `Quick test_native_tenant_refused;
    Alcotest.test_case "unknown tenant" `Quick test_unknown_tenant;
    Alcotest.test_case "replayed nonce" `Quick test_replayed_nonce;
    Alcotest.test_case "spliced accept fails binding" `Quick
      test_spliced_accept_fails_binding;
    Alcotest.test_case "garbage quote wire" `Quick test_garbage_quote_wire;
    Alcotest.test_case "tampered envelope rejected" `Quick
      test_tampered_envelope_rejected;
    Alcotest.test_case "respliced header rejected" `Quick
      test_respliced_header_rejected;
    Alcotest.test_case "replayed request rejected" `Quick
      test_replayed_request_rejected;
    Alcotest.test_case "unknown session" `Quick test_unknown_session;
    Alcotest.test_case "backpressure" `Quick test_backpressure;
    Alcotest.test_case "quota exhaustion and grant" `Quick
      test_quota_exhaustion_and_grant;
    Alcotest.test_case "tenant isolation" `Quick test_tenant_isolation;
    Alcotest.test_case "many requests ordered" `Quick test_many_requests_ordered;
    Alcotest.test_case "resize session (EDMM)" `Quick test_resize_session_edmm;
    Alcotest.test_case "resize session unsupported on SGX" `Quick
      test_resize_session_sgx_unsupported;
    Alcotest.test_case "state ecall reserved" `Quick test_state_ecall_reserved;
    Alcotest.test_case "transient fault absorbed" `Quick
      test_transient_fault_absorbed;
    Alcotest.test_case "permanent fault typed" `Quick test_permanent_fault_typed;
    Alcotest.test_case "chaos: two tenants, two cores" `Slow
      test_chaos_two_tenants_two_cores;
    Alcotest.test_case "close session" `Quick test_close_session;
    Alcotest.test_case "enclave key lifecycle" `Quick test_enclave_key_lifecycle;
    Alcotest.test_case "dropped enclave key fails typed" `Quick
      test_dropped_key_typed_fault;
    Alcotest.test_case "respliced slot ecall refused" `Quick
      test_respliced_slot_ecall_refused;
    Alcotest.test_case "damaged slots answer bad-auth" `Quick
      test_damaged_slots_bad_auth;
    Alcotest.test_case "replayed slot sequence fails typed" `Quick
      test_replayed_slot_seq_typed;
    Alcotest.test_case "session churn reuses state slots" `Quick
      test_session_churn_reuses_state_slots;
    Alcotest.test_case "nonce cache bounded" `Quick test_nonce_cache_bounded;
    Alcotest.test_case "destroy owns tenant backends" `Quick
      test_destroy_owns_tenant_backends;
    Alcotest.test_case "sched stats read-only" `Quick test_sched_stats_read_only;
    Alcotest.test_case "reply splice rejected" `Quick test_reply_splice_rejected;
    Alcotest.test_case "ticket resume" `Quick test_ticket_resume;
    Alcotest.test_case "ticket tampered" `Quick test_ticket_tampered;
    Alcotest.test_case "ticket expired" `Quick test_ticket_expired;
    Alcotest.test_case "ticket replay rejected" `Quick test_ticket_replay_rejected;
    Alcotest.test_case "telemetry counters" `Quick test_telemetry_counters;
    Alcotest.test_case "client envelope bytes frozen" `Quick
      test_client_envelope_frozen;
    Alcotest.test_case "client request + read_reply allocation" `Quick
      test_client_allocation;
    QCheck_alcotest.to_alcotest spec_qcheck;
    Alcotest.test_case "arena hot tenant scales across cores" `Quick
      test_arena_hot_tenant_scales;
  ]
