(* Fleet-scale serving: the multi-monitor cluster, the deterministic
   network, the consistent-hash LB tier, and — the headline — live
   enclave migration with cross-monitor re-attestation.  The negative
   paths mirror the attack corpus discipline: every tampered, replayed
   or mis-routed migration message must die with a typed refusal while
   the monitor invariants stay green on every live node. *)

open Hyperenclave

let upper input = Bytes.of_string (String.uppercase_ascii (Bytes.to_string input))

let tenant_gen () =
  {
    (Backend.config (Backend.Hyperenclave Sgx_types.GU)) with
    Backend.handlers =
      [ (1, fun _env input -> input); (2, fun _env input -> upper input) ];
  }

let build ?(nodes = 4) ?(seed = 9000L) ?(net = Netsim.default_config) () =
  let cl =
    Cluster.create { Cluster.default_config with Cluster.nodes; seed; net }
  in
  let owner = Cluster.add_tenant cl ~name:"acme" tenant_gen in
  (cl, owner)

let connect ?(seed = 1L) cl =
  match Cluster.Client.connect cl ~rng:(Rng.create ~seed) ~tenant:"acme" () with
  | Ok c -> c
  | Error e -> Alcotest.failf "connect failed: %a" Cluster.pp_error e

let call_ok c reqs =
  match Cluster.Client.call c reqs with
  | Error e -> Alcotest.failf "call failed: %a" Cluster.pp_error e
  | Ok replies ->
      List.map
        (function
          | Ok b -> b
          | Error r -> Alcotest.failf "request rejected: %a" Serve.pp_reject r)
        replies

let assert_green cl =
  List.iter
    (fun (node, findings) ->
      Alcotest.(check int)
        (Printf.sprintf "node %d invariants green" node)
        0
        (List.length findings))
    (Cluster.check cl)

let other cl n =
  match List.find_opt (fun m -> Cluster.Node.id m <> n) (Cluster.nodes cl) with
  | Some m -> Cluster.Node.id m
  | None -> Alcotest.fail "need at least two nodes"

let migrate_ok cl ~tenant ~dst =
  match Cluster.migrate cl ~tenant ~dst with
  | Ok n -> n
  | Error e -> Alcotest.failf "migrate failed: %a" Cluster.pp_error e

(* ---------------------------------------------------------------- *)

(* The headline demo: an enclave serving an active AEAD session is
   sealed on its owner, shipped across the simulated network,
   re-attested under the destination monitor's hapk and resumed — the
   client keeps calling through the cutover on the same session, with
   the same keys and sequence cursor, and both monitors stay green. *)
let test_live_migration () =
  let cl, src = build () in
  let c = connect cl in
  Alcotest.(check int) "affinity = owner" src (Cluster.Client.node_id c);
  let sid = Cluster.Client.session_id c in
  let r1 = call_ok c [ (2, Bytes.of_string "before") ] in
  Alcotest.(check string) "pre-move reply" "BEFORE"
    (Bytes.to_string (List.hd r1));
  let dst = other cl src in
  let moved = migrate_ok cl ~tenant:"acme" ~dst in
  Alcotest.(check bool) "session moved" true (moved >= 1);
  Alcotest.(check int) "placement cut over" dst (Cluster.owner cl ~tenant:"acme");
  (* The client still believes it talks to [src]: the next batch hits
     the stale source, gets the typed forward, and completes on the
     destination without a new handshake. *)
  let r2 = call_ok c [ (2, Bytes.of_string "after"); (1, Bytes.of_string "raw") ] in
  Alcotest.(check string) "post-move reply" "AFTER" (Bytes.to_string (List.nth r2 0));
  Alcotest.(check string) "post-move echo" "raw" (Bytes.to_string (List.nth r2 1));
  Alcotest.(check int) "chased to destination" dst (Cluster.Client.node_id c);
  Alcotest.(check int) "session id survives" sid (Cluster.Client.session_id c);
  let s = Cluster.stats cl in
  Alcotest.(check int) "one migration" 1 s.Cluster.migrations;
  Alcotest.(check bool) "pause accounted" true (s.Cluster.max_pause > 0);
  assert_green cl;
  Cluster.destroy cl

(* Migrate back home: forwarding addresses are cleared on import, so a
   round trip is legal and the client chases both hops. *)
let test_migrate_back () =
  let cl, src = build () in
  let c = connect cl in
  let dst = other cl src in
  ignore (migrate_ok cl ~tenant:"acme" ~dst : int);
  let _ = call_ok c [ (1, Bytes.of_string "hop1") ] in
  ignore (migrate_ok cl ~tenant:"acme" ~dst:src : int);
  let r = call_ok c [ (2, Bytes.of_string "home") ] in
  Alcotest.(check string) "round trip" "HOME" (Bytes.to_string (List.hd r));
  Alcotest.(check int) "back on the source" src (Cluster.Client.node_id c);
  assert_green cl;
  Cluster.destroy cl

(* ---------------------------------------------------------------- *)
(* Negative paths: the migration protocol under attack.              *)

let offer_ok cl ~src ~dst =
  match Cluster.Migrate.offer cl ~tenant:"acme" ~src ~dst with
  | Ok o -> o
  | Error e -> Alcotest.failf "offer failed: %a" Cluster.pp_error e

let seal_ok cl o =
  match Cluster.Migrate.seal cl o with
  | Ok p -> p
  | Error e -> Alcotest.failf "seal failed: %a" Cluster.pp_error e

(* Sealed blob tampered in transit: one flipped ciphertext bit must
   surface as a transport authentication failure, and nothing may have
   been installed. *)
let test_blob_tamper () =
  let cl, src = build () in
  let c = connect cl in
  let _ = call_ok c [ (1, Bytes.of_string "live") ] in
  let dst = other cl src in
  let o = offer_ok cl ~src ~dst in
  let p = seal_ok cl o in
  let blob = Bytes.copy p.Cluster.Migrate.p_blob in
  let i = Bytes.length blob / 2 in
  Bytes.set_uint8 blob i (Bytes.get_uint8 blob i lxor 0x40);
  (match Cluster.Migrate.install cl { p with Cluster.Migrate.p_blob = blob } with
  | Error (Cluster.Transport_auth | Cluster.Blob_malformed _) -> ()
  | Error e -> Alcotest.failf "wrong refusal: %a" Cluster.pp_error e
  | Ok _ -> Alcotest.fail "tampered blob accepted");
  (* The offer is burnt even by the failed install; the genuine package
     must now be refused too — no second chance for an attacker holding
     the real bytes. *)
  (match Cluster.Migrate.install cl p with
  | Error Cluster.Unknown_offer -> ()
  | Error e -> Alcotest.failf "wrong refusal on replay: %a" Cluster.pp_error e
  | Ok _ -> Alcotest.fail "burnt offer accepted");
  (* Tenant never moved: the client still works against the source. *)
  let r = call_ok c [ (2, Bytes.of_string "still here") ] in
  Alcotest.(check string) "source still serves" "STILL HERE"
    (Bytes.to_string (List.hd r));
  Alcotest.(check int) "placement unchanged" src (Cluster.owner cl ~tenant:"acme");
  assert_green cl;
  Cluster.destroy cl

(* Replay and mis-routing: a package is bound to the one offer that
   produced it.  Install twice → the second is refused; redirect the
   package to a node that never offered → refused. *)
let test_replay_and_misroute () =
  let cl, src = build () in
  let c = connect cl in
  let _ = call_ok c [ (1, Bytes.of_string "x") ] in
  let dst = other cl src in
  let o = offer_ok cl ~src ~dst in
  let p = seal_ok cl o in
  (* Mis-route first (the offer must survive this): aim the package at
     a third node.  Its AAD still names [dst], but the third node has
     no pending offer for this nonce. *)
  let third =
    match
      List.find_opt
        (fun n ->
          let id = Cluster.Node.id n in
          id <> src && id <> dst)
        (Cluster.nodes cl)
    with
    | Some n -> Cluster.Node.id n
    | None -> Alcotest.fail "need three nodes"
  in
  (match Cluster.Migrate.install cl { p with Cluster.Migrate.p_dst = third } with
  | Error Cluster.Unknown_offer -> ()
  | Error e -> Alcotest.failf "wrong refusal: %a" Cluster.pp_error e
  | Ok _ -> Alcotest.fail "mis-routed package accepted");
  (* Route tamper: keep the destination honest but lie about the
     source.  The offer is found, the key agrees — the AAD refuses. *)
  (match
     Cluster.Migrate.install cl { p with Cluster.Migrate.p_src = src + 100 }
   with
  | Error Cluster.Binding_mismatch -> ()
  | Error e -> Alcotest.failf "wrong refusal: %a" Cluster.pp_error e
  | Ok _ -> Alcotest.fail "src-tampered package accepted");
  (* The burn rule again: the src tamper consumed the offer. *)
  (match Cluster.Migrate.install cl p with
  | Error Cluster.Unknown_offer -> ()
  | Error e -> Alcotest.failf "wrong refusal: %a" Cluster.pp_error e
  | Ok _ -> Alcotest.fail "replayed package accepted");
  assert_green cl;
  Cluster.destroy cl

(* A full successful install, then the same genuine package replayed:
   one offer admits exactly one blob. *)
let test_replay_after_success () =
  let cl, src = build () in
  let c = connect cl in
  let _ = call_ok c [ (1, Bytes.of_string "x") ] in
  let dst = other cl src in
  let o = offer_ok cl ~src ~dst in
  let p = seal_ok cl o in
  (match Cluster.Migrate.install cl p with
  | Ok n -> Alcotest.(check bool) "installed" true (n >= 1)
  | Error e -> Alcotest.failf "install failed: %a" Cluster.pp_error e);
  (match Cluster.Migrate.install cl p with
  | Error Cluster.Unknown_offer -> ()
  | Error e -> Alcotest.failf "wrong refusal: %a" Cluster.pp_error e
  | Ok _ -> Alcotest.fail "replayed package accepted");
  assert_green cl;
  Cluster.destroy cl

(* Resume against the stale source after cutover: every route to the
   old node answers with a typed forward, never a crash and never
   service. *)
let test_stale_source () =
  let cl, src = build () in
  let c = connect cl in
  let sid = Cluster.Client.session_id c in
  let _ = call_ok c [ (1, Bytes.of_string "x") ] in
  let dst = other cl src in
  ignore (migrate_ok cl ~tenant:"acme" ~dst : int);
  let stale = Cluster.plane cl src in
  (* A fresh handshake against the stale source. *)
  let probe =
    Serve.Client.create
      ~rng:(Rng.create ~seed:77L)
      ~golden:(Cluster.anchor cl src).Cluster.a_golden
      ~policy:
        { Verifier.expected_mrenclave = None; expected_mrsigner = None;
          allow_debug = false }
      ()
  in
  (match Serve.handshake stale ~tenant:"acme" (Serve.Client.hello probe) with
  | Error (Serve.Tenant_migrated { to_node; _ }) ->
      Alcotest.(check int) "forward names the destination" dst to_node
  | Error r -> Alcotest.failf "wrong refusal: %a" Serve.pp_reject r
  | Ok _ -> Alcotest.fail "stale source accepted a handshake");
  (* The migrated session's id is a forwarding address on the source. *)
  (match Serve.close_session stale ~session:sid with
  | Error (Serve.Session_migrated { to_node }) ->
      Alcotest.(check int) "session forward" dst to_node
  | Error r -> Alcotest.failf "wrong refusal: %a" Serve.pp_reject r
  | Ok () -> Alcotest.fail "stale source closed a migrated session");
  assert_green cl;
  Cluster.destroy cl

(* Migration mid-flush: while admitted requests are staged in the
   rings, export must refuse with the typed busy error and the staged
   work must still complete afterwards. *)
let test_migrate_mid_flush () =
  let cl, src = build () in
  let plane = Cluster.plane cl src in
  let a = Cluster.anchor cl src in
  let sc =
    Serve.Client.create
      ~rng:(Rng.create ~seed:5L)
      ~golden:a.Cluster.a_golden
      ~policy:
        { Verifier.expected_mrenclave = None; expected_mrsigner = None;
          allow_debug = false }
      ~expected_hapk:a.Cluster.a_hapk ()
  in
  (match Serve.handshake plane ~tenant:"acme" (Serve.Client.hello sc) with
  | Error r -> Alcotest.failf "handshake: %a" Serve.pp_reject r
  | Ok accept -> (
      match Serve.Client.establish sc accept with
      | Error r -> Alcotest.failf "establish: %a" Serve.pp_reject r
      | Ok () -> ()));
  let req = Serve.Client.request sc ~ecall:2 (Bytes.of_string "staged") in
  (match Serve.submit plane req with
  | Ok () -> ()
  | Error r -> Alcotest.failf "submit: %a" Serve.pp_reject r);
  let dst = other cl src in
  (match Cluster.migrate cl ~tenant:"acme" ~dst with
  | Error (Cluster.Reject (Serve.Tenant_busy { staged; _ })) ->
      Alcotest.(check bool) "staged count" true (staged >= 1)
  | Error e -> Alcotest.failf "wrong refusal: %a" Cluster.pp_error e
  | Ok _ -> Alcotest.fail "migrated with staged requests");
  let replies = Serve.flush plane in
  Alcotest.(check int) "staged request served" 1 (List.length replies);
  (match Serve.Client.read_reply sc (List.hd replies) with
  | Ok b -> Alcotest.(check string) "reply intact" "STAGED" (Bytes.to_string b)
  | Error r -> Alcotest.failf "reply rejected: %a" Serve.pp_reject r);
  (* Drained: now the move goes through. *)
  ignore (migrate_ok cl ~tenant:"acme" ~dst : int);
  assert_green cl;
  Cluster.destroy cl

(* ---------------------------------------------------------------- *)

(* Equal seeds give bit-equal fleets: same placements, same delivery
   schedules, same migration outcomes. *)
let test_determinism () =
  let run () =
    let cl, src = build ~net:{ Netsim.default_config with Netsim.jitter = 4_000 } () in
    let c = connect cl in
    let _ = call_ok c [ (1, Bytes.of_string "a"); (2, Bytes.of_string "b") ] in
    let dst = other cl src in
    ignore (migrate_ok cl ~tenant:"acme" ~dst : int);
    let _ = call_ok c [ (2, Bytes.of_string "c") ] in
    let net = Netsim.stats (Cluster.net cl) in
    let s = Cluster.stats cl in
    let summary =
      ( src,
        dst,
        net.Netsim.sent,
        net.Netsim.delivered,
        net.Netsim.bytes_moved,
        net.Netsim.cycles_charged,
        s.Cluster.migration_cycles )
    in
    Cluster.destroy cl;
    summary
  in
  let a = run () and b = run () in
  Alcotest.(check bool) "equal seeds, equal schedules" true (a = b)

(* Packet loss: the migration driver retries through drops; past the
   retry budget it fails typed, with no partial cutover. *)
let test_lossy_network () =
  (* ~30% loss with 3 retries per message: overwhelmingly likely to
     need at least one retry over the run, deterministically seeded. *)
  let cl, src =
    build ~net:{ Netsim.default_config with Netsim.loss_per_mille = 300 } ()
  in
  let c = connect cl in
  let _ = call_ok c [ (1, Bytes.of_string "x") ] in
  let dst = other cl src in
  ignore (migrate_ok cl ~tenant:"acme" ~dst : int);
  let r = call_ok c [ (2, Bytes.of_string "through loss") ] in
  Alcotest.(check string) "served through loss" "THROUGH LOSS"
    (Bytes.to_string (List.hd r));
  let net = Netsim.stats (Cluster.net cl) in
  Alcotest.(check bool) "drops happened" true (net.Netsim.dropped > 0);
  assert_green cl;
  Cluster.destroy cl

(* The LB tier: deterministic consistent-hash sharding, stable under
   re-query, and spread across nodes at reasonable tenant counts. *)
let test_lb_sharding () =
  let cl = Cluster.create Cluster.default_config in
  let seen = Hashtbl.create 4 in
  for i = 0 to 31 do
    let name = Printf.sprintf "tenant-%d" i in
    let o = Cluster.add_tenant cl ~name tenant_gen in
    Alcotest.(check int)
      (name ^ " owner stable") o
      (Cluster.owner cl ~tenant:name);
    Hashtbl.replace seen o ()
  done;
  Alcotest.(check bool)
    "32 tenants spread over >= 3 of 4 nodes" true
    (Hashtbl.length seen >= 3);
  Cluster.destroy cl

(* ---------------------------------------------------------------- *)

(* Rolling monitor upgrade: every node drained live, rebuilt, and
   refilled in turn; the client's session survives the whole sweep and
   every monitor version ticks. *)
let test_rolling_upgrade () =
  let cl, _ = build () in
  let c = connect cl in
  let sid = Cluster.Client.session_id c in
  let _ = call_ok c [ (1, Bytes.of_string "pre") ] in
  (match Cluster.rolling_upgrade cl with
  | Ok () -> ()
  | Error e -> Alcotest.failf "rolling upgrade failed: %a" Cluster.pp_error e);
  List.iter
    (fun n ->
      Alcotest.(check int)
        (Printf.sprintf "node %d upgraded" (Cluster.Node.id n))
        1 (Cluster.Node.version n))
    (Cluster.nodes cl);
  let r = call_ok c [ (2, Bytes.of_string "post upgrade") ] in
  Alcotest.(check string) "session survived the sweep" "POST UPGRADE"
    (Bytes.to_string (List.hd r));
  Alcotest.(check int) "same session id" sid (Cluster.Client.session_id c);
  let s = Cluster.stats cl in
  Alcotest.(check bool) "upgrade migrations counted" true (s.Cluster.migrations >= 2);
  assert_green cl;
  Cluster.destroy cl

(* Node-kill failover under the chaos plane: the owner dies mid-life,
   the LB repoints to the ring's next live node, the client re-attests
   there and resumes service; transient faults injected at the
   migration site are absorbed by the retry path during a follow-up
   live migration.  Fleet invariants green throughout. *)
let test_kill_failover_chaos () =
  let cl, src = build () in
  let c = connect cl in
  let _ = call_ok c [ (1, Bytes.of_string "alive") ] in
  Cluster.kill_node cl src;
  Alcotest.(check bool) "owner dead" false
    (Cluster.Node.alive (Cluster.node cl src));
  (match Cluster.route cl ~tenant:"acme" with
  | Error (Cluster.Node_down n) -> Alcotest.(check int) "LB sees the dead owner" src n
  | Error e -> Alcotest.failf "wrong route error: %a" Cluster.pp_error e
  | Ok _ -> Alcotest.fail "routed to a dead node");
  let dst =
    match Cluster.failover cl ~tenant:"acme" with
    | Ok d -> d
    | Error e -> Alcotest.failf "failover failed: %a" Cluster.pp_error e
  in
  Alcotest.(check bool) "failed over elsewhere" true (dst <> src);
  (* Crash recovery loses sessions by design — reconnect, then serve. *)
  (match Cluster.Client.reconnect c with
  | Ok () -> ()
  | Error e -> Alcotest.failf "reconnect failed: %a" Cluster.pp_error e);
  let r = call_ok c [ (2, Bytes.of_string "failover") ] in
  Alcotest.(check string) "served after failover" "FAILOVER"
    (Bytes.to_string (List.hd r));
  (* Revive the old node and migrate home through injected transient
     faults at the migration site: with_retries must absorb them. *)
  Cluster.revive_node cl src;
  Fault.install
    [ { Fault.site = "cluster.migrate"; nth = 1; kind = Fault.Transient } ];
  let moved =
    match Cluster.migrate cl ~tenant:"acme" ~dst:src with
    | Ok n -> n
    | Error e -> Alcotest.failf "migrate through chaos failed: %a" Cluster.pp_error e
  in
  Alcotest.(check bool) "fault fired" true (Fault.injected_count () >= 1);
  Fault.clear ();
  Alcotest.(check bool) "sessions moved home" true (moved >= 1);
  let r2 = call_ok c [ (1, Bytes.of_string "home again") ] in
  Alcotest.(check string) "served at home" "home again"
    (Bytes.to_string (List.hd r2));
  assert_green cl;
  Cluster.destroy cl

(* A permanent fault at the migration site is a typed migration
   failure; the tenant stays where it was and keeps serving. *)
let test_permanent_migration_fault () =
  let cl, src = build () in
  let c = connect cl in
  let _ = call_ok c [ (1, Bytes.of_string "x") ] in
  let dst = other cl src in
  Fault.install
    [ { Fault.site = "cluster.migrate"; nth = 1; kind = Fault.Permanent } ];
  (match Cluster.migrate cl ~tenant:"acme" ~dst with
  | Error (Cluster.Migration_fault _) -> ()
  | Error e -> Alcotest.failf "wrong failure: %a" Cluster.pp_error e
  | Ok _ -> Alcotest.fail "migrated through a permanent fault");
  Fault.clear ();
  Alcotest.(check int) "placement unchanged" src (Cluster.owner cl ~tenant:"acme");
  let r = call_ok c [ (2, Bytes.of_string "still serving") ] in
  Alcotest.(check string) "still serving" "STILL SERVING"
    (Bytes.to_string (List.hd r));
  assert_green cl;
  Cluster.destroy cl

(* The singleton shim: a one-node cluster over an existing platform
   keeps single-node callers on the node-addressed API. *)
let test_singleton () =
  let p = Platform.create ~seed:4242L () in
  let cl = Cluster.singleton ~platform:p () in
  let o = Cluster.add_tenant cl ~name:"acme" tenant_gen in
  Alcotest.(check int) "only node owns" 0 o;
  let c = connect cl in
  Alcotest.(check int) "node 0 affinity" 0 (Cluster.Client.node_id c);
  let r = call_ok c [ (2, Bytes.of_string "solo") ] in
  Alcotest.(check string) "singleton serves" "SOLO" (Bytes.to_string (List.hd r));
  assert_green cl;
  Cluster.destroy cl

(* A length word near [max_int] must come back as a typed error: a
   bounds check written [pos + n > len] wraps negative on it and lets
   [Bytes.sub] raise [Invalid_argument] instead. *)
let test_export_length_overflow () =
  let session =
    { Serve.x_session = 3; x_key = Bytes.make 32 'k'; x_recv_seq = 5;
      x_pages = 1; x_state = Bytes.make 16 's' }
  in
  let x =
    { Serve.x_tenant = "acme"; x_identity = Bytes.make 32 'i';
      x_sessions = [ session ]; x_nonces = [ "n0"; "n1" ] }
  in
  let blob = Cluster.encode_export x in
  (match Cluster.decode_export blob with
  | Ok y -> Alcotest.(check bool) "round trip" true (x = y)
  | Error what -> Alcotest.failf "valid blob refused at %s" what);
  (* the tenant-name and identity length words *)
  List.iter
    (fun off ->
      let b = Bytes.copy blob in
      Bytes.set_int64_le b off 0x3fff_ffff_ffff_ffffL;
      match Cluster.decode_export b with
      | Ok _ -> Alcotest.failf "length word at %d: overlong blob accepted" off
      | Error _ -> ()
      | exception exn ->
          Alcotest.failf "length word at %d: decoder raised %s" off
            (Printexc.to_string exn))
    [ 7; 19 ]

(* 2^63 + 4 is not 4: a decoder that drops bit 63 of the tenant-length
   word reads the blob as valid. *)
let test_export_length_bit63 () =
  let x =
    { Serve.x_tenant = "acme"; x_identity = Bytes.make 32 'i';
      x_sessions = []; x_nonces = [] }
  in
  let blob = Cluster.encode_export x in
  Alcotest.(check bool) "round trip" true (Cluster.decode_export blob = Ok x);
  Bytes.set_int64_le blob 7 (Int64.logor Int64.min_int 4L);
  match Cluster.decode_export blob with
  | Ok _ -> Alcotest.fail "bit-63 tenant length accepted"
  | Error _ -> ()

let suite =
  [
    Alcotest.test_case "export blob length overflow is typed" `Quick
      test_export_length_overflow;
    Alcotest.test_case "export blob bit-63 length refused" `Quick
      test_export_length_bit63;
    Alcotest.test_case "live migration: seal, ship, re-attest, resume" `Quick
      test_live_migration;
    Alcotest.test_case "migrate back home" `Quick test_migrate_back;
    Alcotest.test_case "sealed blob tampered in transit" `Quick test_blob_tamper;
    Alcotest.test_case "package replayed / mis-routed" `Quick
      test_replay_and_misroute;
    Alcotest.test_case "replay after successful install" `Quick
      test_replay_after_success;
    Alcotest.test_case "stale source answers typed forwards" `Quick
      test_stale_source;
    Alcotest.test_case "migration refused mid-flush" `Quick
      test_migrate_mid_flush;
    Alcotest.test_case "equal seeds, equal fleets" `Quick test_determinism;
    Alcotest.test_case "migration through a lossy network" `Quick
      test_lossy_network;
    Alcotest.test_case "LB consistent-hash sharding" `Quick test_lb_sharding;
    Alcotest.test_case "rolling monitor upgrade" `Quick test_rolling_upgrade;
    Alcotest.test_case "node kill, failover, chaos migration home" `Quick
      test_kill_failover_chaos;
    Alcotest.test_case "permanent migration fault is typed" `Quick
      test_permanent_migration_fault;
    Alcotest.test_case "singleton shim" `Quick test_singleton;
  ]
