(* The typed attack corpus: every malicious-kmod move from the paper's
   threat model (Fig. 9 mapping attacks, forged EINIT, swap-blob
   rollback/splicing) thrown at the real monitor through the model
   checker's world, plus the serving plane's cross-tenant and handshake
   replay/splice probes.  Each attack must die with a *typed* refusal
   ([Monitor.Security_violation] / a [Serve.reject]) — never an escaped
   exception — and the isolation audit must be green afterwards. *)

open Hyperenclave
module World = Mc_world
module Alphabet = Mc_alphabet

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

(* --- monitor corpus, via the model checker's world --------------------- *)

let must_apply w tr =
  match World.apply w tr with
  | World.Applied -> ()
  | World.Refused msg ->
      Alcotest.failf "setup %s refused: %s" (Alphabet.to_string tr) msg
  | World.Crashed msg ->
      Alcotest.failf "setup %s crashed: %s" (Alphabet.to_string tr) msg

let assert_green ~what w =
  match World.oracle w with
  | [] -> ()
  | findings ->
      Alcotest.failf "invariants broken after %s: %s" what
        (String.concat "; " findings)

(* Apply one attack and demand the typed refusal + a green audit. *)
let expect_refusal w atk =
  let name = Alphabet.to_string atk in
  Alcotest.(check bool) (name ^ " guard holds") true (World.enabled w atk);
  (match World.apply w atk with
  | World.Refused _ -> ()
  | World.Applied -> Alcotest.failf "%s applied without a refusal" name
  | World.Crashed msg -> Alcotest.failf "%s crashed untyped: %s" name msg);
  assert_green ~what:name w

(* Each entry: one malicious-kmod sequence — legal warm-up transitions,
   then the attack.  The warm-ups are real hypercalls on the real
   monitor; only the final step is hostile. *)
let corpus =
  let open Alphabet in
  [
    ("EADD onto an already-mapped page (Fig. 9a)", [ Create 0; Add 0 ],
     Atk_double_add 0);
    ("EADD outside ELRANGE", [ Create 0 ], Atk_add_outside 0);
    ("EINIT with a garbage signature", [ Create 0 ], Atk_bad_sig 0);
    ( "EINIT: valid vendor signature, forged MRENCLAVE",
      [ Create 0; Add 0; Add 0; Add_tcs 0 ],
      Atk_forged_measure 0 );
    ( "marshalling buffer aimed at reserved memory",
      [ Create 0; Add 0; Add 0; Add_tcs 0 ],
      Atk_ms_reserved 0 );
    ( "marshalling buffer overlapping ELRANGE",
      [ Create 0; Add 0; Add 0; Add_tcs 0 ],
      Atk_ms_overlap 0 );
    ( "EENTER before EINIT",
      [ Create 0; Add 0; Add 0; Add_tcs 0 ],
      Atk_enter_uninit 0 );
    ( "EENTER a TCS left busy by an AEX",
      [ Create 0; Add 0; Add 0; Add_tcs 0; Init 0; Enter 0; Aex 0 ],
      Atk_busy_enter 0 );
    ( "EEXIT to a non-sanctioned address",
      [ Create 0; Add 0; Add 0; Add_tcs 0; Init 0; Enter 0 ],
      Atk_wrong_exit 0 );
    ( "EREMOVE while a thread is inside",
      [ Create 0; Add 0; Add 0; Add_tcs 0; Init 0; Enter 0 ],
      Atk_remove_running 0 );
  ]

let test_monitor_corpus () =
  List.iter
    (fun (what, setup, atk) ->
      let w = World.create World.default_config in
      List.iter (must_apply w) setup;
      expect_refusal w atk;
      (* The refusal must not have wedged the slot: the same attack is
         still refused, and legal progress still works where defined. *)
      if World.enabled w atk then expect_refusal w atk;
      assert_green ~what w)
    corpus

(* --- swap-store rollback and splicing ----------------------------------- *)

(* These corrupt state the monitor cannot see at attack time, so they
   apply silently; the typed refusal is demanded at swap-in.  From the
   poisoned state, search every legal continuation (bounded DFS on the
   live world) and require that (a) nothing crashes, (b) the audit is
   green at every reachable state — a poisoned blob never becomes
   resident — and (c) some continuation actually forces the swap-in and
   collects the typed "swap-in" refusal. *)
let find_swap_refusal w ~depth =
  let found = ref None in
  let rec go d =
    if d < depth && !found = None then begin
      let ck = World.checkpoint w in
      List.iter
        (fun tr ->
          if !found = None && (not (Alphabet.is_attack tr)) && World.enabled w tr
          then begin
            World.push_frame_log w;
            (match World.apply w tr with
            | World.Crashed msg ->
                Alcotest.failf "crash on %s after swap attack: %s"
                  (Alphabet.to_string tr) msg
            | World.Refused msg ->
                assert_green ~what:(Alphabet.to_string tr) w;
                if contains msg "swap-in" then found := Some msg
            | World.Applied ->
                assert_green ~what:(Alphabet.to_string tr) w;
                go (d + 1));
            World.pop_restore_frames w;
            World.rollback w ck
          end)
        (World.alphabet w)
    end
  in
  go 0;
  !found

(* Tiny EPC (3 frames for a 4-page enclave) so pages must cycle in and
   out, giving the attacker old blobs to roll back. *)
let pressure_config =
  {
    World.default_config with
    World.epc_frames = 3;
    data_pages = 1;
    dyn_pages = 0;
    modes = [| Sgx_types.GU |];
  }

let build_under_pressure w =
  List.iter (must_apply w)
    Alphabet.[ Create 0; Add 0; Add_tcs 0; Init 0; Enter 0 ]

(* Cycle pages until the attack's guard holds: every Swap_out seals a
   fresh blob version, every Touch loads one back, so the archive soon
   holds an older authentic blob for a currently-stored key. *)
let drive_until w atk ~max_cycles =
  let cycles = ref 0 in
  while (not (World.enabled w atk)) && !cycles < max_cycles do
    incr cycles;
    (* Touch first (swap the page back in, consuming the stored blob),
       then Swap_out (seal a fresh version): the cycle ends with a blob
       *in the store*, which is where the rollback guard looks. *)
    if World.enabled w (Alphabet.Touch 0) then must_apply w (Alphabet.Touch 0);
    if World.enabled w Alphabet.Swap_out then must_apply w Alphabet.Swap_out
  done;
  Alcotest.(check bool)
    (Printf.sprintf "%s reachable within %d swap cycles"
       (Alphabet.to_string atk) max_cycles)
    true
    (World.enabled w atk)

let test_swap_replay () =
  let w = World.create pressure_config in
  build_under_pressure w;
  drive_until w Alphabet.Atk_swap_replay ~max_cycles:16;
  must_apply w Alphabet.Atk_swap_replay;
  (* Silent corruption: store now holds a stale blob, audit still green
     (nothing resident yet). *)
  assert_green ~what:"atk_swap_replay (pre-swap-in)" w;
  match find_swap_refusal w ~depth:4 with
  | Some msg ->
      Alcotest.(check bool)
        (Printf.sprintf "rollback named in the refusal: %s" msg)
        true
        (contains msg "stale" || contains msg "integrity")
  | None -> Alcotest.fail "no continuation forced the stale blob's swap-in"

let test_swap_splice () =
  (* Two enclaves under shared EPC pressure; the attack serves enclave
     A's sealed page for one of enclave B's keys. *)
  let cfg =
    {
      World.default_config with
      World.epc_frames = 5;
      data_pages = 1;
      dyn_pages = 0;
    }
  in
  let w = World.create cfg in
  List.iter (must_apply w)
    Alphabet.
      [ Create 0; Add 0; Add_tcs 0; Init 0; Create 1; Add 1; Add_tcs 1; Init 1 ];
  drive_until w Alphabet.Atk_swap_splice ~max_cycles:16;
  must_apply w Alphabet.Atk_swap_splice;
  assert_green ~what:"atk_swap_splice (pre-swap-in)" w;
  match find_swap_refusal w ~depth:4 with
  | Some _ -> ()
  | None -> Alcotest.fail "no continuation forced the spliced blob's swap-in"

(* --- enclave-only leaves ------------------------------------------------- *)

(* An enclave seals a secret with its MRENCLAVE sealing key; the host
   (the untrusted kernel module) asks the monitor for that key through
   the batched ioctl and directly.  EGETKEY is an enclave leaf, so both
   are refused and the blob stays sealed; the enclave itself still
   unseals it. *)
let test_host_egetkey_refused () =
  let p = Platform.create ~seed:9050L () in
  let handle =
    Urts.create ~kmod:p.Platform.kmod ~proc:p.Platform.proc ~rng:p.Platform.rng
      ~signer:p.Platform.signer
      ~config:(Urts.default_config Sgx_types.GU)
      ~ecalls:
        [
          (1, fun (tenv : Tenv.t) input -> tenv.Tenv.seal input);
          (2, fun (tenv : Tenv.t) input -> tenv.Tenv.unseal input);
        ]
      ~ocalls:[]
  in
  let secret = Bytes.of_string "sealed by the enclave" in
  let blob = Urts.ecall handle ~id:1 ~data:secret ~direction:Edge.In_out () in
  let enclave = Urts.enclave handle in
  (match
     Kmod.ioctl_batch p.Platform.kmod
       [ Hypercall.Egetkey { enclave; name = Sgx_types.Seal_key_mrenclave } ]
   with
  | [ Hypercall.Fault msg ] ->
      Alcotest.(check bool)
        (Printf.sprintf "refusal names the leaf: %s" msg)
        true (contains msg "egetkey")
  | _ -> Alcotest.fail "host EGETKEY through EBATCH was not refused");
  (try
     ignore (Monitor.egetkey p.Platform.monitor enclave Sgx_types.Seal_key_mrenclave);
     Alcotest.fail "host EGETKEY returned a key"
   with Monitor.Security_violation _ -> ());
  Alcotest.(check bytes)
    "the enclave still unseals its blob" secret
    (Urts.ecall handle ~id:2 ~data:blob ~direction:Edge.In_out ());
  Urts.destroy handle

(* --- serving-plane probes ----------------------------------------------- *)

let echo_handlers = [ (1, fun _env input -> input) ]

let golden_of (p : Platform.t) =
  Verifier.golden_of_boot_log
    ~ek_public:(Tpm.ek_public p.Platform.tpm)
    (Monitor.boot_log p.Platform.monitor)

let tenant_config () =
  {
    (Backend.config (Backend.Hyperenclave Sgx_types.GU)) with
    Backend.handlers = echo_handlers;
  }

let client_for p ~identity ~seed =
  Serve.Client.create
    ~rng:(Rng.create ~seed)
    ~golden:(golden_of p)
    ~policy:
      {
        Verifier.expected_mrenclave = Some identity;
        expected_mrsigner = None;
        allow_debug = false;
      }
    ~expected_tenant:identity ()

let two_tenant_plane () =
  let p = Platform.create ~seed:9100L () in
  let plane = Serve.create_node ~platform:p @@ Serve.Node_config.v ~platform:p Serve.default_config in
  let b1 = Serve.add_tenant plane ~name:"acme" (tenant_config ()) in
  let b2 = Serve.add_tenant plane ~name:"globex" (tenant_config ()) in
  let id b =
    match b.Backend.identity with Some i -> i | None -> Bytes.empty
  in
  let c1 = client_for p ~identity:(id b1) ~seed:9101L in
  let c2 = client_for p ~identity:(id b2) ~seed:9102L in
  (plane, c1, c2)

let establish plane ~tenant client =
  match Serve.handshake plane ~tenant (Serve.Client.hello client) with
  | Error r -> Alcotest.failf "handshake rejected: %a" Serve.pp_reject r
  | Ok accept -> (
      match Serve.Client.establish client accept with
      | Error r -> Alcotest.failf "establish failed: %a" Serve.pp_reject r
      | Ok () -> accept)

let expect_reject expected = function
  | Ok _ -> Alcotest.failf "expected %s rejection" expected
  | Error r ->
      Alcotest.(check string) "reject kind" expected (Serve.reject_name r)

let test_serve_cross_tenant_probe () =
  let plane, c1, c2 = two_tenant_plane () in
  ignore (establish plane ~tenant:"acme" c1);
  ignore (establish plane ~tenant:"globex" c2);
  (* Steal tenant globex's sealed envelope and aim it at tenant acme's
     session: the AAD binds (session, seq, ecall), so the AEAD check
     dies before any plaintext exists. *)
  let stolen = Serve.Client.request c2 ~ecall:1 (Bytes.of_string "secret") in
  expect_reject "bad-auth"
    (Serve.submit plane
       { stolen with Serve.session_id = Serve.Client.session_id c1 });
  (* The honest owner can still use the very same envelope. *)
  (match Serve.submit plane stolen with
  | Ok () -> ()
  | Error r -> Alcotest.failf "honest submit rejected: %a" Serve.pp_reject r);
  Serve.destroy plane

(* A compromised host reads everything outside the enclave: the pinned
   marshalling buffer (every ring's request and reply segment) and the
   plane's ring images.  After a flush none of it may hold a request's
   plaintext or a reply's: the enclave's ring worker opens and seals. *)
let test_serve_host_reads_no_plaintext () =
  let p = Platform.create ~seed:9200L () in
  let plane =
    Serve.create_node ~platform:p @@ Serve.Node_config.v ~platform:p Serve.default_config
  in
  let upper b = Bytes.of_string (String.uppercase_ascii (Bytes.to_string b)) in
  let backend =
    Serve.add_tenant plane ~name:"acme"
      {
        (Backend.config (Backend.Hyperenclave Sgx_types.GU)) with
        Backend.handlers = [ (2, fun _env input -> upper input) ];
      }
  in
  let client = client_for p ~identity:(Option.get backend.Backend.identity) ~seed:9201L in
  ignore (establish plane ~tenant:"acme" client);
  let requests =
    List.init 6 (fun i -> Bytes.of_string (Printf.sprintf "confidential request %d" i))
  in
  List.iter2
    (fun req -> function
      | Ok reply -> Alcotest.(check bytes) "served" (upper req) reply
      | Error r -> Alcotest.failf "request failed: %a" Serve.pp_reject r)
    requests
    (Serve.Client.roundtrip plane client (List.map (fun r -> (2, r)) requests));
  let urts = Option.get backend.Backend.urts in
  let base, size = Option.get (Urts.enclave urts).Enclave.marshalling in
  let kernel = Kmod.kernel p.Platform.kmod in
  let pinned =
    Bytes.concat Bytes.empty
      (List.init (size / Hw.Addr.page_size) (fun i ->
           match
             Kernel.resolve_frame kernel p.Platform.proc
               ~vpn:(Hw.Addr.page_of base + i)
           with
           | Some frame ->
               Hw.Phys_mem.read_bytes p.Platform.mem (Hw.Addr.base_of_page frame)
                 Hw.Addr.page_size
           | None -> Alcotest.fail "marshalling page not resident"))
  in
  let images =
    List.concat_map
      (fun r -> [ Urts.ring_buf r; Urts.ring_reply_buf r ])
      (Serve.tenant_rings plane ~tenant:"acme")
  in
  Alcotest.(check bool) "the tenant staged through a ring" true (images <> []);
  List.iter
    (fun req ->
      List.iter
        (fun plain ->
          List.iter
            (fun (where, hay) ->
              Alcotest.(check bool)
                (Printf.sprintf "%S absent from %s" (Bytes.to_string plain) where)
                false
                (contains (Bytes.to_string hay) (Bytes.to_string plain)))
            (("the marshalling buffer", pinned)
            :: List.map (fun b -> ("a ring image", b)) images))
        [ req; upper req ])
    requests;
  Serve.destroy plane

let test_serve_request_replay () =
  let plane, c1, _ = two_tenant_plane () in
  ignore (establish plane ~tenant:"acme" c1);
  let req = Serve.Client.request c1 ~ecall:1 (Bytes.of_string "once") in
  (match Serve.submit plane req with
  | Ok () -> ()
  | Error r -> Alcotest.failf "first submit rejected: %a" Serve.pp_reject r);
  (* Replaying the identical authenticated request is an out-of-order
     sequence number, not a crash and not a double execution. *)
  expect_reject "bad-sequence" (Serve.submit plane req);
  Serve.destroy plane

let test_serve_handshake_replay () =
  let plane, c1, _ = two_tenant_plane () in
  let hello = Serve.Client.hello c1 in
  (match Serve.handshake plane ~tenant:"acme" hello with
  | Ok _ -> ()
  | Error r -> Alcotest.failf "first handshake rejected: %a" Serve.pp_reject r);
  expect_reject "replayed-nonce" (Serve.handshake plane ~tenant:"acme" hello);
  Serve.destroy plane

let test_serve_handshake_splice () =
  (* Splice: answer tenant acme's client with the key share from tenant
     globex's handshake.  The transcript binding in the quote must
     catch the swap. *)
  let plane, c1, c2 = two_tenant_plane () in
  let accept2 =
    match Serve.handshake plane ~tenant:"globex" (Serve.Client.hello c2) with
    | Ok a -> a
    | Error r -> Alcotest.failf "globex handshake rejected: %a" Serve.pp_reject r
  in
  (match Serve.handshake plane ~tenant:"acme" (Serve.Client.hello c1) with
  | Error r -> Alcotest.failf "acme handshake rejected: %a" Serve.pp_reject r
  | Ok accept1 ->
      expect_reject "channel-binding"
        (Serve.Client.establish c1
           { accept1 with Serve.server_kx = accept2.Serve.server_kx }));
  Serve.destroy plane

let suite =
  [
    Alcotest.test_case "malicious-kmod corpus (typed refusals)" `Quick
      test_monitor_corpus;
    Alcotest.test_case "EWB blob rollback refused at swap-in" `Quick
      test_swap_replay;
    Alcotest.test_case "EWB blob splice refused at swap-in" `Quick
      test_swap_splice;
    Alcotest.test_case "host EGETKEY refused (sealed data stays sealed)" `Quick
      test_host_egetkey_refused;
    Alcotest.test_case "serve: cross-tenant envelope probe" `Quick
      test_serve_cross_tenant_probe;
    Alcotest.test_case "serve: request replay" `Quick test_serve_request_replay;
    Alcotest.test_case "serve: host reads no plaintext" `Quick
      test_serve_host_reads_no_plaintext;
    Alcotest.test_case "serve: handshake replay" `Quick
      test_serve_handshake_replay;
    Alcotest.test_case "serve: handshake splice" `Quick
      test_serve_handshake_splice;
  ]
