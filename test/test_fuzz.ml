(* Fuzz/property batch: the surfaces that consume untrusted bytes
   (protocol parsers, the quote wire format, the SQL front end, the libOS
   fd layer) must be total — reject garbage, never crash — and the
   encode/parse pairs must be inverses. *)

open Hyperenclave
module W = Hyperenclave.Workloads

let never_crashes name f =
  QCheck.Test.make ~name ~count:300 QCheck.string (fun s ->
      match f s with
      | _ -> true
      | exception exn ->
          QCheck.Test.fail_reportf "input %S raised %s" s
            (Printexc.to_string exn))

(* --- generators ------------------------------------------------------------- *)

let resp_word =
  QCheck.Gen.(
    string_size ~gen:(map Char.chr (int_range 33 126)) (int_range 1 12))

let resp_command_gen = QCheck.Gen.(list_size (int_range 1 5) resp_word)

(* --- RESP -------------------------------------------------------------------- *)

let resp_roundtrip =
  QCheck.Test.make ~name:"RESP encode/parse inverse" ~count:300
    (QCheck.make QCheck.Gen.(list_size (int_range 1 6) resp_command_gen))
    (fun commands ->
      let wire =
        Bytes.to_string
          (Bytes.concat Bytes.empty (List.map W.Resp_kv.encode_command commands))
      in
      match W.Resp_kv.parse_pipeline wire with
      | Result.Ok parsed -> parsed = commands
      | Result.Error _ -> false)

let resp_total = never_crashes "RESP parser total on garbage" W.Resp_kv.parse_resp

let resp_prefix_rejected =
  (* Any strict prefix of a valid encoding must be rejected cleanly. *)
  QCheck.Test.make ~name:"RESP truncation rejected" ~count:200
    (QCheck.make resp_command_gen)
    (fun command ->
      let wire = Bytes.to_string (W.Resp_kv.encode_command command) in
      let ok = ref true in
      for len = 1 to String.length wire - 1 do
        match W.Resp_kv.parse_resp (String.sub wire 0 len) with
        | Result.Error _ -> ()
        | Result.Ok parsed -> if parsed = command then ok := false
        | exception _ -> ok := false
      done;
      !ok)

(* --- HTTP -------------------------------------------------------------------- *)

let http_total = never_crashes "HTTP parser total on garbage" W.Httpd.parse_request

let http_valid_requests =
  QCheck.Test.make ~name:"HTTP parser accepts well-formed requests" ~count:200
    (QCheck.make
       QCheck.Gen.(
         pair
           (string_size ~gen:(map Char.chr (int_range 97 122)) (int_range 1 20))
           (list_size (int_range 0 4)
              (pair
                 (string_size ~gen:(map Char.chr (int_range 97 122)) (int_range 1 8))
                 (string_size ~gen:(map Char.chr (int_range 97 122)) (int_range 1 8))))))
    (fun (path, headers) ->
      let raw =
        Printf.sprintf "GET /%s HTTP/1.1\n%s" path
          (String.concat ""
             (List.map (fun (k, v) -> Printf.sprintf "%s: %s\n" k v) headers))
      in
      match W.Httpd.parse_request raw with
      | Result.Ok r ->
          r.W.Httpd.meth = "GET"
          && r.W.Httpd.path = "/" ^ path
          && List.length r.W.Httpd.headers = List.length headers
      | Result.Error _ -> false)

(* --- mini-SQL ------------------------------------------------------------------ *)

let sql_total =
  QCheck.Test.make ~name:"SQL engine total on garbage" ~count:300 QCheck.string
    (fun s ->
      let e = W.Kvdb.Engine.create () in
      match W.Kvdb.Engine.exec e s with
      | Result.Ok _ | Result.Error _ -> true
      | exception _ -> false)

let sql_store_consistency =
  QCheck.Test.make ~name:"SQL insert/update/select agree with a model" ~count:80
    (QCheck.make
       QCheck.Gen.(list_size (int_range 1 60) (pair (int_bound 20) (int_bound 999))))
    (fun ops ->
      let e = W.Kvdb.Engine.create () in
      let model = Hashtbl.create 16 in
      List.for_all
        (fun (key, v) ->
          let value = Printf.sprintf "v%d" v in
          let stmt =
            if Hashtbl.mem model key && v mod 2 = 0 then
              Printf.sprintf "UPDATE kv SET v = '%s' WHERE k = %d" value key
            else Printf.sprintf "INSERT INTO kv VALUES (%d, '%s')" key value
          in
          (match W.Kvdb.Engine.exec e stmt with
          | Result.Ok _ -> Hashtbl.replace model key value
          | Result.Error _ -> ());
          match
            ( W.Kvdb.Engine.exec e (Printf.sprintf "SELECT v FROM kv WHERE k = %d" key),
              Hashtbl.find_opt model key )
          with
          | Result.Ok got, Some expected -> got = expected
          | Result.Error _, None -> true
          | Result.Ok _, None | Result.Error _, Some _ -> false)
        ops)

(* --- libOS fd layer ---------------------------------------------------------------- *)

let libos_fd_invariants =
  QCheck.Test.make ~name:"libOS fd table consistent under random op storms"
    ~count:20
    (QCheck.make
       QCheck.Gen.(list_size (int_range 5 40) (pair (int_bound 4) (int_bound 3))))
    (fun ops ->
      let p = Platform.create ~seed:7100L () in
      let outcome = ref true in
      let handle =
        Urts.create ~kmod:p.Platform.kmod ~proc:p.Platform.proc
          ~rng:p.Platform.rng ~signer:p.Platform.signer
          ~config:(Urts.default_config Sgx_types.HU)
          ~ecalls:
            [
              ( 1,
                fun tenv _ ->
                  let os = Libos.create tenv () in
                  let fds = ref [] in
                  List.iter
                    (fun (op, which) ->
                      match op with
                      | 0 ->
                          let path = Printf.sprintf "/f%d" which in
                          fds := Libos.openf os ~path [ Libos.O_creat; Libos.O_rdwr ] :: !fds
                      | 1 -> (
                          match !fds with
                          | fd :: rest ->
                              Libos.close os fd;
                              fds := rest
                          | [] -> ())
                      | 2 -> (
                          match !fds with
                          | fd :: _ -> ignore (Libos.write os fd (Bytes.of_string "data"))
                          | [] -> ())
                      | 3 -> (
                          match !fds with
                          | fd :: _ ->
                              ignore (Libos.lseek os fd ~pos:0);
                              ignore (Libos.read os fd ~len:2)
                          | [] -> ())
                      | 4 | _ -> (
                          (* double close must raise, not corrupt *)
                          match !fds with
                          | fd :: rest ->
                              Libos.close os fd;
                              fds := rest;
                              (match Libos.close os fd with
                              | () -> outcome := false
                              | exception Libos.Bad_fd _ -> ())
                          | [] -> ()))
                    ops;
                  if Libos.open_fds os <> List.length !fds then outcome := false;
                  Bytes.empty );
            ]
          ~ocalls:[]
      in
      ignore (Urts.ecall handle ~id:1 ~direction:Edge.In ());
      Urts.destroy handle;
      !outcome)

(* --- one codec harness over every binary format ------------------------------- *)

(* A platform+enclave for quotes; the quote row's generator varies the
   report data and nonce, which reach every length-framed field of the
   wire format. *)
let quote_enclave () =
  let p = Platform.create ~seed:8100L () in
  Urts.create ~kmod:p.Platform.kmod ~proc:p.Platform.proc ~rng:p.Platform.rng
    ~signer:p.Platform.signer
    ~config:(Urts.default_config Sgx_types.GU)
    ~ecalls:[ (1, fun _tenv input -> input) ]
    ~ocalls:[]

let quote_fixture = lazy (quote_enclave ())

let export_gen =
  QCheck.Gen.(
    let str = string_size (int_bound 24) in
    let key = map Bytes.of_string (string_size (return 32)) in
    let session =
      let+ x_session = int_bound 1_000_000
      and+ x_key = key
      and+ x_recv_seq = int_bound 1000
      and+ x_pages = int_bound 4
      and+ x_state = map Bytes.of_string str in
      { Serve.x_session; x_key; x_recv_seq; x_pages; x_state }
    in
    let+ x_tenant = str
    and+ x_identity = key
    and+ x_sessions = list_size (int_bound 3) session
    and+ x_nonces = list_size (int_bound 3) str in
    { Serve.x_tenant; x_identity; x_sessions; x_nonces })

(* Every binary format is one row: a value generator, the encoder, the
   decoder, and the offsets of length words in a typical encoding (where
   the damage generator aims its overwritten words).  A decoder that
   refuses by exception is wrapped, so only its typed exception counts
   as a refusal. *)
type row =
  | Row : {
      name : string;
      count : int;
      gen : 'a QCheck.Gen.t;
      encode : 'a -> bytes;
      decode : bytes -> ('a, string) result;
      words : int list;
    }
      -> row

let bytes_gen n = QCheck.Gen.(map Bytes.of_string (string_size n))
let non_negative = QCheck.Gen.(oneof [ map (fun n -> n land max_int) int; nat ])

let ring_decode b =
  match Urts.parse_frames ~what:"fuzz" b with
  | slots -> Ok slots
  | exception Urts.Enclave_error m -> Error m

let rows =
  let open QCheck.Gen in
  [
    Row
      {
        name = "quote wire";
        count = 40;
        gen =
          map
            (fun (rd, nonce) ->
              Urts.gen_quote (Lazy.force quote_fixture)
                ~report_data:(Bytes.of_string rd) ~nonce:(Bytes.of_string nonce))
            (pair (string_size (int_range 0 32)) (string_size (int_range 1 24)));
        encode = Quote_wire.encode;
        decode = Quote_wire.decode;
        words = [ 0; 8; 12 ];
      };
    Row
      {
        name = "sealed blob";
        count = 200;
        gen =
          map
            (fun (key, aad, nonce, plain) ->
              Crypto.Authenc.seal ~key ~aad ~nonce plain)
            (quad (bytes_gen (return 32)) (bytes_gen (int_bound 24))
               (bytes_gen (return 12)) (bytes_gen (int_bound 64)));
        encode = Crypto.Authenc.encode;
        decode = Crypto.Authenc.decode;
        words = [ 0; 16; 20 ];
      };
    Row
      {
        name = "export blob";
        count = 300;
        gen = export_gen;
        encode = Cluster.encode_export;
        decode = Cluster.decode_export;
        words = [ 7; 19 ];
      };
    Row
      {
        name = "ticket payload";
        count = 300;
        gen =
          triple (string_size (int_bound 24)) (bytes_gen (return 32)) int;
        encode =
          (fun (tenant, key, expires) -> Serve.encode_ticket ~tenant ~key ~expires);
        decode = Serve.decode_ticket;
        words = [ 0 ];
      };
    Row
      {
        name = "ring frame";
        count = 200;
        gen =
          list_size (int_range 0 Urts.max_batch)
            (pair int (bytes_gen (int_range 0 64)));
        encode = Urts.frame_requests;
        decode = ring_decode;
        words = [ 0; 16 ];
      };
    Row
      {
        name = "TPM policy";
        count = 300;
        gen = pair (list_size (int_bound 24) (int_bound 255)) (bytes_gen (return 32));
        encode =
          (fun (pcr_selection, policy_digest) ->
            Tpm.encode_policy ~pcr_selection ~policy_digest);
        decode = Tpm.decode_policy;
        words = [];
      };
    Row
      {
        name = "SSA frame";
        count = 200;
        gen =
          map
            (fun (seed, extreme) ->
              (* Arbitrary in-enclave execution state, as an AEX spills it. *)
              let regs = Vcpu.fresh ~entry:0x1000 in
              Vcpu.scramble (Rng.create ~seed:(Int64.of_int (77_000 + seed))) regs;
              regs.Vcpu.gpr.(seed mod 14) <- extreme;
              regs)
            (pair (int_bound 100_000) (oneofl [ 0; -1; max_int; min_int ]));
        encode = Vcpu.serialize;
        decode = Vcpu.deserialize;
        words = [ 0; 136 ];
      };
    Row
      {
        name = "state range";
        count = 300;
        gen = pair non_negative non_negative;
        encode = (fun (off, len) -> Serve.state_range ~off ~len);
        decode = Serve.decode_state_range;
        words = [ 0; 8 ];
      };
    Row
      {
        name = "ring slot header";
        count = 300;
        gen =
          map
            (fun ((h_ecall, h_len, h_session), (h_seq, h_tag, h_clear)) ->
              { Urts.h_ecall; h_len; h_session; h_seq; h_tag; h_clear })
            (pair
               (triple int (int_bound 256) non_negative)
               (triple non_negative (bytes_gen (return 32)) bool));
        encode = Urts.encode_slot_header;
        decode = Urts.decode_slot_header ~slot_bytes:256;
        words = [ 0; 8; 16; 24; 64 ];
      };
    Row
      {
        name = "session-key request";
        count = 300;
        gen =
          list_size (int_bound 4)
            (pair non_negative
               (oneof [ return Bytes.empty; bytes_gen (return 32) ]));
        encode = Serve.key_request;
        decode = Serve.decode_key_request;
        words = [ 0; 8; 16 ];
      };
    Row
      {
        name = "state reply";
        count = 300;
        gen = non_negative;
        encode = Serve.state_count;
        decode = Serve.decode_state_count;
        words = [ 0 ];
      };
  ]

(* Damage to an encoding: replace it with garbage, truncate or extend
   it, flip bytes, or overwrite a 64-bit little-endian or 32-bit
   big-endian word (often at a length word) with a value near
   [max_int], one with bit 63 (or 31) set, a negative one, or a small
   one. *)
let damage_gen words =
  QCheck.Gen.(
    let pos = if words = [] then nat else oneof [ oneofl words; nat ] in
    let word64 =
      oneof
        [
          map (fun d -> Int64.(sub 0x3fff_ffff_ffff_ffffL (of_int d))) small_nat;
          map (fun d -> Int64.(logor min_int (of_int d))) small_nat;
          map (fun d -> Int64.of_int (-1 - d)) small_nat;
          map Int64.of_int int;
          map Int64.of_int small_nat;
        ]
    in
    let word32 =
      oneof
        [
          map (fun d -> Int32.(sub max_int (of_int d))) small_nat;
          map (fun d -> Int32.(add min_int (of_int d))) small_nat;
          map Int32.of_int small_nat;
        ]
    in
    let overwrite width set =
      map2 (fun pos w b ->
          if Bytes.length b < width then b
          else
            let b = Bytes.copy b in
            set b (pos mod (Bytes.length b - width + 1)) w;
            b)
        pos
    in
    oneof
      [
        map (fun s _ -> Bytes.of_string s) (string_size (int_bound 200));
        map (fun n b -> Bytes.sub b 0 (n mod (Bytes.length b + 1))) nat;
        map (fun s b -> Bytes.cat b (Bytes.of_string s)) (string_size (int_range 1 8));
        map
          (fun flips b ->
            let b = Bytes.copy b in
            List.iter
              (fun (pos, mask) ->
                if Bytes.length b > 0 then begin
                  let pos = pos mod Bytes.length b in
                  Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor mask))
                end)
              flips;
            b)
          (list_size (int_range 1 4) (pair nat (int_range 1 255)));
        overwrite 8 Bytes.set_int64_le word64;
        overwrite 4 Bytes.set_int32_be word32;
      ])

(* Four properties per row: round trip; every strict prefix rejected;
   damaged input never raises; and decoding is canonical, [decode b =
   Ok v] implies [encode v = b], so no value has two encodings. *)
let row_tests (Row r) =
  let decode b =
    try r.decode b
    with exn ->
      QCheck.Test.fail_reportf "%s: decoder raised %s on %d bytes" r.name
        (Printexc.to_string exn) (Bytes.length b)
  in
  let value = QCheck.make r.gen in
  let damaged = QCheck.make QCheck.Gen.(pair r.gen (damage_gen r.words)) in
  let test property arb f =
    QCheck.Test.make ~name:(r.name ^ " " ^ property) ~count:r.count arb f
  in
  [
    test "encode/decode inverse" value (fun v -> decode (r.encode v) = Ok v);
    test "truncation rejected" value (fun v ->
        let b = r.encode v in
        List.for_all
          (fun len ->
            Result.is_error (decode (Bytes.sub b 0 len))
            || QCheck.Test.fail_reportf "%d-byte prefix of %d accepted" len
                 (Bytes.length b))
          (List.init (Bytes.length b) Fun.id));
    test "total on damaged input" damaged (fun (v, damage) ->
        ignore (decode (damage (r.encode v)));
        true);
    test "decoding canonical" damaged (fun (v, damage) ->
        let b = damage (r.encode v) in
        match decode b with
        | Error _ -> true
        | Ok v' ->
            Bytes.equal (r.encode v') b
            || QCheck.Test.fail_reportf "accepted a second encoding (%d bytes)"
                 (Bytes.length b));
  ]

(* One known answer per format, captured before the formats moved onto
   [Codec]: the encodings are byte-identical to the hand-rolled ones. *)
let test_codec_known_answers () =
  let hex = Sha256.to_hex in
  let sha b = hex (Sha256.digest_bytes b) in
  let check name expected got = Alcotest.(check string) name expected got in
  let quote =
    Urts.gen_quote (quote_enclave ()) ~report_data:(Bytes.of_string "frozen")
      ~nonce:(Bytes.of_string "frozen-nonce")
  in
  check "quote wire"
    "89c850ac4e2b8a155aebf8240579e715f4278d624d48cc99ec3708c28175be8e"
    (sha (Quote_wire.encode quote));
  let session =
    { Serve.x_session = 3; x_key = Bytes.make 32 'k'; x_recv_seq = 5;
      x_pages = 1; x_state = Bytes.make 16 's' }
  in
  check "export blob"
    ("68656d6967313a040000000000000061636d6520000000000000006969696969696969"
   ^ "6969696969696969696969696969696969696969696969690100000000000000030000"
   ^ "000000000020000000000000006b6b6b6b6b6b6b6b6b6b6b6b6b6b6b6b6b6b6b6b6b6b"
   ^ "6b6b6b6b6b6b6b6b6b6b05000000000000000100000000000000100000000000000073"
   ^ "737373737373737373737373737373020000000000000002000000000000006e300200"
   ^ "0000000000006e31")
    (hex
       (Cluster.encode_export
          { Serve.x_tenant = "acme"; x_identity = Bytes.make 32 'i';
            x_sessions = [ session ]; x_nonces = [ "n0"; "n1" ] }));
  check "ticket payload"
    ("040000000000000061636d656b6b6b6b6b6b6b6b6b6b6b6b6b6b6b6b6b6b6b6b6b6b6b"
   ^ "6b6b6b6b6b6b6b6b6b15cd5b0700000000")
    (hex
       (Serve.encode_ticket ~tenant:"acme" ~key:(Bytes.make 32 'k')
          ~expires:123456789));
  check "ring frame"
    ("03000000000000000100000000000000050000000000000068656c6c6f020000000000"
   ^ "000000000000000000000700000000000000040000000000000072696e67")
    (hex
       (Urts.frame_requests
          [ (1, Bytes.of_string "hello"); (2, Bytes.empty);
            (7, Bytes.of_string "ring") ]));
  check "TPM policy"
    ("0300010764646464646464646464646464646464646464646464646464646464646464"
   ^ "64")
    (hex
       (Tpm.encode_policy ~pcr_selection:[ 0; 1; 7 ]
          ~policy_digest:(Bytes.make 32 'd')));
  let regs = Vcpu.fresh ~entry:0x1000 in
  Vcpu.scramble (Rng.create ~seed:77001L) regs;
  regs.Vcpu.gpr.(0) <- -1;
  regs.Vcpu.gpr.(1) <- max_int;
  regs.Vcpu.gpr.(2) <- min_int;
  check "SSA frame"
    "074a026eabec7a79f6e4834aaf056c1fa10f47e9ee93a78e5a3bf544862c2a08"
    (sha (Vcpu.serialize regs));
  check "serve transcript"
    "1ed9ffee94502ced90f220fe19f915e93bd3879b00fbf2b1d92aac87e18ccd56"
    (hex
       (Sha256.transcript "hyperenclave-serve-sigma:"
          [ Bytes.of_string "nonce-16-bytes!!"; Bytes.make 32 'c';
            Bytes.make 32 's'; Bytes.make 32 'i' ]));
  check "offer transcript"
    "3d1c849e0c0c77a6bf766a6b9348a81039c74736e333ad958c5a4ad34ce3d607"
    (hex
       (Sha256.transcript "cluster-migrate-offer:"
          [ Bytes.of_string "acme"; Bytes.of_string "0"; Bytes.of_string "1";
            Bytes.make 16 'n'; Bytes.make 32 'x' ]))

(* --- session tickets: resume is total ------------------------------------------------ *)

(* A plane with one attested session and a genuine ticket for it.  A
   ticket crosses the network from an untrusted client, so [Serve.resume]
   must turn any damaged one into a typed refusal. *)
let ticket_fixture =
  lazy
    (let p = Platform.create ~seed:8200L () in
     let plane =
       Serve.create_node ~platform:p
       @@ Serve.Node_config.v ~platform:p Serve.default_config
     in
     let backend =
       Serve.add_tenant plane ~name:"fuzz"
         {
           (Backend.config (Backend.Hyperenclave Sgx_types.GU)) with
           Backend.handlers = [ (1, fun _env input -> input) ];
           code_seed = Some "fuzz";
         }
     in
     let identity = Option.get backend.Backend.identity in
     let client =
       Serve.Client.create ~rng:(Rng.create ~seed:8201L)
         ~golden:
           (Verifier.golden_of_boot_log
              ~ek_public:(Tpm.ek_public p.Platform.tpm)
              (Monitor.boot_log p.Platform.monitor))
         ~policy:
           {
             Verifier.expected_mrenclave = Some identity;
             expected_mrsigner = None;
             allow_debug = false;
           }
         ~expected_tenant:identity ()
     in
     (match Serve.handshake plane ~tenant:"fuzz" (Serve.Client.hello client) with
     | Ok accept -> Result.get_ok (Serve.Client.establish client accept)
     | Error _ -> failwith "ticket fixture: handshake refused");
     ( plane,
       Result.get_ok
         (Serve.issue_ticket plane ~session:(Serve.Client.session_id client)) ))

(* Damage to a ticket ([Authenc.encode] framing: four 4-byte big-endian
   length words at offsets 0, 16, 35 and 39 + ciphertext length): random
   bytes, truncation, byte flips, a length word near [max_int32] or
   negative, or the genuine sealed record under another AAD domain. *)
let ticket_damage_gen =
  QCheck.Gen.(
    let flips = list_size (int_range 1 4) (pair nat (int_range 1 255)) in
    let word =
      oneof
        [
          map (fun d -> Int32.(sub max_int (of_int d))) small_nat;
          map (fun d -> Int32.(add min_int (of_int d))) small_nat;
          map Int32.of_int int;
        ]
    in
    oneof
      [
        map (fun s _ -> Bytes.of_string s) string;
        map (fun n b -> Bytes.sub b 0 (n mod Bytes.length b)) nat;
        map
          (fun flips b ->
            let b = Bytes.copy b in
            List.iter
              (fun (pos, mask) ->
                let pos = pos mod Bytes.length b in
                Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor mask)))
              flips;
            b)
          flips;
        map2
          (fun which w b ->
            let b = Bytes.copy b in
            let tag_word = 39 + Int32.to_int (Bytes.get_int32_be b 35) in
            Bytes.set_int32_be b [| 0; 16; 35; tag_word |].(which) w;
            b)
          (int_bound 3) word;
        map
          (fun aad b ->
            Crypto.Authenc.encode
              { (Result.get_ok (Crypto.Authenc.decode b)) with Crypto.Authenc.aad = Bytes.of_string aad })
          (oneof [ oneofl [ ""; "serve-ticket:v2"; "serve-session" ]; string ]);
      ])

let ticket_nonce = ref 0

let ticket_resume_total =
  QCheck.Test.make ~name:"session ticket resume total on damaged tickets"
    ~count:300
    (QCheck.make QCheck.Gen.(pair ticket_damage_gen bool))
    (fun (damage, reuse_nonce) ->
      let plane, ticket = Lazy.force ticket_fixture in
      let damaged = damage ticket in
      incr ticket_nonce;
      let r =
        {
          Serve.r_ticket = damaged;
          r_nonce = Bytes.of_string (Printf.sprintf "fuzz-%d" !ticket_nonce);
        }
      in
      let outcome () =
        match Serve.resume plane r with
        | Ok _ -> "ok"
        | Error reject -> Serve.reject_name reject
        | exception exn ->
            QCheck.Test.fail_reportf "resume raised %s" (Printexc.to_string exn)
      in
      (* A damage that happens to leave the ticket intact is no case. *)
      Bytes.equal damaged ticket
      ||
      let first = outcome () in
      if first <> "bad-ticket" then
        QCheck.Test.fail_reportf "damaged ticket gave %s" first;
      let again = if reuse_nonce then outcome () else "replayed-nonce" in
      again = "replayed-nonce"
      || QCheck.Test.fail_reportf "reused nonce gave %s" again)

(* --- determinism -------------------------------------------------------------------- *)

let platform_cycle_determinism =
  QCheck.Test.make ~name:"identical seeds give identical simulated cycles"
    ~count:10
    QCheck.(int_bound 1000)
    (fun seed ->
      let run () =
        let p = Platform.create ~seed:(Int64.of_int (9000 + seed)) () in
        let handle =
          Urts.create ~kmod:p.Platform.kmod ~proc:p.Platform.proc
            ~rng:p.Platform.rng ~signer:p.Platform.signer
            ~config:(Urts.default_config Sgx_types.GU)
            ~ecalls:[ (1, fun tenv input -> tenv.Tenv.seal input) ]
            ~ocalls:[]
        in
        ignore
          (Urts.ecall handle ~id:1 ~data:(Bytes.of_string "d")
             ~direction:Edge.In_out ());
        let total = Cycles.now p.Platform.clock in
        Urts.destroy handle;
        total
      in
      run () = run ())

let suite =
  List.map QCheck_alcotest.to_alcotest
    [
      resp_roundtrip;
      resp_total;
      resp_prefix_rejected;
      http_total;
      http_valid_requests;
      sql_total;
      sql_store_consistency;
      ticket_resume_total;
      libos_fd_invariants;
      platform_cycle_determinism;
    ]
  @ List.map QCheck_alcotest.to_alcotest (List.concat_map row_tests rows)
  @ [
      Alcotest.test_case "codec known answers frozen" `Quick
        test_codec_known_answers;
    ]
