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

(* --- quote wire format ----------------------------------------------------------- *)

let wire_total =
  QCheck.Test.make ~name:"quote decoder total on garbage" ~count:300
    QCheck.(string_of_size (QCheck.Gen.int_range 0 200))
    (fun s ->
      match Quote_wire.decode (Bytes.of_string s) with
      | Result.Ok _ | Result.Error _ -> true
      | exception _ -> false)

(* --- vCPU SSA frames --------------------------------------------------------------- *)

let vcpu_roundtrip =
  QCheck.Test.make ~name:"vCPU SSA serialize/deserialize inverse" ~count:200
    QCheck.(int_bound 100_000)
    (fun seed ->
      (* Arbitrary in-enclave execution state, as an AEX would spill it. *)
      let rng = Rng.create ~seed:(Int64.of_int (77_000 + seed)) in
      let regs = Vcpu.fresh ~entry:0x1000 in
      Vcpu.scramble rng regs;
      let frame = Vcpu.serialize regs in
      if Bytes.length frame <> Vcpu.ssa_frame_bytes then
        QCheck.Test.fail_reportf "frame is %d bytes, expected %d"
          (Bytes.length frame) Vcpu.ssa_frame_bytes
      else
        Vcpu.equal regs (Vcpu.deserialize frame)
        || QCheck.Test.fail_reportf "round-trip lost register state (seed %d)"
             seed)

let vcpu_malformed_rejected =
  QCheck.Test.make ~name:"vCPU malformed SSA frame rejected" ~count:200
    QCheck.(int_bound 400)
    (fun len ->
      if len = Vcpu.ssa_frame_bytes then true
      else
        match Vcpu.deserialize (Bytes.make len '\x7f') with
        | _ -> QCheck.Test.fail_reportf "frame of %d bytes accepted" len
        | exception Invalid_argument _ -> true)

(* --- quote wire format: inverse + truncation --------------------------------------- *)

(* One real platform+enclave shared by the quote properties; the
   generator varies the report data and nonce, which reach every
   length-framed field of the wire format. *)
let quote_fixture =
  lazy
    (let p = Platform.create ~seed:8100L () in
     Urts.create ~kmod:p.Platform.kmod ~proc:p.Platform.proc
       ~rng:p.Platform.rng ~signer:p.Platform.signer
       ~config:(Urts.default_config Sgx_types.GU)
       ~ecalls:[ (1, fun _tenv input -> input) ]
       ~ocalls:[])

let quote_wire_roundtrip =
  QCheck.Test.make ~name:"quote wire encode/decode inverse" ~count:40
    (QCheck.make
       QCheck.Gen.(
         pair
           (string_size (int_range 0 32))
           (string_size (int_range 1 24))))
    (fun (rd, nonce) ->
      let handle = Lazy.force quote_fixture in
      let quote =
        Urts.gen_quote handle ~report_data:(Bytes.of_string rd)
          ~nonce:(Bytes.of_string nonce)
      in
      match Quote_wire.decode (Quote_wire.encode quote) with
      | Result.Error m -> QCheck.Test.fail_reportf "decode failed: %s" m
      | Result.Ok decoded ->
          decoded = quote
          || QCheck.Test.fail_reportf
               "decode . encode <> id (report_data=%S nonce=%S)" rd nonce)

let quote_wire_truncation =
  QCheck.Test.make ~name:"quote wire truncation rejected" ~count:10
    QCheck.(int_bound 10_000)
    (fun salt ->
      let handle = Lazy.force quote_fixture in
      let quote =
        Urts.gen_quote handle
          ~report_data:(Bytes.of_string (string_of_int salt))
          ~nonce:(Bytes.of_string "trunc")
      in
      let encoded = Quote_wire.encode quote in
      let ok = ref true in
      for len = 0 to Bytes.length encoded - 1 do
        match Quote_wire.decode (Bytes.sub encoded 0 len) with
        | Result.Error _ -> ()
        | Result.Ok _ ->
            Printf.eprintf "prefix of %d/%d bytes accepted\n" len
              (Bytes.length encoded);
            ok := false
        | exception exn ->
            Printf.eprintf "prefix of %d bytes raised %s\n" len
              (Printexc.to_string exn);
            ok := false
      done;
      !ok)

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

(* --- switchless ring frames: inverse + corruption --------------------------------- *)

(* The ring frames cross the shared ms region, so the parser consumes
   attacker-reachable bytes: encode/parse must be inverses, and every
   truncation or corrupted length word must surface as the typed
   [Urts.Enclave_error] — never a bare [Invalid_argument] from
   [Bytes.sub]. *)
let ring_frame_gen =
  QCheck.Gen.(
    list_size (int_range 0 16)
      (pair (int_range 0 1000) (string_size (int_range 0 64))))

let ring_frame_roundtrip =
  QCheck.Test.make ~name:"ring frame encode/parse inverse" ~count:200
    (QCheck.make ring_frame_gen) (fun reqs ->
      let reqs = List.map (fun (id, s) -> (id, Bytes.of_string s)) reqs in
      let parsed =
        Urts.parse_frames ~what:"fuzz" (Urts.frame_requests reqs)
      in
      List.map (fun (id, b) -> (id, Bytes.to_string b)) parsed
      = List.map (fun (id, b) -> (id, Bytes.to_string b)) reqs)

let ring_frame_truncation =
  QCheck.Test.make ~name:"ring frame truncation rejected typed" ~count:50
    (QCheck.make ring_frame_gen) (fun reqs ->
      let reqs = List.map (fun (id, s) -> (id, Bytes.of_string s)) reqs in
      let frame = Urts.frame_requests reqs in
      let ok = ref true in
      for len = 0 to Bytes.length frame - 1 do
        match Urts.parse_frames ~what:"fuzz" (Bytes.sub frame 0 len) with
        | _ -> () (* a shorter prefix can still be a valid frame *)
        | exception Urts.Enclave_error _ -> ()
        | exception exn ->
            Printf.eprintf "prefix of %d/%d bytes raised %s\n" len
              (Bytes.length frame) (Printexc.to_string exn);
            ok := false
      done;
      !ok)

let ring_frame_corrupt_length =
  QCheck.Test.make ~name:"ring frame corrupt length word rejected typed"
    ~count:200
    (QCheck.make
       QCheck.Gen.(
         pair ring_frame_gen (oneof [ int_range (-1000) (-1); int_range 65 max_int ])))
    (fun (reqs, bad_len) ->
      let reqs =
        match reqs with
        | [] -> [ (1, Bytes.of_string "x") ]
        | l -> List.map (fun (id, s) -> (id, Bytes.of_string s)) l
      in
      let frame = Urts.frame_requests reqs in
      Bytes.set_int64_le frame 16 (Int64.of_int bad_len);
      match Urts.parse_frames ~what:"fuzz" frame with
      | _ ->
          (* Only lengths that still fit the frame may parse. *)
          bad_len >= 0 && bad_len <= Bytes.length frame - 32
      | exception Urts.Enclave_error _ -> true
      | exception exn ->
          QCheck.Test.fail_reportf "length %d raised %s" bad_len
            (Printexc.to_string exn))

(* --- migration export blob: totality -------------------------------------------- *)

(* The export blob is decoded after AEAD verification, so only a keyed
   peer reaches the decoder — it must still be total: truncated,
   byte-flipped or length-patched blobs yield [Ok]/[Error], never an
   exception. *)
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

(* Damage to a blob: truncate it, flip bytes, or overwrite a word —
   often at offset 7, the first length word — with a value near
   [max_int], an arbitrary one, or a small one. *)
let damage_gen =
  QCheck.Gen.(
    let flips = list_size (int_range 1 4) (pair nat (int_range 1 255)) in
    let word =
      oneof
        [
          map (fun d -> Int64.(sub 0x3fff_ffff_ffff_ffffL (of_int d))) small_nat;
          map Int64.of_int int;
          map Int64.of_int small_nat;
        ]
    in
    oneof
      [
        map (fun n b -> Bytes.sub b 0 (n mod Bytes.length b)) nat;
        map
          (fun flips b ->
            let b = Bytes.copy b in
            List.iter
              (fun (pos, mask) ->
                let pos = pos mod Bytes.length b in
                let c = Char.code (Bytes.get b pos) lxor mask in
                Bytes.set b pos (Char.chr c))
              flips;
            b)
          flips;
        map2
          (fun pos w b ->
            let b = Bytes.copy b in
            Bytes.set_int64_le b (pos mod (Bytes.length b - 7)) w;
            b)
          (oneof [ return 7; nat ])
          word;
      ])

let export_decode_total =
  QCheck.Test.make ~name:"export blob decoder total on damaged blobs" ~count:300
    (QCheck.make (QCheck.Gen.pair export_gen damage_gen))
    (fun (x, damage) ->
      let blob = Cluster.encode_export x in
      Cluster.decode_export blob = Ok x
      &&
      match Cluster.decode_export (damage blob) with
      | Ok _ | Error _ -> true
      | exception exn ->
          QCheck.Test.fail_reportf "damaged blob raised %s"
            (Printexc.to_string exn))

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
              { (Crypto.Authenc.decode b) with Crypto.Authenc.aad = Bytes.of_string aad })
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
      wire_total;
      vcpu_roundtrip;
      vcpu_malformed_rejected;
      quote_wire_roundtrip;
      quote_wire_truncation;
      ring_frame_roundtrip;
      ring_frame_truncation;
      ring_frame_corrupt_length;
      export_decode_total;
      ticket_resume_total;
      libos_fd_invariants;
      platform_cycle_determinism;
    ]
