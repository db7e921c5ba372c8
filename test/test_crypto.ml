(* Crypto primitives against published vectors, plus roundtrip and
   tamper-detection properties. *)

open Hyperenclave.Crypto

let hex = Sha256.to_hex

let of_hex s =
  let n = String.length s / 2 in
  Bytes.init n (fun i -> Char.chr (int_of_string ("0x" ^ String.sub s (2 * i) 2)))

let check_hex = Alcotest.(check string)

(* --- SHA-256 (FIPS 180-4 / NIST CAVP vectors) -------------------------------- *)

let test_sha256_vectors () =
  check_hex "empty" "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    (hex (Sha256.digest_string ""));
  check_hex "abc" "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    (hex (Sha256.digest_string "abc"));
  check_hex "two blocks"
    "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
    (hex
       (Sha256.digest_string
          "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"));
  check_hex "million a's"
    "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
    (hex (Sha256.digest_bytes (Bytes.make 1_000_000 'a')))

(* Message lengths on both sides of the padding split: up to 55 bytes
   of a block leave room for 0x80 and the 64-bit length, 56..63 spill
   the length into a second compression.  Byte i of each message is
   (13 i + 5) mod 256; expected digests from Python's hashlib. *)
let test_sha256_padding_boundaries () =
  List.iter
    (fun (n, expected) ->
      let msg = Bytes.init n (fun i -> Char.chr (((i * 13) + 5) land 0xff)) in
      check_hex (Printf.sprintf "%d bytes" n) expected
        (hex (Sha256.digest_bytes msg)))
    [
      (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
      (55, "63c06c35402b73061b2b60338121fe8f4895640a178ed01c4b2e40ff8dcd1755");
      (56, "86512867c0c0b58974d4a9f76fab04b3ed84c5ae5845bd807f809a7884ec24e5");
      (63, "56547b4ccd1b089babcb872418aa6d3be61e3aba1b97e0eda0934d729ebe9e0c");
      (64, "44aee5fa258a25ab9eeebaa630ea0ea92b017efb95fbce6f91c9c181e4d8ebe2");
      (119, "6254840d9eae6aa6306503495f711a7a98d80c622280b8fdbc4a2e8fa5927800");
      (120, "75304bcb12fabfd25d0d14a3bdfe209e4bc266b5686ad7d5dad3367ef836669f");
    ]

let test_sha256_incremental () =
  let data = "The quick brown fox jumps over the lazy dog, repeatedly." in
  let oneshot = Sha256.digest_string data in
  let ctx = Sha256.init () in
  String.iter (fun c -> Sha256.update_string ctx (String.make 1 c)) data;
  Alcotest.(check string)
    "bytewise = oneshot" (hex oneshot)
    (hex (Sha256.finalize ctx));
  let ctx2 = Sha256.init () in
  Sha256.update_string ctx2 data;
  ignore (Sha256.finalize ctx2);
  Alcotest.check_raises "double finalize"
    (Invalid_argument "Sha256.finalize: already finalized") (fun () ->
      ignore (Sha256.finalize ctx2))

let test_sha256_equal () =
  let a = Sha256.digest_string "x" and b = Sha256.digest_string "x" in
  Alcotest.(check bool) "equal digests" true (Sha256.equal a b);
  Alcotest.(check bool)
    "different digests" false
    (Sha256.equal a (Sha256.digest_string "y"));
  Alcotest.(check bool) "length mismatch" false (Sha256.equal a (Bytes.create 4))

(* --- HMAC (RFC 4231) ------------------------------------------------------------ *)

let test_hmac_vectors () =
  check_hex "rfc4231 case 1"
    "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
    (hex (Hmac.hmac_string ~key:(Bytes.make 20 '\x0b') "Hi There"));
  check_hex "rfc4231 case 2"
    "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
    (hex
       (Hmac.hmac_string ~key:(Bytes.of_string "Jefe")
          "what do ya want for nothing?"));
  (* case 3: 20 x 0xaa key, 50 x 0xdd data *)
  check_hex "rfc4231 case 3"
    "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
    (hex (Hmac.hmac ~key:(Bytes.make 20 '\xaa') (Bytes.make 50 '\xdd')))

(* RFC 4231 cases 4, 6 and 7, through the one-shot and a prepared key
   (used twice, so the second tag runs on a restarted context).  Cases
   6 and 7 use a 131-byte key, which is hashed down before padding. *)
let test_hmac_prepared_vectors () =
  let big_key = Bytes.make 131 '\xaa' in
  List.iter
    (fun (name, key, msg, expected) ->
      let msg = Bytes.of_string msg in
      check_hex (name ^ " one-shot") expected (hex (Hmac.hmac ~key msg));
      let p = Hmac.prepare key in
      for round = 1 to 2 do
        Hmac.start p;
        Hmac.absorb p msg ~off:0 ~len:(Bytes.length msg);
        check_hex
          (Printf.sprintf "%s prepared, tag %d" name round)
          expected
          (hex (Hmac.finish p))
      done)
    [
      ( "rfc4231 case 4",
        Bytes.init 25 (fun i -> Char.chr (i + 1)),
        String.make 50 '\xcd',
        "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b" );
      ( "rfc4231 case 6",
        big_key,
        "Test Using Larger Than Block-Size Key - Hash Key First",
        "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54" );
      ( "rfc4231 case 7",
        big_key,
        "This is a test using a larger than block-size key and a larger \
         than block-size data. The key needs to be hashed before being \
         used by the HMAC algorithm.",
        "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2" );
    ]

let test_hmac_verify () =
  let key = Bytes.of_string "0123456789abcdef0123456789abcdef" in
  let msg = Bytes.of_string "attested message" in
  let tag = Hmac.hmac ~key msg in
  Alcotest.(check bool) "verify ok" true (Hmac.verify ~key msg ~tag);
  Alcotest.(check bool)
    "verify bad msg" false
    (Hmac.verify ~key (Bytes.of_string "attested message!") ~tag)

let test_hkdf () =
  (* RFC 5869 test case 1. *)
  let ikm = Bytes.make 22 '\x0b' in
  let salt = of_hex "000102030405060708090a0b0c" in
  let prk = Hmac.hkdf_extract ~salt ~ikm () in
  check_hex "prk" "077709362c2e32df0ddc3f0dc47bba6390b6c73bb50f9c3122ec844ad7c2b3e5"
    (hex prk);
  (* info = 0xf0..f9, L=42 *)
  let info = Bytes.to_string (of_hex "f0f1f2f3f4f5f6f7f8f9") in
  let okm = Hmac.hkdf_expand ~prk ~info ~len:42 in
  check_hex "okm"
    "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf34007208d5b887185865"
    (hex okm);
  Alcotest.(check int) "derive is 32 bytes" 32 (Bytes.length (Hmac.derive ~key:ikm ~info:"x"));
  Alcotest.(check bool)
    "derive domain separation" false
    (Bytes.equal (Hmac.derive ~key:ikm ~info:"a") (Hmac.derive ~key:ikm ~info:"b"))

(* --- AES (FIPS 197) ---------------------------------------------------------------- *)

let test_aes_vector () =
  let key = Aes.expand_key (of_hex "000102030405060708090a0b0c0d0e0f") in
  let ct = Aes.encrypt_block key (of_hex "00112233445566778899aabbccddeeff") in
  check_hex "fips-197 C.1" "69c4e0d86a7b0430d8cdb78070b4c55a" (hex ct);
  check_hex "decrypt inverts" "00112233445566778899aabbccddeeff"
    (hex (Aes.decrypt_block key ct))

let test_aes_ctr () =
  let key = Bytes.of_string "0123456789abcdef" in
  let nonce = Bytes.make 12 '\x01' in
  let plaintext = Bytes.of_string "counter mode works on odd lengths too!" in
  let ct = Aes.ctr_transform ~key ~nonce plaintext in
  Alcotest.(check bool) "ciphertext differs" false (Bytes.equal ct plaintext);
  Alcotest.(check string)
    "ctr roundtrip"
    (Bytes.to_string plaintext)
    (Bytes.to_string (Aes.ctr_transform ~key ~nonce ct))

let test_aes_xts () =
  let key = Bytes.of_string "fedcba9876543210" in
  let plaintext = Bytes.make 64 'p' in
  let ct1 = Aes.xts_encrypt ~key ~tweak:0x1000 plaintext in
  let ct2 = Aes.xts_encrypt ~key ~tweak:0x2000 plaintext in
  Alcotest.(check bool)
    "tweak (address) changes ciphertext" false (Bytes.equal ct1 ct2);
  Alcotest.(check bool)
    "blocks differ within buffer" false
    (Bytes.equal (Bytes.sub ct1 0 16) (Bytes.sub ct1 16 16));
  Alcotest.(check string)
    "xts roundtrip"
    (Bytes.to_string plaintext)
    (Bytes.to_string (Aes.xts_decrypt ~key ~tweak:0x1000 ct1));
  Alcotest.check_raises "length check" (Invalid_argument "Aes.xts: length % 16 <> 0")
    (fun () -> ignore (Aes.xts_encrypt ~key ~tweak:0 (Bytes.create 15)))

(* --- Signatures ---------------------------------------------------------------------- *)

let test_signature () =
  let rng = Hyperenclave.Rng.create ~seed:9L in
  let sk, pk = Signature.generate rng in
  let msg = Bytes.of_string "enclave measurement" in
  let signature = Signature.sign sk msg in
  Alcotest.(check bool) "verify ok" true (Signature.verify pk msg ~signature);
  Alcotest.(check bool)
    "other message fails" false
    (Signature.verify pk (Bytes.of_string "enclave measurement!") ~signature);
  let _, pk2 = Signature.generate rng in
  Alcotest.(check bool) "other key fails" false (Signature.verify pk2 msg ~signature);
  Alcotest.(check bool)
    "unregistered key fails" false
    (Signature.verify (Bytes.make 32 'z') msg ~signature);
  (* export/import keeps identity *)
  let sk' = Signature.import_private (Signature.export_private sk) in
  Alcotest.(check bool)
    "imported key signs identically" true
    (Signature.verify pk msg ~signature:(Signature.sign sk' msg))

(* --- Authenc ---------------------------------------------------------------------------- *)

let test_authenc () =
  let key = Hmac.derive ~key:(Bytes.of_string "root") ~info:"seal" in
  let nonce = Bytes.make 12 '\x42' in
  let aad = Bytes.of_string "policy" in
  let sealed = Authenc.seal ~key ~aad ~nonce (Bytes.of_string "secret data") in
  Alcotest.(check string)
    "roundtrip" "secret data"
    (Bytes.to_string (Authenc.unseal ~key sealed));
  let tampered = { sealed with Authenc.ciphertext = Bytes.map (fun c -> Char.chr (Char.code c lxor 1)) sealed.Authenc.ciphertext } in
  Alcotest.check_raises "tampered ciphertext" Authenc.Authentication_failure
    (fun () -> ignore (Authenc.unseal ~key tampered));
  let tampered_aad = { sealed with Authenc.aad = Bytes.of_string "POLICY" } in
  Alcotest.check_raises "tampered aad" Authenc.Authentication_failure (fun () ->
      ignore (Authenc.unseal ~key tampered_aad));
  let wrong_key = Hmac.derive ~key:(Bytes.of_string "other") ~info:"seal" in
  Alcotest.check_raises "wrong key" Authenc.Authentication_failure (fun () ->
      ignore (Authenc.unseal ~key:wrong_key sealed));
  let decoded = Result.get_ok (Authenc.decode (Authenc.encode sealed)) in
  Alcotest.(check string)
    "encode/decode roundtrip" "secret data"
    (Bytes.to_string (Authenc.unseal ~key decoded))

(* --- zero-copy path ---------------------------------------------------------------------- *)

let test_ctr_into () =
  let raw_key = Bytes.of_string "0123456789abcdef" in
  let key = Aes.expand_key raw_key in
  let nonce = Bytes.make 12 '\x07' in
  let data = Bytes.of_string "slices must match the one-shot keystream" in
  let oneshot = Aes.ctr_transform ~key:raw_key ~nonce data in
  (* Same offset in a larger buffer. *)
  let src = Bytes.cat (Bytes.of_string "pad:") data in
  let dst = Bytes.make (Bytes.length src) '\x00' in
  Aes.ctr_into ~key ~nonce ~src ~src_off:4 ~dst ~dst_off:4
    ~len:(Bytes.length data);
  Alcotest.(check string)
    "slice = one-shot"
    (Bytes.to_string oneshot)
    (Bytes.to_string (Bytes.sub dst 4 (Bytes.length data)));
  (* Aliased src/dst: a true in-place transform. *)
  let buf = Bytes.copy data in
  Aes.ctr_into ~key ~nonce ~src:buf ~src_off:0 ~dst:buf ~dst_off:0
    ~len:(Bytes.length buf);
  Alcotest.(check string)
    "in-place = one-shot" (Bytes.to_string oneshot) (Bytes.to_string buf);
  Aes.ctr_into ~key ~nonce ~src:buf ~src_off:0 ~dst:buf ~dst_off:0
    ~len:(Bytes.length buf);
  Alcotest.(check string)
    "in-place inverts" (Bytes.to_string data) (Bytes.to_string buf);
  Alcotest.check_raises "bounds checked"
    (Invalid_argument "Aes.ctr_into: source slice out of bounds") (fun () ->
      Aes.ctr_into ~key ~nonce ~src:buf ~src_off:1 ~dst:buf ~dst_off:0
        ~len:(Bytes.length buf))

(* The CTR keystream runs once per 16-byte block on every sealed request
   and every swapped page, so its steady state must not allocate: only
   the per-call counter block and state array may, amortised over the
   256 blocks of a 4 KiB slice. *)
let test_ctr_into_allocation () =
  let key = Aes.expand_key (Bytes.of_string "0123456789abcdef") in
  let nonce = Bytes.make 12 '\x07' in
  let buf = Bytes.make 4096 'p' in
  let blocks = Bytes.length buf / 16 and calls = 16 in
  let run () =
    Aes.ctr_into ~key ~nonce ~src:buf ~src_off:0 ~dst:buf ~dst_off:0
      ~len:(Bytes.length buf)
  in
  run ();
  let words0 = Gc.minor_words () in
  for _ = 1 to calls do
    run ()
  done;
  let per_block = (Gc.minor_words () -. words0) /. float_of_int (calls * blocks) in
  if per_block >= 1.0 then
    Alcotest.failf "ctr_into allocates %.2f minor words per block" per_block

let test_update_sub () =
  let data = Bytes.of_string "incremental hashing over sub-slices" in
  let ctx = Sha256.init () in
  Sha256.update_sub ctx data ~off:0 ~len:11;
  Sha256.update_sub ctx data ~off:11 ~len:(Bytes.length data - 11);
  Alcotest.(check string)
    "update_sub = digest"
    (hex (Sha256.digest_bytes data))
    (hex (Sha256.finalize ctx));
  let ctx = Sha256.init () in
  Alcotest.check_raises "slice bounds"
    (Invalid_argument "Sha256.update_sub: slice out of bounds") (fun () ->
      Sha256.update_sub ctx data ~off:1 ~len:(Bytes.length data))

(* A tag absorbed piecewise through a prepared key equals the one-shot
   HMAC of the concatenation, across an empty slice and a slice that
   straddles the first 64-byte block boundary (6 + 70 bytes).  Expected
   tag from Python's hmac module. *)
let test_hmac_piecewise () =
  let key = Bytes.of_string "hmac-slices-key" in
  let a = Bytes.of_string "first|" in
  let b =
    Bytes.concat Bytes.empty
      [
        Bytes.of_string "XX";
        Bytes.init 70 (fun i -> Char.chr (((i * 3) + 1) land 0xff));
        Bytes.of_string "YY";
      ]
  in
  let whole = Bytes.cat a (Bytes.sub b 2 70) in
  let expected =
    "621f847c545958e6f552ebd9f7969ea154be8ac80e6ce5f91b5fe804bc560853"
  in
  check_hex "one-shot over the concatenation" expected
    (hex (Hmac.hmac ~key whole));
  let p = Hmac.prepare key in
  Hmac.start p;
  Hmac.absorb p a ~off:0 ~len:(Bytes.length a);
  Hmac.absorb p b ~off:0 ~len:0;
  Hmac.absorb p b ~off:2 ~len:70;
  check_hex "slices = concatenation" expected (hex (Hmac.finish p))

let test_authenc_zero_copy () =
  let key = Hmac.derive ~key:(Bytes.of_string "root") ~info:"zc" in
  let keys = Authenc.prepare key in
  let nonce = Bytes.make 12 '\x21' in
  let aad = Bytes.of_string "zc-policy" in
  let plaintext = Bytes.of_string "zero-copy sealed payload" in
  let len = Bytes.length plaintext in
  let reference = Authenc.seal ~key ~aad ~nonce plaintext in
  (* seal_into produces the same ciphertext and tag as the one-shot. *)
  let ct = Bytes.create len in
  let tag =
    Authenc.seal_into keys ~aad ~nonce ~src:plaintext ~src_off:0 ~dst:ct
      ~dst_off:0 ~len ()
  in
  Alcotest.(check string)
    "ciphertext = one-shot"
    (Bytes.to_string reference.Authenc.ciphertext)
    (Bytes.to_string ct);
  Alcotest.(check string)
    "tag = one-shot" (hex reference.Authenc.tag) (hex tag);
  (* verify_sealed / verify_slice authenticate without plaintext. *)
  Alcotest.(check bool)
    "verify_sealed ok" true (Authenc.verify_sealed keys reference);
  Alcotest.(check bool)
    "verify_slice ok" true
    (Authenc.verify_slice keys ~aad ~nonce ~tag ~buf:ct ~off:0 ~len);
  let bad = { reference with Authenc.aad = Bytes.of_string "other" } in
  Alcotest.(check bool)
    "verify_sealed rejects wrong aad" false (Authenc.verify_sealed keys bad);
  (* decrypt_into completes a deferred unseal. *)
  let out = Bytes.create len in
  Authenc.decrypt_into keys ~nonce ~src:ct ~src_off:0 ~dst:out ~dst_off:0 ~len;
  Alcotest.(check string)
    "deferred decrypt" (Bytes.to_string plaintext) (Bytes.to_string out);
  (* unseal_in_place roundtrips and leaves the buffer untouched on a
     bad tag. *)
  let buf = Bytes.copy ct in
  Authenc.unseal_in_place keys ~aad ~nonce ~tag buf ~off:0 ~len;
  Alcotest.(check string)
    "in-place unseal" (Bytes.to_string plaintext) (Bytes.to_string buf);
  let buf = Bytes.copy ct in
  let wrong = Bytes.map (fun c -> Char.chr (Char.code c lxor 1)) tag in
  Alcotest.check_raises "in-place tamper" Authenc.Authentication_failure
    (fun () -> Authenc.unseal_in_place keys ~aad ~nonce ~tag:wrong buf ~off:0 ~len);
  Alcotest.(check string)
    "buffer untouched on failure" (Bytes.to_string ct) (Bytes.to_string buf);
  (* A prepared-keys unseal of a one-shot seal (and vice versa) is the
     compatibility the serving plane relies on. *)
  Alcotest.(check string)
    "one-shot unseal of seal_into output" (Bytes.to_string plaintext)
    (Bytes.to_string
       (Authenc.unseal ~key { Authenc.nonce; ciphertext = ct; tag; aad }))

(* --- frozen AEAD bytes --------------------------------------------------------------------- *)

(* Known-answer vectors captured from the implementation before AEAD
   keys were prepared once per session (HKDF split and MAC framing
   unchanged since).  They pin the bytes of every sealed blob: TPM
   seals, EWB swap blobs, session tickets, migration blobs and session
   envelopes.  Key bytes 0x40..0x5f, nonce 0xc0..0xcb, plaintext byte i
   = (31 i + 7) mod 256.  The 4096-byte ciphertext is pinned by its
   SHA-256. *)
let kat_key = Bytes.init 32 (fun i -> Char.chr (0x40 + i))
let kat_nonce = Bytes.init 12 (fun i -> Char.chr (0xc0 + i))
let kat_aad = Bytes.of_string "hyperenclave-kat"
let kat_plaintext n = Bytes.init n (fun i -> Char.chr (((i * 31) + 7) land 0xff))

let kat_vectors =
  [
    (0, "", "b497c9c6bdc03b0c6a8df48d06a2d166b678ec353ecb7b728f7e76e619200162");
    (1, "8b", "f3e8bcb5ae112b6c2b6de5842acdee8c38f73e9f2f1e6d04158cfae4e0267798");
    ( 55,
      "8be2d47650840fbe0edae3aba943da1f86b0898eb7f77dbb1595725490699d7545c740fc5c4d9723f04152b4b585aadd7cd37b18e8614c",
      "8f74d7b4f05b677f3dcbabd0d18b89de78a457048c6c86c520074d79ff832448" );
    ( 56,
      "8be2d47650840fbe0edae3aba943da1f86b0898eb7f77dbb1595725490699d7545c740fc5c4d9723f04152b4b585aadd7cd37b18e8614c4e",
      "27fd5752643def2288b23dcd377a8d59b26795e18c246280c9262f16a1ecaa96" );
    ( 64,
      "8be2d47650840fbe0edae3aba943da1f86b0898eb7f77dbb1595725490699d7545c740fc5c4d9723f04152b4b585aadd7cd37b18e8614c4e14c6f72ad3aa9bc9",
      "0721936ad736394425e061fd68cedb9ff9cfe7c78c5dc02757dd5daa8a791838" );
    ( 96,
      "8be2d47650840fbe0edae3aba943da1f86b0898eb7f77dbb1595725490699d7545c740fc5c4d9723f04152b4b585aadd7cd37b18e8614c4e14c6f72ad3aa9bc984ed0fb2d13813bd63fe9b324c6202f08b57371276a1dda26c26f616da672cfd",
      "71c8fe5af7e0d9f6eeba1693613ec86e36a50b35b6ea8d7cd55f84e692a0f14f" );
    ( 4096,
      "sha256:4490191e89345e73a723cb6e3b5d1860b3feb46fa280dcd69a957e7cd68bc3bc",
      "95995a8d0dcc4e8968410db61f6b5b5f5c805bf5b0e96cb3d4cda5d0b9841d01" );
  ]

let kat_ct_hex ct =
  if Bytes.length ct > 96 then "sha256:" ^ hex (Sha256.digest_bytes ct)
  else hex ct

let test_authenc_kat () =
  let keys = Authenc.prepare kat_key in
  List.iter
    (fun (n, ct_hex, tag_hex) ->
      let pt = kat_plaintext n in
      let sealed = Authenc.seal ~key:kat_key ~aad:kat_aad ~nonce:kat_nonce pt in
      check_hex (Printf.sprintf "seal ciphertext %d" n) ct_hex
        (kat_ct_hex sealed.Authenc.ciphertext);
      check_hex (Printf.sprintf "seal tag %d" n) tag_hex
        (hex sealed.Authenc.tag);
      let ct = Bytes.create n in
      let tag =
        Authenc.seal_into keys ~aad:kat_aad ~nonce:kat_nonce ~src:pt ~src_off:0
          ~dst:ct ~dst_off:0 ~len:n ()
      in
      check_hex (Printf.sprintf "seal_into ciphertext %d" n) ct_hex
        (kat_ct_hex ct);
      check_hex (Printf.sprintf "seal_into tag %d" n) tag_hex (hex tag);
      Alcotest.(check string)
        (Printf.sprintf "unseal %d" n) (Bytes.to_string pt)
        (Bytes.to_string (Authenc.unseal ~key:kat_key sealed)))
    kat_vectors;
  check_hex "encode (1-byte plaintext)"
    "0000000cc0c1c2c3c4c5c6c7c8c9cacb000000106879706572656e636c6176652d6b6174000000018b00000020f3e8bcb5ae112b6c2b6de5842acdee8c38f73e9f2f1e6d04158cfae4e0267798"
    (hex
       (Authenc.encode
          (Authenc.seal ~key:kat_key ~aad:kat_aad ~nonce:kat_nonce
             (kat_plaintext 1))))

(* Steady-state tag cost on prepared keys, 96-byte messages (an echo
   request).  Before the HMAC pads were precomputed, every tag re-copied
   the key pad, built two SHA-256 contexts, a slice list with three
   length headers and a padding tail: 295 minor words per [seal_into]
   and 272 per [verify_sealed] on OCaml 5.1 without flambda.  Now a
   [seal_into] allocates its 32-byte tag and little else. *)
let words_per_call ~calls f =
  f ();
  let words0 = Gc.minor_words () in
  for _ = 1 to calls do
    f ()
  done;
  (Gc.minor_words () -. words0) /. float_of_int calls

let test_seal_into_allocation () =
  let keys = Authenc.prepare kat_key in
  let src = kat_plaintext 96 and dst = Bytes.create 96 in
  let per_call =
    words_per_call ~calls:200 (fun () ->
        ignore
          (Authenc.seal_into keys ~aad:kat_aad ~nonce:kat_nonce ~src ~src_off:0
             ~dst ~dst_off:0 ~len:96 ()))
  in
  if per_call > 40.0 then
    Alcotest.failf "seal_into allocates %.1f minor words per call (bound 40)"
      per_call

let test_verify_sealed_allocation () =
  let keys = Authenc.prepare kat_key in
  let sealed =
    Authenc.seal ~key:kat_key ~aad:kat_aad ~nonce:kat_nonce (kat_plaintext 96)
  in
  let per_call =
    words_per_call ~calls:200 (fun () ->
        if not (Authenc.verify_sealed keys sealed) then
          Alcotest.fail "verify_sealed rejected a valid envelope")
  in
  if per_call > 24.0 then
    Alcotest.failf
      "verify_sealed allocates %.1f minor words per call (bound 24)" per_call

(* An enclave's ring worker checks a tag on every request slot, into
   the scratch the prepared keys hold: a check allocates nothing, AAD
   included. *)
let test_verify_slice_allocation () =
  let keys = Authenc.prepare kat_key in
  let sealed =
    Authenc.seal ~key:kat_key ~aad:kat_aad ~nonce:kat_nonce (kat_plaintext 96)
  in
  let tag = sealed.Authenc.tag and buf = sealed.Authenc.ciphertext in
  let per_call =
    words_per_call ~calls:200 (fun () ->
        if
          not
            (Authenc.verify_slice keys ~aad:kat_aad ~nonce:kat_nonce ~tag ~buf
               ~off:0 ~len:96)
        then Alcotest.fail "verify_slice rejected a valid envelope")
  in
  if per_call >= 1.0 then
    Alcotest.failf "verify_slice allocates %.2f minor words per call" per_call

(* --- properties ---------------------------------------------------------------------------- *)

let qcheck_tests =
  let open QCheck in
  [
    Test.make ~name:"aes encrypt/decrypt roundtrip" ~count:100
      (string_of_size (Gen.return 16))
      (fun s ->
        let key = Aes.expand_key (Bytes.of_string "aaaabbbbccccdddd") in
        let block = Bytes.of_string s in
        Bytes.equal (Aes.decrypt_block key (Aes.encrypt_block key block)) block);
    Test.make ~name:"ctr roundtrip any length" ~count:100 string (fun s ->
        let key = Bytes.of_string "0123456789abcdef" in
        let nonce = Bytes.make 12 'n' in
        let data = Bytes.of_string s in
        Bytes.equal
          (Aes.ctr_transform ~key ~nonce (Aes.ctr_transform ~key ~nonce data))
          data);
    Test.make ~name:"authenc seal/unseal roundtrip" ~count:100
      (pair string string)
      (fun (secret, aad) ->
        let key = Hmac.derive ~key:(Bytes.of_string "k") ~info:"t" in
        let sealed =
          Authenc.seal ~key ~aad:(Bytes.of_string aad) ~nonce:(Bytes.make 12 'x')
            (Bytes.of_string secret)
        in
        Bytes.to_string (Authenc.unseal ~key
             (Result.get_ok (Authenc.decode (Authenc.encode sealed))))
        = secret);
    Test.make ~name:"sha256 distinct on distinct strings" ~count:200
      (pair small_string small_string)
      (fun (a, b) ->
        a = b || not (Sha256.equal (Sha256.digest_string a) (Sha256.digest_string b)));
  ]

let suite =
  List.map QCheck_alcotest.to_alcotest qcheck_tests
  @ [
      Alcotest.test_case "sha256 vectors" `Quick test_sha256_vectors;
      Alcotest.test_case "sha256 incremental" `Quick test_sha256_incremental;
      Alcotest.test_case "sha256 equal" `Quick test_sha256_equal;
      Alcotest.test_case "hmac vectors" `Quick test_hmac_vectors;
      Alcotest.test_case "hmac prepared-key vectors" `Quick
        test_hmac_prepared_vectors;
      Alcotest.test_case "sha256 padding boundaries" `Quick
        test_sha256_padding_boundaries;
      Alcotest.test_case "hmac verify" `Quick test_hmac_verify;
      Alcotest.test_case "hkdf rfc5869" `Quick test_hkdf;
      Alcotest.test_case "aes fips vector" `Quick test_aes_vector;
      Alcotest.test_case "aes ctr" `Quick test_aes_ctr;
      Alcotest.test_case "aes xts" `Quick test_aes_xts;
      Alcotest.test_case "signatures" `Quick test_signature;
      Alcotest.test_case "authenc" `Quick test_authenc;
      Alcotest.test_case "aes ctr_into slices" `Quick test_ctr_into;
      Alcotest.test_case "aes ctr_into steady state allocation-free" `Quick
        test_ctr_into_allocation;
      Alcotest.test_case "sha256 update_sub" `Quick test_update_sub;
      Alcotest.test_case "hmac slices" `Quick test_hmac_piecewise;
      Alcotest.test_case "authenc zero-copy" `Quick test_authenc_zero_copy;
      Alcotest.test_case "authenc frozen known answers" `Quick test_authenc_kat;
      Alcotest.test_case "authenc seal_into steady-state allocation" `Quick
        test_seal_into_allocation;
      Alcotest.test_case "authenc verify_sealed steady-state allocation" `Quick
        test_verify_sealed_allocation;
      Alcotest.test_case "verify_slice steady state allocation-free" `Quick
        test_verify_slice_allocation;
    ]
