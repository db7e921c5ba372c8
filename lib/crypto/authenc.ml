module Codec = Hyperenclave_hw.Codec

type sealed = { nonce : bytes; ciphertext : bytes; tag : bytes; aad : bytes }

exception Authentication_failure

(* Prepared key material: the HKDF split, the AES key schedule and the
   HMAC pads are paid once per key instead of once per message.  [hdr]
   is the scratch for the 4-byte length prefix of each MAC field,
   [digest] the one a tag check computes into. *)
type keys = { enc : Aes.key; mac : Hmac.prepared; hdr : bytes; digest : bytes }

let prepare key =
  if Bytes.length key <> 32 then invalid_arg "Authenc: key must be 32 bytes";
  let enc_key = Hmac.derive ~key ~info:"authenc-enc" in
  {
    enc = Aes.expand_key (Bytes.sub enc_key 0 16);
    mac = Hmac.prepare (Hmac.derive ~key ~info:"authenc-mac");
    hdr = Bytes.create 4;
    digest = Bytes.create 32;
  }

let absorb_framed keys b ~off ~len =
  Bytes.set_int32_be keys.hdr 0 (Int32.of_int len);
  Hmac.absorb keys.mac keys.hdr ~off:0 ~len:4;
  Hmac.absorb keys.mac b ~off ~len

(* The MAC input is nonce, AAD and ciphertext, each prefixed by its
   32-bit big-endian length; the ciphertext is hashed where it lies
   (e.g. in a ring slot). *)
let absorb_mac_input keys ~nonce ~aad ~ct ~ct_off ~ct_len =
  Hmac.start keys.mac;
  absorb_framed keys nonce ~off:0 ~len:(Bytes.length nonce);
  absorb_framed keys aad ~off:0 ~len:(Bytes.length aad);
  absorb_framed keys ct ~off:ct_off ~len:ct_len

let seal_into keys ?(aad = Bytes.empty) ~nonce ~src ~src_off ~dst ~dst_off ~len
    () =
  if Bytes.length nonce <> 12 then
    invalid_arg "Authenc.seal_into: nonce must be 12 bytes";
  Aes.ctr_into ~key:keys.enc ~nonce ~src ~src_off ~dst ~dst_off ~len;
  absorb_mac_input keys ~nonce ~aad ~ct:dst ~ct_off:dst_off ~ct_len:len;
  Hmac.finish keys.mac

let verify_slice keys ~aad ~nonce ~tag ~buf ~off ~len =
  absorb_mac_input keys ~nonce ~aad ~ct:buf ~ct_off:off ~ct_len:len;
  Hmac.finish_into keys.mac keys.digest;
  Sha256.equal keys.digest tag

(* Tag check without producing plaintext, for a caller that decrypts
   elsewhere (a client reading a reply into a fresh buffer). *)
let verify_sealed keys sealed =
  verify_slice keys ~aad:sealed.aad ~nonce:sealed.nonce ~tag:sealed.tag
    ~buf:sealed.ciphertext ~off:0
    ~len:(Bytes.length sealed.ciphertext)

(* Completion of a deferred decrypt: plain CTR over a ciphertext slice
   whose tag was already checked (e.g. [verify_slice] in an enclave's
   ring worker, then the decrypt into the enclave's copy).  Never call
   this on unauthenticated bytes. *)
let decrypt_into keys ~nonce ~src ~src_off ~dst ~dst_off ~len =
  Aes.ctr_into ~key:keys.enc ~nonce ~src ~src_off ~dst ~dst_off ~len

let unseal_in_place keys ?(aad = Bytes.empty) ~nonce ~tag buf ~off ~len =
  if not (verify_slice keys ~aad ~nonce ~tag ~buf ~off ~len) then
    raise Authentication_failure;
  Aes.ctr_into ~key:keys.enc ~nonce ~src:buf ~src_off:off ~dst:buf ~dst_off:off
    ~len

(* The one-shot forms prepare the key for a single message. *)
let seal ~key ?(aad = Bytes.empty) ~nonce plaintext =
  let keys = prepare key in
  let len = Bytes.length plaintext in
  let ciphertext = Bytes.create len in
  let tag =
    seal_into keys ~aad ~nonce ~src:plaintext ~src_off:0 ~dst:ciphertext
      ~dst_off:0 ~len ()
  in
  { nonce; ciphertext; tag; aad }

let unseal ~key sealed =
  let keys = prepare key in
  if not (verify_sealed keys sealed) then raise Authentication_failure;
  let len = Bytes.length sealed.ciphertext in
  let plaintext = Bytes.create len in
  decrypt_into keys ~nonce:sealed.nonce ~src:sealed.ciphertext ~src_off:0
    ~dst:plaintext ~dst_off:0 ~len;
  plaintext

let encode sealed =
  let buf = Buffer.create (Bytes.length sealed.ciphertext + 64) in
  List.iter (Codec.put_framed32 buf)
    [ sealed.nonce; sealed.aad; sealed.ciphertext; sealed.tag ];
  Buffer.to_bytes buf

let decode =
  Codec.decode "sealed blob" (fun r ->
      let nonce = Codec.framed32 r "nonce" in
      let aad = Codec.framed32 r "aad" in
      let ciphertext = Codec.framed32 r "ciphertext" in
      let tag = Codec.framed32 r "tag" in
      { nonce; ciphertext; tag; aad })
