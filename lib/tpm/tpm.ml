open Hyperenclave_hw
open Hyperenclave_crypto

type t = {
  pcrs : Pcr.t;
  ek_private : Signature.private_key;
  ek_public : Signature.public_key;
  aik_private : Signature.private_key;
  aik_public : Signature.public_key;
  aik_certificate : bytes;
  storage_key : bytes; (* chip-internal symmetric root for sealing *)
  rng : Rng.t;
  clock : Cycles.t;
  cost : Cost_model.t;
  counters : (string, int) Hashtbl.t; (* NV monotonic counters *)
}

type quote = {
  pcr_digest : bytes;
  pcr_selection : int list;
  nonce : bytes;
  signature : bytes;
  aik_public : Signature.public_key;
  aik_certificate : bytes;
  ek_public : Signature.public_key;
}

exception Unseal_failed of string

let charge t = Cycles.tick t.clock t.cost.Cost_model.tpm_command

let manufacture ~clock ~cost ~rng =
  let ek_private, ek_public = Signature.generate rng in
  let aik_private, aik_public = Signature.generate rng in
  let aik_certificate =
    Signature.sign ek_private
      (Bytes.cat (Bytes.of_string "tpm-aik-cert:") aik_public)
  in
  {
    pcrs = Pcr.create ();
    ek_private;
    ek_public;
    aik_private;
    aik_public;
    aik_certificate;
    storage_key = Rng.bytes rng 32;
    rng;
    clock;
    cost;
    counters = Hashtbl.create 4;
  }

let startup t =
  charge t;
  Pcr.reset t.pcrs

let pcrs t = t.pcrs

let pcr_extend t ~index m =
  charge t;
  Pcr.extend t.pcrs ~index m

let extend_measurement t ~index blob =
  let measurement = Sha256.digest_bytes blob in
  pcr_extend t ~index measurement;
  measurement

let quote_body ~pcr_digest ~nonce =
  let buf = Buffer.create 80 in
  Buffer.add_string buf "tpm-quote:";
  Buffer.add_bytes buf pcr_digest;
  Buffer.add_bytes buf nonce;
  Buffer.to_bytes buf

(* TPM commands travel over a slow, lossy bus in real deployments; the
   fault sites fire before the chip mutates anything, so a retried
   command observes the same PCR state. *)
let quote t ~nonce ~pcr_selection =
  Hyperenclave_fault.Fault.point "tpm.quote";
  charge t;
  let pcr_digest = Pcr.selection_digest t.pcrs ~indices:pcr_selection in
  let signature = Signature.sign t.aik_private (quote_body ~pcr_digest ~nonce) in
  {
    pcr_digest;
    pcr_selection;
    nonce;
    signature;
    aik_public = t.aik_public;
    aik_certificate = t.aik_certificate;
    ek_public = t.ek_public;
  }

let verify_quote q ~expected_ek =
  Sha256.equal q.ek_public expected_ek
  && Signature.verify q.ek_public
       (Bytes.cat (Bytes.of_string "tpm-aik-cert:") q.aik_public)
       ~signature:q.aik_certificate
  && Signature.verify q.aik_public
       (quote_body ~pcr_digest:q.pcr_digest ~nonce:q.nonce)
       ~signature:q.signature

let random t n =
  charge t;
  Rng.bytes t.rng n

(* Sealed-blob AAD carries the policy (selection + digest at seal time) so
   unseal can re-check it against the live PCRs. *)
let encode_policy ~pcr_selection ~policy_digest =
  let buf = Buffer.create 64 in
  Buffer.add_char buf (Char.chr (List.length pcr_selection));
  List.iter (fun i -> Buffer.add_char buf (Char.chr i)) pcr_selection;
  Buffer.add_bytes buf policy_digest;
  Buffer.to_bytes buf

let decode_policy =
  Codec.decode "policy" (fun r ->
      let n = Codec.uint8 r "selection count" in
      let selection = List.init n (fun _ -> Codec.uint8 r "PCR index") in
      (selection, Codec.take r Sha256.digest_size "digest"))

let seal t ~pcr_selection data =
  Hyperenclave_fault.Fault.point "tpm.seal";
  charge t;
  let policy_digest = Pcr.selection_digest t.pcrs ~indices:pcr_selection in
  let aad = encode_policy ~pcr_selection ~policy_digest in
  let nonce = Rng.bytes t.rng 12 in
  Authenc.encode (Authenc.seal ~key:t.storage_key ~aad ~nonce data)

let unseal t blob =
  Hyperenclave_fault.Fault.point "tpm.unseal";
  charge t;
  let fail_on = function Ok v -> v | Error m -> raise (Unseal_failed m) in
  let sealed = fail_on (Authenc.decode blob) in
  let selection, sealed_digest = fail_on (decode_policy sealed.Authenc.aad) in
  let current = Pcr.selection_digest t.pcrs ~indices:selection in
  if not (Sha256.equal current sealed_digest) then
    raise (Unseal_failed "PCR policy mismatch");
  try Authenc.unseal ~key:t.storage_key sealed
  with Authenc.Authentication_failure ->
    raise (Unseal_failed "authentication failure (wrong chip?)")

let ek_public (t : t) = t.ek_public

let counter_create t ~name =
  charge t;
  if not (Hashtbl.mem t.counters name) then Hashtbl.replace t.counters name 0

let counter_read t ~name =
  charge t;
  match Hashtbl.find_opt t.counters name with
  | Some v -> v
  | None -> raise Not_found

let counter_increment t ~name =
  charge t;
  match Hashtbl.find_opt t.counters name with
  | Some v ->
      Hashtbl.replace t.counters name (v + 1);
      v + 1
  | None -> raise Not_found
