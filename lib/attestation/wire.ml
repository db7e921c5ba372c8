open Hyperenclave_monitor
module Codec = Hyperenclave_hw.Codec
module Tpm = Hyperenclave_tpm.Tpm

(* Length-framed fields: u32 big-endian length + payload.  Composite
   fields nest the same scheme; integers travel as decimal text. *)

let add_framed = Codec.put_framed32
let add_string buf s = add_framed buf (Bytes.of_string s)
let add_int buf n = add_string buf (string_of_int n)
let add_bool buf b = add_string buf (if b then "1" else "0")

let encode_report (r : Sgx_types.report) =
  let buf = Buffer.create 256 in
  add_framed buf r.mrenclave;
  add_framed buf r.mrsigner;
  add_bool buf r.attributes.Sgx_types.debug;
  add_string buf (Sgx_types.mode_name r.attributes.Sgx_types.mode);
  add_int buf r.attributes.Sgx_types.xfrm;
  add_int buf r.isv_prod_id;
  add_int buf r.isv_svn;
  add_framed buf r.report_data;
  add_framed buf r.key_id;
  add_framed buf r.mac;
  Buffer.to_bytes buf

let encode_tpm_quote (q : Tpm.quote) =
  let buf = Buffer.create 256 in
  add_framed buf q.Tpm.pcr_digest;
  add_string buf (String.concat "," (List.map string_of_int q.Tpm.pcr_selection));
  add_framed buf q.Tpm.nonce;
  add_framed buf q.Tpm.signature;
  add_framed buf q.Tpm.aik_public;
  add_framed buf q.Tpm.aik_certificate;
  add_framed buf q.Tpm.ek_public;
  Buffer.to_bytes buf

let encode_event (e : Monitor.boot_event) =
  let buf = Buffer.create 64 in
  add_int buf e.Monitor.pcr_index;
  add_string buf e.Monitor.label;
  add_framed buf e.Monitor.measurement;
  Buffer.to_bytes buf

let encode (q : Monitor.quote) =
  let buf = Buffer.create 1024 in
  add_string buf "HEQ1" (* magic + version *);
  add_framed buf (encode_report q.Monitor.report);
  add_framed buf q.Monitor.ems;
  add_framed buf q.Monitor.hapk;
  add_framed buf (encode_tpm_quote q.Monitor.tpm_quote);
  add_int buf (List.length q.Monitor.events);
  List.iter (fun e -> add_framed buf (encode_event e)) q.Monitor.events;
  Buffer.to_bytes buf

(* --- decoding ------------------------------------------------------------------ *)

let take = Codec.framed32
let take_string r field = Bytes.unsafe_to_string (take r field)

(* Canonical decimal only: [int_of_string] alone also takes "+1", "01",
   "0x1" and "1_", which would give one quote many encodings. *)
let int_of_text field s =
  match int_of_string_opt s with
  | Some n when string_of_int n = s -> n
  | _ -> Codec.fail field "not a canonical integer"

let take_int r field = int_of_text field (take_string r field)

let take_bool r field =
  match take_string r field with
  | "1" -> true
  | "0" -> false
  | _ -> Codec.fail field "not a boolean"

let take_mode r field =
  let name = take_string r field in
  match
    List.find_opt (fun m -> Sgx_types.mode_name m = name) Sgx_types.all_modes
  with
  | Some mode -> mode
  | None -> Codec.fail field ("unknown mode " ^ name)

let decode_report r =
  let mrenclave = take r "mrenclave" in
  let mrsigner = take r "mrsigner" in
  let debug = take_bool r "debug" in
  let mode = take_mode r "mode" in
  let xfrm = take_int r "xfrm" in
  let isv_prod_id = take_int r "isv_prod_id" in
  let isv_svn = take_int r "isv_svn" in
  let report_data = take r "report_data" in
  let key_id = take r "key_id" in
  let mac = take r "mac" in
  { Sgx_types.mrenclave; mrsigner; attributes = { Sgx_types.debug; mode; xfrm };
    isv_prod_id; isv_svn; report_data; key_id; mac }

let decode_tpm_quote r =
  let pcr_digest = take r "pcr_digest" in
  let pcr_selection =
    match take_string r "pcr_selection" with
    | "" -> []
    | s -> List.map (int_of_text "pcr_selection") (String.split_on_char ',' s)
  in
  let nonce = take r "nonce" in
  let signature = take r "signature" in
  let aik_public = take r "aik_public" in
  let aik_certificate = take r "aik_certificate" in
  let ek_public = take r "ek_public" in
  { Tpm.pcr_digest; pcr_selection; nonce; signature; aik_public;
    aik_certificate; ek_public }

let decode_event r =
  let pcr_index = take_int r "pcr_index" in
  let label = take_string r "label" in
  let measurement = take r "measurement" in
  { Monitor.pcr_index; label; measurement }

let decode =
  Codec.decode "quote" (fun r ->
      (match take_string r "magic" with
      | "HEQ1" -> ()
      | other -> Codec.fail "magic" other);
      let report = Codec.nested32 r "report" decode_report in
      let ems = take r "ems" in
      let hapk = take r "hapk" in
      let tpm_quote = Codec.nested32 r "tpm_quote" decode_tpm_quote in
      let n_events = take_int r "event count" in
      if n_events < 0 || n_events > 1024 then
        Codec.fail "event count" "unreasonable";
      let events =
        List.init n_events (fun _ -> Codec.nested32 r "event" decode_event)
      in
      { Monitor.report; ems; hapk; tpm_quote; events })
