(* End-to-end remote attestation: quote generation on one platform,
   verification with golden values, and every failure mode. *)

open Hyperenclave

let nonce = Bytes.of_string "verifier-nonce-1"

let build ?(seed = 4000L) ?(code_seed = "attested-app") () =
  let p = Platform.create ~seed () in
  let handle =
    Urts.create ~kmod:p.Platform.kmod ~proc:p.Platform.proc ~rng:p.Platform.rng
      ~signer:p.Platform.signer
      ~config:{ (Urts.default_config Sgx_types.GU) with Urts.code_seed }
      ~ecalls:[ (1, fun _ _ -> Bytes.empty) ]
      ~ocalls:[]
  in
  let quote = Urts.gen_quote handle ~report_data:(Bytes.of_string "rd") ~nonce in
  (p, handle, quote)

let golden_of (p : Platform.t) =
  Verifier.golden_of_boot_log
    ~ek_public:(Hyperenclave.Tpm.ek_public p.Platform.tpm)
    (Monitor.boot_log p.Platform.monitor)

let policy_for handle =
  {
    Verifier.expected_mrenclave = Some (Urts.mrenclave handle);
    expected_mrsigner = None;
    allow_debug = false;
  }

let expect_ok result =
  match result with
  | Verifier.Ok report -> report
  | Verifier.Error failure ->
      Alcotest.failf "expected Ok, got %a" Verifier.pp_failure failure

let expect_error expected result =
  match result with
  | Verifier.Ok _ -> Alcotest.fail "expected verification failure"
  | Verifier.Error failure ->
      Alcotest.(check string)
        "failure kind"
        (Format.asprintf "%a" Verifier.pp_failure expected)
        (Format.asprintf "%a" Verifier.pp_failure failure)

let test_verify_ok () =
  let p, handle, quote = build () in
  let report =
    expect_ok (Verifier.verify ~golden:(golden_of p) ~policy:(policy_for handle) ~nonce quote)
  in
  Alcotest.(check string)
    "report data survives" "rd"
    (String.sub (Bytes.to_string report.Sgx_types.report_data) 0 2);
  Urts.destroy handle

let test_stale_nonce () =
  let p, handle, quote = build () in
  expect_error Verifier.Stale_nonce
    (Verifier.verify ~golden:(golden_of p) ~policy:(policy_for handle)
       ~nonce:(Bytes.of_string "old-nonce") quote);
  Urts.destroy handle

let test_wrong_ek () =
  let p, handle, quote = build () in
  let clock = Cycles.create () in
  let other_tpm =
    Hyperenclave.Tpm.manufacture ~clock ~cost:Cost_model.default
      ~rng:(Rng.create ~seed:9L)
  in
  let golden =
    {
      (golden_of p) with
      Verifier.ek_public = Hyperenclave.Tpm.ek_public other_tpm;
    }
  in
  expect_error Verifier.Bad_tpm_signature
    (Verifier.verify ~golden ~policy:(policy_for handle) ~nonce quote);
  Urts.destroy handle

let test_tampered_boot_component () =
  (* Platform whose kernel image was modified by an evil maid: same TPM
     identity (same seed), different kernel measurement.  The verifier
     holding the good build's golden values must reject it by name. *)
  let good, good_handle, _ = build ~seed:4001L () in
  let golden = golden_of good in
  let evil = Platform.create ~seed:4001L ~tamper_boot:"kernel" () in
  let evil_handle =
    Urts.create ~kmod:evil.Platform.kmod ~proc:evil.Platform.proc
      ~rng:evil.Platform.rng ~signer:evil.Platform.signer
      ~config:(Urts.default_config Sgx_types.GU)
      ~ecalls:[ (1, fun _ _ -> Bytes.empty) ]
      ~ocalls:[]
  in
  let evil_quote =
    Urts.gen_quote evil_handle ~report_data:(Bytes.of_string "rd") ~nonce
  in
  (match
     Verifier.verify ~golden
       ~policy:
         {
           Verifier.expected_mrenclave = None;
           expected_mrsigner = None;
           allow_debug = false;
         }
       ~nonce evil_quote
   with
  | Verifier.Ok _ -> Alcotest.fail "tampered platform verified"
  | Verifier.Error (Verifier.Boot_component_mismatch name) ->
      Alcotest.(check string) "the kernel is named" "kernel" name
  | Verifier.Error other ->
      Alcotest.failf "expected component mismatch, got %a" Verifier.pp_failure
        other);
  Urts.destroy good_handle;
  Urts.destroy evil_handle

let test_event_log_replay () =
  let p, handle, quote = build () in
  (* Doctoring the event log so it no longer replays to the quoted PCRs. *)
  let doctored =
    {
      quote with
      Monitor.events =
        List.map
          (fun (e : Monitor.boot_event) ->
            if e.Monitor.label = "kernel" then
              { e with Monitor.measurement = Bytes.make 32 'd' }
            else e)
          quote.Monitor.events;
    }
  in
  expect_error Verifier.Event_log_mismatch
    (Verifier.verify ~golden:(golden_of p) ~policy:(policy_for handle) ~nonce
       doctored);
  Urts.destroy handle

let test_forged_ems () =
  let p, handle, quote = build () in
  let forged = { quote with Monitor.ems = Bytes.make 32 'f' } in
  expect_error Verifier.Bad_ems
    (Verifier.verify ~golden:(golden_of p) ~policy:(policy_for handle) ~nonce
       forged);
  Urts.destroy handle

let test_policy_mrenclave () =
  let p, handle, quote = build () in
  let policy =
    {
      Verifier.expected_mrenclave = Some (Bytes.make 32 'x');
      expected_mrsigner = None;
      allow_debug = false;
    }
  in
  expect_error
    (Verifier.Policy_violation "MRENCLAVE mismatch")
    (Verifier.verify ~golden:(golden_of p) ~policy ~nonce quote);
  Urts.destroy handle

let test_policy_mrsigner () =
  let p, handle, quote = build () in
  let enclave = Urts.enclave handle in
  let policy =
    {
      Verifier.expected_mrenclave = None;
      expected_mrsigner = Some enclave.Enclave.mrsigner;
      allow_debug = false;
    }
  in
  ignore (expect_ok (Verifier.verify ~golden:(golden_of p) ~policy ~nonce quote));
  let bad =
    { policy with Verifier.expected_mrsigner = Some (Bytes.make 32 'y') }
  in
  expect_error
    (Verifier.Policy_violation "MRSIGNER mismatch")
    (Verifier.verify ~golden:(golden_of p) ~policy:bad ~nonce quote);
  Urts.destroy handle

let test_debug_policy () =
  let p = Platform.create ~seed:4005L () in
  let handle =
    Urts.create ~kmod:p.Platform.kmod ~proc:p.Platform.proc ~rng:p.Platform.rng
      ~signer:p.Platform.signer
      ~config:{ (Urts.default_config Sgx_types.GU) with Urts.debug = true }
      ~ecalls:[ (1, fun _ _ -> Bytes.empty) ]
      ~ocalls:[]
  in
  let quote = Urts.gen_quote handle ~report_data:Bytes.empty ~nonce in
  let policy =
    {
      Verifier.expected_mrenclave = None;
      expected_mrsigner = None;
      allow_debug = false;
    }
  in
  expect_error
    (Verifier.Policy_violation "debug enclave not allowed")
    (Verifier.verify ~golden:(golden_of p) ~policy ~nonce quote);
  ignore
    (expect_ok
       (Verifier.verify ~golden:(golden_of p)
          ~policy:{ policy with Verifier.allow_debug = true }
          ~nonce quote));
  Urts.destroy handle

let test_wrong_pcr_selection () =
  (* A TPM quote over the wrong PCR set carries a valid AIK signature,
     but replaying the event log cannot reproduce its digest: the
     verifier must name the event log, not the signature. *)
  let p, handle, quote = build ~seed:4020L () in
  let doctored =
    {
      quote with
      Monitor.tpm_quote =
        Hyperenclave.Tpm.quote p.Platform.tpm ~nonce ~pcr_selection:[ 0 ];
    }
  in
  expect_error Verifier.Event_log_mismatch
    (Verifier.verify ~golden:(golden_of p) ~policy:(policy_for handle) ~nonce
       doctored);
  Urts.destroy handle

let foreign_quote seed =
  (* A fully valid quote from a different platform (different monitor
     key pair) — donor material for splicing attacks. *)
  let p = Platform.create ~seed () in
  let handle =
    Urts.create ~kmod:p.Platform.kmod ~proc:p.Platform.proc ~rng:p.Platform.rng
      ~signer:p.Platform.signer
      ~config:(Urts.default_config Sgx_types.GU)
      ~ecalls:[ (1, fun _ _ -> Bytes.empty) ]
      ~ocalls:[]
  in
  let quote = Urts.gen_quote handle ~report_data:(Bytes.of_string "rd") ~nonce in
  Urts.destroy handle;
  quote

let test_ems_from_foreign_hapk () =
  (* The ems is swapped for one signed by another platform's monitor
     key: the signature is internally valid, but not under THIS quote's
     hapk. *)
  let p, handle, quote = build ~seed:4021L () in
  let foreign = foreign_quote 4022L in
  expect_error Verifier.Bad_ems
    (Verifier.verify ~golden:(golden_of p) ~policy:(policy_for handle) ~nonce
       { quote with Monitor.ems = foreign.Monitor.ems });
  Urts.destroy handle

let test_foreign_hapk_and_ems () =
  (* Swapping hapk AND ems together keeps the pair consistent, so the
     ems check alone would pass — the measured-boot binding is what
     must catch it: this hapk was never extended into the quoted PCRs. *)
  let p, handle, quote = build ~seed:4023L () in
  let foreign = foreign_quote 4024L in
  expect_error Verifier.Hapk_not_measured
    (Verifier.verify ~golden:(golden_of p) ~policy:(policy_for handle) ~nonce
       {
         quote with
         Monitor.hapk = foreign.Monitor.hapk;
         Monitor.ems = foreign.Monitor.ems;
       });
  Urts.destroy handle

let test_wire_roundtrip () =
  let p, handle, quote = build ~seed:4010L () in
  let encoded = Quote_wire.encode quote in
  (match Quote_wire.decode encoded with
  | Result.Error m -> Alcotest.fail ("decode failed: " ^ m)
  | Result.Ok decoded ->
      (* The decoded quote must verify exactly like the original. *)
      ignore
        (expect_ok
           (Verifier.verify ~golden:(golden_of p) ~policy:(policy_for handle)
              ~nonce decoded)));
  (* Truncations at every prefix length must be rejected, not crash. *)
  for len = 0 to Bytes.length encoded - 1 do
    match Quote_wire.decode (Bytes.sub encoded 0 len) with
    | Result.Error _ -> ()
    | Result.Ok _ -> Alcotest.failf "truncation to %d bytes accepted" len
  done;
  (* Trailing garbage rejected. *)
  (match Quote_wire.decode (Bytes.cat encoded (Bytes.of_string "x")) with
  | Result.Error _ -> ()
  | Result.Ok _ -> Alcotest.fail "trailing bytes accepted");
  Urts.destroy handle

(* Re-frame the report's [isv_svn] field (the 7th inside the report,
   which follows the framed magic) as [text], fixing up the report's
   length word. *)
let reframe_isv_svn encoded text =
  let field_end off = off + 4 + Int32.to_int (Bytes.get_int32_be encoded off) in
  let report = 8 in
  let start = ref (report + 4) in
  for _ = 1 to 6 do start := field_end !start done;
  let stop = field_end !start in
  let field = Bytes.create (4 + String.length text) in
  Bytes.set_int32_be field 0 (Int32.of_int (String.length text));
  Bytes.blit_string text 0 field 4 (String.length text);
  let out =
    Bytes.concat Bytes.empty
      [ Bytes.sub encoded 0 !start; field;
        Bytes.sub encoded stop (Bytes.length encoded - stop) ]
  in
  let delta = Bytes.length out - Bytes.length encoded in
  Bytes.set_int32_be out report
    (Int32.add (Bytes.get_int32_be encoded report) (Int32.of_int delta));
  out

let test_wire_integers_canonical () =
  let _, handle, quote = build ~seed:4012L () in
  let encoded = Quote_wire.encode quote in
  let svn = string_of_int quote.Monitor.report.Sgx_types.isv_svn in
  Alcotest.(check bool)
    "canonical re-frame is the identity" true
    (Bytes.equal (reframe_isv_svn encoded svn) encoded);
  List.iter
    (fun text ->
      match Quote_wire.decode (reframe_isv_svn encoded text) with
      | Result.Error _ -> ()
      | Result.Ok _ -> Alcotest.failf "isv_svn %S accepted" text)
    [ "+" ^ svn; "0" ^ svn; "0x" ^ svn; svn ^ "_" ];
  Urts.destroy handle

let test_wire_bitflips_never_verify () =
  let p, handle, quote = build ~seed:4011L () in
  let golden = golden_of p in
  let policy = policy_for handle in
  let encoded = Quote_wire.encode quote in
  let rng = Rng.create ~seed:4242L in
  let flips_verified = ref 0 in
  for _ = 1 to 200 do
    let copy = Bytes.copy encoded in
    let i = Rng.int rng (Bytes.length copy) in
    Bytes.set copy i (Char.chr (Char.code (Bytes.get copy i) lxor (1 lsl Rng.int rng 8)));
    match Quote_wire.decode copy with
    | Result.Error _ -> ()
    | Result.Ok doctored -> (
        match Verifier.verify ~golden ~policy ~nonce doctored with
        | Verifier.Error _ -> ()
        | Verifier.Ok report ->
            (* A flip may land in fields the remote chain deliberately
               ignores (the local-attestation MAC, the advisory PCR-index
               list).  What must never happen is a verifying quote whose
               security-relevant content changed. *)
            let security_intact =
              Bytes.equal report.Sgx_types.mrenclave
                quote.Monitor.report.Sgx_types.mrenclave
              && Bytes.equal report.Sgx_types.mrsigner
                   quote.Monitor.report.Sgx_types.mrsigner
              && Bytes.equal report.Sgx_types.report_data
                   quote.Monitor.report.Sgx_types.report_data
              && Bytes.equal doctored.Monitor.hapk quote.Monitor.hapk
              && Bytes.equal doctored.Monitor.tpm_quote.Tpm.pcr_digest
                   quote.Monitor.tpm_quote.Tpm.pcr_digest
            in
            if not security_intact then incr flips_verified)
  done;
  Alcotest.(check int)
    "no flip alters security-relevant content and still verifies" 0
    !flips_verified;
  Urts.destroy handle

let suite =
  [
    Alcotest.test_case "wire roundtrip" `Quick test_wire_roundtrip;
    Alcotest.test_case "wire integers canonical" `Quick
      test_wire_integers_canonical;
    Alcotest.test_case "wire bitflips never verify" `Quick
      test_wire_bitflips_never_verify;
    Alcotest.test_case "verify ok" `Quick test_verify_ok;
    Alcotest.test_case "stale nonce" `Quick test_stale_nonce;
    Alcotest.test_case "wrong EK" `Quick test_wrong_ek;
    Alcotest.test_case "tampered boot component" `Quick test_tampered_boot_component;
    Alcotest.test_case "event log replay" `Quick test_event_log_replay;
    Alcotest.test_case "wrong PCR selection" `Quick test_wrong_pcr_selection;
    Alcotest.test_case "forged ems" `Quick test_forged_ems;
    Alcotest.test_case "ems from foreign hapk" `Quick test_ems_from_foreign_hapk;
    Alcotest.test_case "foreign hapk and ems spliced" `Quick
      test_foreign_hapk_and_ems;
    Alcotest.test_case "policy mrenclave" `Quick test_policy_mrenclave;
    Alcotest.test_case "policy mrsigner" `Quick test_policy_mrsigner;
    Alcotest.test_case "debug policy" `Quick test_debug_policy;
  ]
