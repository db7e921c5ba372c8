(* The Intel SGX baseline model, including the behaviours HyperEnclave is
   contrasted against: EPC paging, controlled-channel visibility, and the
   SGX1 EDMM restriction. *)

open Hyperenclave
module Sgx_model = Sgx.Sgx_model

let fixture ?(epc_bytes = 64 * 4096) ~ecalls ~ocalls () =
  let clock = Cycles.create () in
  let rng = Rng.create ~seed:11L in
  let platform =
    Sgx_model.create_platform ~clock ~cost:Cost_model.default ~rng ~epc_bytes
  in
  let signer, _ = Crypto.Signature.generate rng in
  let enclave =
    Sgx_model.create_enclave platform ~code_seed:"sgx-test" ~signer ~ecalls
      ~ocalls
  in
  (clock, platform, enclave)

let test_ecall_ocall () =
  let clock, _, enclave =
    fixture
      ~ecalls:
        [
          ( 1,
            fun e input ->
              let reply = Sgx_model.ocall e ~id:9 ~data:input () in
              Bytes.cat reply (Bytes.of_string "!") );
        ]
      ~ocalls:[ (9, fun d -> Bytes.cat (Bytes.of_string "<") d) ]
      ()
  in
  let before = Cycles.now clock in
  let reply = Sgx_model.ecall enclave ~id:1 ~data:(Bytes.of_string "hi") () in
  Alcotest.(check string) "roundtrip" "<hi!" (Bytes.to_string reply);
  let cost = Cycles.now clock - before in
  Alcotest.(check bool)
    "charged at least ECALL+OCALL" true
    (cost
    >= Cost_model.default.Cost_model.sgx_ecall
       + Cost_model.default.Cost_model.sgx_ocall);
  (* Reentrancy and ordering rules. *)
  Alcotest.check_raises "ocall outside enclave"
    (Sgx_model.Sgx_error "ocall: not inside the enclave") (fun () ->
      ignore (Sgx_model.ocall enclave ~id:9 ()))

let test_epc_paging () =
  let _, platform, enclave =
    fixture ~epc_bytes:(8 * 4096) ~ecalls:[ (1, fun _ _ -> Bytes.empty) ]
      ~ocalls:[] ()
  in
  for vpn = 0 to 7 do
    Sgx_model.touch_page enclave ~vpn
  done;
  Alcotest.(check int) "EPC filled" 8 (Sgx_model.resident_pages platform);
  Alcotest.(check int) "no swaps yet" 0 (Sgx_model.swap_count platform);
  Sgx_model.touch_page enclave ~vpn:8;
  Alcotest.(check int) "EWB/ELDU pair" 1 (Sgx_model.swap_count platform);
  Alcotest.(check int) "capacity respected" 8 (Sgx_model.resident_pages platform)

let test_controlled_channel () =
  (* The defining SGX weakness (Sec. 6): the OS manages the enclave's page
     tables, so it can unmap a page and observe exactly when the enclave
     touches it. *)
  let _, platform, enclave =
    fixture ~ecalls:[ (1, fun _ _ -> Bytes.empty) ] ~ocalls:[] ()
  in
  Sgx_model.touch_page enclave ~vpn:0x1234;
  Alcotest.(check (list int)) "quiet before probe" []
    (Sgx_model.fault_trace platform);
  Sgx_model.os_unmap_page enclave ~vpn:0x1234;
  Sgx_model.touch_page enclave ~vpn:0x1234;
  Alcotest.(check (list int))
    "the OS observed the secret-dependent access" [ 0x1234 ]
    (Sgx_model.fault_trace platform)

let test_sgx1_no_edmm () =
  let _, _, enclave =
    fixture ~ecalls:[ (1, fun _ _ -> Bytes.empty) ] ~ocalls:[] ()
  in
  try
    Sgx_model.emodpr enclave ~vpn:1;
    Alcotest.fail "expected Unsupported"
  with Sgx_model.Unsupported _ -> ()

let test_exception_two_phase () =
  let _, _, enclave =
    fixture
      ~ecalls:
        [
          ( 1,
            fun e _ ->
              let clock = Sgx_model.clock (Sgx_model.platform_of e) in
              Sgx_model.register_exception_handler e ~vector:"#UD" (fun _ -> true);
              let _, c =
                Cycles.time clock (fun () ->
                    Sgx_model.raise_exception e Sgx_types.Ud)
              in
              Bytes.of_string (string_of_int c) );
        ]
      ~ocalls:[] ()
  in
  let cycles = int_of_string (Bytes.to_string (Sgx_model.ecall enclave ~id:1 ())) in
  (* Table 2's #UD cost: 28,561 on real silicon; the model composes to
     within a few percent. *)
  Alcotest.(check bool)
    (Printf.sprintf "two-phase cost plausible (%d)" cycles)
    true
    (cycles > 25_000 && cycles < 32_000)

let test_sealing () =
  let _, _, enclave =
    fixture
      ~ecalls:[ (1, fun _ _ -> Bytes.empty) ]
      ~ocalls:[] ()
  in
  let blob = Sgx_model.seal enclave (Bytes.of_string "sgx secret") in
  Alcotest.(check string)
    "seal/unseal" "sgx secret"
    (Bytes.to_string (Sgx_model.unseal enclave blob));
  let key_a = Sgx_model.getkey enclave Sgx_types.Seal_key_mrenclave in
  let key_b = Sgx_model.getkey enclave Sgx_types.Seal_key_mrsigner in
  Alcotest.(check bool) "key separation" false (Bytes.equal key_a key_b);
  (* A malformed blob from untrusted storage fails like a forged one. *)
  Alcotest.check_raises "truncated blob" Crypto.Authenc.Authentication_failure
    (fun () -> ignore (Sgx_model.unseal enclave (Bytes.sub blob 0 10)))

let suite =
  [
    Alcotest.test_case "ecall/ocall" `Quick test_ecall_ocall;
    Alcotest.test_case "EPC paging" `Quick test_epc_paging;
    Alcotest.test_case "controlled channel" `Quick test_controlled_channel;
    Alcotest.test_case "SGX1 EDMM restriction" `Quick test_sgx1_no_edmm;
    Alcotest.test_case "two-phase exception cost" `Quick test_exception_two_phase;
    Alcotest.test_case "sealing" `Quick test_sealing;
  ]
