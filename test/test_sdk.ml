(* The SGX-compatible SDK: loader, edge calls, sealing, exceptions,
   in-enclave services. *)

open Hyperenclave

let fixture ?(mode = Sgx_types.GU) ?(seed = 3000L) ~ecalls ~ocalls () =
  let p = Platform.create ~seed () in
  let handle =
    Urts.create ~kmod:p.Platform.kmod ~proc:p.Platform.proc ~rng:p.Platform.rng
      ~signer:p.Platform.signer
      ~config:(Urts.default_config mode)
      ~ecalls ~ocalls
  in
  (p, handle)

let test_ecall_roundtrip () =
  let _, handle =
    fixture
      ~ecalls:
        [
          ( 1,
            fun (_ : Tenv.t) input ->
              Bytes.of_string (String.uppercase_ascii (Bytes.to_string input)) );
        ]
      ~ocalls:[] ()
  in
  let reply =
    Urts.ecall handle ~id:1 ~data:(Bytes.of_string "payload") ~direction:Edge.In_out ()
  in
  Alcotest.(check string) "data through ms buffer" "PAYLOAD" (Bytes.to_string reply);
  Alcotest.check_raises "unknown ecall" (Urts.Enclave_error "unknown ECALL 99")
    (fun () -> ignore (Urts.ecall handle ~id:99 ~direction:Edge.In ()));
  Urts.destroy handle

let test_ocall_roundtrip () =
  let _, handle =
    fixture
      ~ecalls:
        [
          ( 1,
            fun (tenv : Tenv.t) input ->
              let reply = tenv.Tenv.ocall ~id:7 ~data:input Edge.In_out in
              Bytes.cat reply (Bytes.of_string "!") );
        ]
      ~ocalls:[ (7, fun data -> Bytes.cat (Bytes.of_string "echo:") data) ]
      ()
  in
  let reply =
    Urts.ecall handle ~id:1 ~data:(Bytes.of_string "ping") ~direction:Edge.In_out ()
  in
  Alcotest.(check string) "nested ocall" "echo:ping!" (Bytes.to_string reply);
  let stats = Urts.stats handle in
  Alcotest.(check int) "ecall count" 1 stats.Enclave.ecalls;
  Alcotest.(check int) "ocall count" 1 stats.Enclave.ocalls;
  Urts.destroy handle

let test_heap_and_memory () =
  let _, handle =
    fixture
      ~ecalls:
        [
          ( 1,
            fun (tenv : Tenv.t) _ ->
              let a = tenv.Tenv.malloc 100 in
              let b = tenv.Tenv.malloc 100 in
              Alcotest.(check bool) "allocations disjoint" true (b >= a + 100);
              tenv.Tenv.write ~va:a (Bytes.of_string "in-enclave heap");
              tenv.Tenv.read ~va:a ~len:15 );
        ]
      ~ocalls:[] ()
  in
  Alcotest.(check string)
    "heap rw" "in-enclave heap"
    (Bytes.to_string (Urts.ecall handle ~id:1 ~direction:Edge.Out ()));
  Urts.destroy handle

let test_sealing () =
  let _, handle =
    fixture
      ~ecalls:
        [
          (1, fun (tenv : Tenv.t) input -> tenv.Tenv.seal input);
          (2, fun (tenv : Tenv.t) blob -> tenv.Tenv.unseal blob);
        ]
      ~ocalls:[] ()
  in
  let blob =
    Urts.ecall handle ~id:1 ~data:(Bytes.of_string "database key")
      ~direction:Edge.In_out ()
  in
  Alcotest.(check bool)
    "ciphertext differs" false
    (Bytes.equal blob (Bytes.of_string "database key"));
  Alcotest.(check string)
    "unseal roundtrip" "database key"
    (Bytes.to_string (Urts.ecall handle ~id:2 ~data:blob ~direction:Edge.In_out ()));
  Urts.destroy handle

let test_unseal_malformed_blob () =
  (* Blobs come back from untrusted storage: a truncated one must fail
     the way a forged one does, not escape as [Invalid_argument]. *)
  let _, handle =
    fixture
      ~ecalls:
        [
          (1, fun (tenv : Tenv.t) input -> tenv.Tenv.seal input);
          (2, fun (tenv : Tenv.t) blob -> tenv.Tenv.unseal blob);
          (3, fun (tenv : Tenv.t) blob -> tenv.Tenv.unseal_versioned blob);
        ]
      ~ocalls:[] ()
  in
  let blob =
    Urts.ecall handle ~id:1 ~data:(Bytes.of_string "database key")
      ~direction:Edge.In_out ()
  in
  List.iter
    (fun (id, len) ->
      Alcotest.check_raises
        (Printf.sprintf "ecall %d, %d-byte prefix" id len)
        Crypto.Authenc.Authentication_failure (fun () ->
          ignore
            (Urts.ecall handle ~id ~data:(Bytes.sub blob 0 len)
               ~direction:Edge.In_out ())))
    [ (2, 0); (2, 10); (2, Bytes.length blob - 1); (3, 10) ];
  Urts.destroy handle

let test_sealing_bound_to_mrenclave () =
  (* A different enclave (different code identity) cannot unseal. *)
  let p = Platform.create ~seed:3001L () in
  let make seed_name =
    Urts.create ~kmod:p.Platform.kmod ~proc:p.Platform.proc ~rng:p.Platform.rng
      ~signer:p.Platform.signer
      ~config:{ (Urts.default_config Sgx_types.GU) with Urts.code_seed = seed_name }
      ~ecalls:
        [
          (1, fun (tenv : Tenv.t) input -> tenv.Tenv.seal input);
          (2, fun (tenv : Tenv.t) blob -> tenv.Tenv.unseal blob);
        ]
      ~ocalls:[]
  in
  let a = make "app-A" and b = make "app-B" in
  let blob =
    Urts.ecall a ~id:1 ~data:(Bytes.of_string "secret") ~direction:Edge.In_out ()
  in
  Alcotest.(check string)
    "same enclave unseals" "secret"
    (Bytes.to_string (Urts.ecall a ~id:2 ~data:blob ~direction:Edge.In_out ()));
  (try
     ignore (Urts.ecall b ~id:2 ~data:blob ~direction:Edge.In_out ());
     Alcotest.fail "expected unseal failure in foreign enclave"
   with Crypto.Authenc.Authentication_failure -> ());
  Urts.destroy a;
  Urts.destroy b

let run_exception_test mode =
  let fired = ref 0 in
  let _, handle =
    fixture ~mode
      ~ecalls:
        [
          ( 1,
            fun (tenv : Tenv.t) _ ->
              tenv.Tenv.register_exception_handler ~vector:"#UD" (fun _ ->
                  incr fired;
                  true);
              tenv.Tenv.raise_exception Sgx_types.Ud;
              tenv.Tenv.raise_exception Sgx_types.Ud;
              Bytes.of_string "survived" );
        ]
      ~ocalls:[] ()
  in
  let reply = Urts.ecall handle ~id:1 ~direction:Edge.Out () in
  Alcotest.(check string) "execution continued" "survived" (Bytes.to_string reply);
  Alcotest.(check int) "handler fired twice" 2 !fired;
  let stats = Urts.stats handle in
  Urts.destroy handle;
  stats

let test_exceptions_two_phase () =
  let stats = run_exception_test Sgx_types.GU in
  (* GU: each #UD goes out through an AEX. *)
  Alcotest.(check bool) "AEXes happened" true (stats.Enclave.aexs >= 2);
  Alcotest.(check int) "no in-enclave delivery" 0
    stats.Enclave.in_enclave_exceptions

let test_exceptions_in_enclave () =
  let stats = run_exception_test Sgx_types.P in
  Alcotest.(check int) "delivered in-enclave" 2
    stats.Enclave.in_enclave_exceptions;
  Alcotest.(check int) "no AEX" 0 stats.Enclave.aexs

let test_gc_page_permissions () =
  List.iter
    (fun mode ->
      let restored = ref 0 in
      let _, handle =
        fixture ~mode
          ~ecalls:
            [
              ( 1,
                fun (tenv : Tenv.t) _ ->
                  let buf = tenv.Tenv.malloc 4096 in
                  tenv.Tenv.write ~va:buf (Bytes.of_string "init");
                  tenv.Tenv.register_exception_handler ~vector:"#PF"
                    (fun vector ->
                      match vector with
                      | Sgx_types.Pf { va; _ } ->
                          incr restored;
                          tenv.Tenv.set_page_perms ~vpn:(va / 4096)
                            ~perms:Page_table.rw ~grant:true;
                          true
                      | _ -> false);
                  tenv.Tenv.set_page_perms ~vpn:(buf / 4096)
                    ~perms:Page_table.ro ~grant:false;
                  tenv.Tenv.write ~va:buf (Bytes.of_string "after fault");
                  tenv.Tenv.read ~va:buf ~len:11 );
            ]
          ~ocalls:[] ()
      in
      let reply = Urts.ecall handle ~id:1 ~direction:Edge.Out () in
      Alcotest.(check string)
        (Sgx_types.mode_name mode ^ " GC write landed")
        "after fault" (Bytes.to_string reply);
      Alcotest.(check int) "one fault" 1 !restored;
      Urts.destroy handle)
    [ Sgx_types.GU; Sgx_types.P ]

let test_ms_window_user_check () =
  (* user_check-style direct marshalling-buffer access from both sides. *)
  let p, handle =
    fixture
      ~ecalls:
        [
          ( 1,
            fun (tenv : Tenv.t) _ ->
              let data = tenv.Tenv.ms_read ~off:1024 ~len:5 in
              tenv.Tenv.ms_write ~off:2048 (Bytes.map Char.uppercase_ascii data);
              Bytes.empty );
        ]
      ~ocalls:[] ()
  in
  ignore p;
  (* The app cannot see tenv, but the test can seed the buffer through the
     enclave's own window on a previous call; here we just verify the
     window is readable and writable and stays inside R-2. *)
  ignore (Urts.ecall handle ~id:1 ~direction:Edge.In ());
  Urts.destroy handle

let test_report_quote_api () =
  let _, handle =
    fixture
      ~ecalls:
        [
          ( 1,
            fun (tenv : Tenv.t) data ->
              let report = tenv.Tenv.report ~report_data:data in
              report.Sgx_types.report_data );
        ]
      ~ocalls:[] ()
  in
  let reply =
    Urts.ecall handle ~id:1 ~data:(Bytes.of_string "nonce-xyz")
      ~direction:Edge.In_out ()
  in
  Alcotest.(check string)
    "report data embedded" "nonce-xyz"
    (String.sub (Bytes.to_string reply) 0 9);
  let quote = Urts.gen_quote handle ~report_data:(Bytes.of_string "q") ~nonce:(Bytes.of_string "n") in
  Alcotest.(check bool)
    "quote carries hapk" true
    (Bytes.length quote.Monitor.hapk = 32);
  Urts.destroy handle

let test_no_free_tcs () =
  let _, handle =
    fixture
      ~ecalls:
        [ (1, fun (tenv : Tenv.t) _ -> ignore (tenv.Tenv.ocall ~id:9 Edge.In); Bytes.empty) ]
      ~ocalls:[ (9, fun _ -> Bytes.empty) ]
      ()
  in
  (* Exhaust both TCS from outside while the enclave is idle. *)
  let enclave = Urts.enclave handle in
  List.iter (fun (tcs : Sgx_types.tcs) -> tcs.Sgx_types.busy <- true)
    enclave.Enclave.tcs_list;
  (try
     ignore (Urts.ecall handle ~id:1 ~direction:Edge.In ());
     Alcotest.fail "expected no-free-TCS failure"
   with Urts.Enclave_error m ->
     Alcotest.(check bool) "typed TCS-busy error"
       true
       (String.length m >= 8 && String.sub m 0 8 = "TCS busy"));
  List.iter (fun (tcs : Sgx_types.tcs) -> tcs.Sgx_types.busy <- false)
    enclave.Enclave.tcs_list;
  ignore (Urts.ecall handle ~id:1 ~direction:Edge.In ());
  Urts.destroy handle

(* --- ms-region split offsets (PR 4 regression) --------------------------- *)

(* The input/output/ocalloc split used to be recomputed per call with
   truncating division, so an ms_bytes that doesn't divide evenly put
   the boundaries mid-page and the regions disagreed call to call.  Now
   the splits are rounded up to page boundaries once at build time:
   with ms_bytes = 5 pages the input region is exactly 3 pages (12288
   bytes), not the truncated 10240. *)
let test_ms_split_page_aligned () =
  let p = Platform.create ~seed:3010L () in
  let handle =
    Urts.create ~kmod:p.Platform.kmod ~proc:p.Platform.proc ~rng:p.Platform.rng
      ~signer:p.Platform.signer
      ~config:
        { (Urts.default_config Sgx_types.GU) with Urts.ms_bytes = 5 * 4096 }
      ~ecalls:
        [
          (1, fun (_ : Tenv.t) input -> Bytes.of_string
                 (string_of_int (Bytes.length input)));
          (2, fun (_ : Tenv.t) input ->
                 (* reply sized by the caller: output-boundary probe *)
                 Bytes.make (int_of_string (Bytes.to_string input)) 'o');
        ]
      ~ocalls:[]
  in
  (* Exactly at the aligned input boundary: 3 pages fits... *)
  let at_boundary =
    Urts.ecall handle ~id:1 ~data:(Bytes.make 12288 'i') ~direction:Edge.In ()
  in
  Alcotest.(check string) "input of exactly 3 pages accepted" "12288"
    (Bytes.to_string at_boundary);
  (* ...and one byte past is a typed refusal, not a silent spill into
     the output region. *)
  (try
     ignore
       (Urts.ecall handle ~id:1 ~data:(Bytes.make 12289 'i') ~direction:Edge.In ());
     Alcotest.fail "input past the split accepted"
   with Urts.Enclave_error _ -> ());
  (* Output region is one page (pages 3..4): exactly 4096 fits, 4097
     refused. *)
  let out =
    Urts.ecall handle ~id:2 ~data:(Bytes.of_string "4096") ~direction:Edge.In_out ()
  in
  Alcotest.(check int) "output of exactly one page" 4096 (Bytes.length out);
  (try
     ignore
       (Urts.ecall handle ~id:2 ~data:(Bytes.of_string "4097")
          ~direction:Edge.In_out ());
     Alcotest.fail "output past the split accepted"
   with Urts.Enclave_error _ -> ());
  Urts.destroy handle

let test_ms_bytes_validated () =
  let p = Platform.create ~seed:3011L () in
  let make ms_bytes =
    Urts.create ~kmod:p.Platform.kmod ~proc:p.Platform.proc ~rng:p.Platform.rng
      ~signer:p.Platform.signer
      ~config:{ (Urts.default_config Sgx_types.GU) with Urts.ms_bytes }
      ~ecalls:[ (1, fun _ input -> input) ]
      ~ocalls:[]
  in
  (try
     ignore (make (4 * 4096 + 100));
     Alcotest.fail "unaligned ms_bytes accepted"
   with Urts.Enclave_error _ -> ());
  (try
     ignore (make (2 * 4096));
     Alcotest.fail "too-small ms_bytes accepted"
   with Urts.Enclave_error _ -> ());
  let ok = make (4 * 4096) in
  ignore (Urts.ecall ok ~id:1 ~data:(Bytes.of_string "x") ~direction:Edge.In_out ());
  Urts.destroy ok

(* --- re-entrant ECALL from an OCALL handler (PR 4 regression) ------------ *)

(* The old path re-entered on whatever TCS was "free", which could be
   the parked one — clobbering the suspended thread's SSA.  Now the TCS
   parked on an OCALL is reserved: a nested ECALL takes a different TCS
   or gets a typed TCS-busy refusal. *)
let test_nested_ecall_in_ocall () =
  let handle_ref = ref None in
  let _, handle =
    fixture
      ~ecalls:
        [
          ( 1,
            fun (tenv : Tenv.t) input ->
              (* Outer ECALL: go out through an OCALL and come back. *)
              let nested = tenv.Tenv.ocall ~id:9 ~data:input Edge.In_out in
              Bytes.cat (Bytes.of_string "outer:") nested );
          (2, fun (_ : Tenv.t) input -> Bytes.cat (Bytes.of_string "inner:") input);
        ]
      ~ocalls:
        [
          ( 9,
            fun data ->
              (* Re-entrant ECALL from inside the OCALL handler: must run
                 on a TCS other than the parked one. *)
              let h = Option.get !handle_ref in
              Urts.ecall h ~id:2 ~data ~direction:Edge.In_out () );
        ]
      ()
  in
  handle_ref := Some handle;
  let reply =
    Urts.ecall handle ~id:1 ~data:(Bytes.of_string "go") ~direction:Edge.In_out ()
  in
  Alcotest.(check string)
    "nested ECALL ran on a second TCS" "outer:inner:go" (Bytes.to_string reply);
  (* All TCSs released afterwards. *)
  Alcotest.(check int) "both TCS free again" 2 (Urts.free_tcs_count handle);
  Urts.destroy handle

let test_nested_ecall_exhaustion_is_typed () =
  (* Depth 2 of nesting on a 2-TCS enclave: the innermost re-entry finds
     the pool exhausted (one TCS parked on each OCALL frame) and must be
     refused with a typed TCS-busy error — while the outer call still
     completes once the handler turns that refusal into a reply. *)
  let handle_ref = ref None in
  let ocall_9 _ =
    (* depth 1: the nested ECALL takes the second (last free) TCS *)
    Urts.ecall (Option.get !handle_ref) ~id:2 ~direction:Edge.Out ()
  in
  let ocall_10 _ =
    (* depth 2: no TCS left — expect the typed refusal right here *)
    try
      ignore (Urts.ecall (Option.get !handle_ref) ~id:3 ~direction:Edge.Out ());
      Bytes.of_string "UNEXPECTED-ENTRY"
    with Urts.Enclave_error m
      when String.length m >= 8 && String.sub m 0 8 = "TCS busy" ->
        Bytes.of_string "refused"
  in
  let _, handle =
    fixture ~seed:3012L
      ~ecalls:
        [
          ( 1,
            fun (tenv : Tenv.t) _ ->
              tenv.Tenv.ocall ~id:9 ~data:(Bytes.of_string "d1") Edge.In_out );
          ( 2,
            fun (tenv : Tenv.t) _ ->
              tenv.Tenv.ocall ~id:10 ~data:(Bytes.of_string "d2") Edge.In_out );
          (3, fun (_ : Tenv.t) _ -> Bytes.of_string "deepest");
        ]
      ~ocalls:[ (9, ocall_9); (10, ocall_10) ]
      ()
  in
  handle_ref := Some handle;
  let reply = Urts.ecall handle ~id:1 ~direction:Edge.Out () in
  Alcotest.(check string)
    "inner refusal typed, outer completed" "refused" (Bytes.to_string reply);
  Alcotest.(check int) "all TCS released" 2 (Urts.free_tcs_count handle);
  Urts.destroy handle

let test_code_identity_changes_measurement () =
  let p = Platform.create ~seed:3002L () in
  let make seed_name =
    let handle =
      Urts.create ~kmod:p.Platform.kmod ~proc:p.Platform.proc ~rng:p.Platform.rng
        ~signer:p.Platform.signer
        ~config:{ (Urts.default_config Sgx_types.GU) with Urts.code_seed = seed_name }
        ~ecalls:[ (1, fun _ _ -> Bytes.empty) ]
        ~ocalls:[]
    in
    let mr = Urts.mrenclave handle in
    Urts.destroy handle;
    mr
  in
  Alcotest.(check bool)
    "different code, different MRENCLAVE" false
    (Bytes.equal (make "version-1") (make "version-2"));
  Alcotest.(check bool)
    "same code, same MRENCLAVE" true
    (Bytes.equal (make "version-1") (make "version-1"))

let test_interrupt_guard () =
  let alarms = ref (-1) in
  let _, handle =
    fixture ~mode:Sgx_types.P
      ~ecalls:
        [
          ( 1,
            fun (tenv : Tenv.t) _ ->
              tenv.Tenv.arm_interrupt_guard ~window_cycles:5_000_000 ~threshold:20;
              (* Benign phase: timer-rate interrupts between real work. *)
              for _ = 1 to 10 do
                tenv.Tenv.compute 1_000_000;
                tenv.Tenv.interrupt_now ()
              done;
              let benign_alarms = tenv.Tenv.interrupt_alarms () in
              (* Attack phase: SGX-Step-style interrupt storm. *)
              for _ = 1 to 200 do
                tenv.Tenv.compute 500;
                tenv.Tenv.interrupt_now ()
              done;
              alarms := tenv.Tenv.interrupt_alarms ();
              Alcotest.(check int) "no alarm at benign rates" 0 benign_alarms;
              Bytes.empty );
        ]
      ~ocalls:[] ()
  in
  ignore (Urts.ecall handle ~id:1 ~direction:Edge.In ());
  Alcotest.(check bool)
    (Printf.sprintf "storm detected (%d alarms)" !alarms)
    true (!alarms >= 1);
  Urts.destroy handle

let test_interrupt_guard_p_only () =
  let _, handle =
    fixture ~mode:Sgx_types.GU
      ~ecalls:
        [
          ( 1,
            fun (tenv : Tenv.t) _ ->
              (try
                 tenv.Tenv.arm_interrupt_guard ~window_cycles:1000 ~threshold:1;
                 Alcotest.fail "GU must not arm the guard"
               with Monitor.Security_violation _ -> ());
              Bytes.empty );
        ]
      ~ocalls:[] ()
  in
  ignore (Urts.ecall handle ~id:1 ~direction:Edge.In ());
  Urts.destroy handle

let test_switchless_ocall () =
  let costs = ref (0, 0) in
  let _, handle =
    fixture
      ~ecalls:
        [
          ( 1,
            fun (tenv : Tenv.t) input ->
              let r1, regular =
                Cycles.time tenv.Tenv.clock (fun () ->
                    tenv.Tenv.ocall ~id:7 ~data:input Edge.In_out)
              in
              let r2, switchless =
                Cycles.time tenv.Tenv.clock (fun () ->
                    tenv.Tenv.ocall_switchless ~id:7 ~data:input ())
              in
              Alcotest.(check string)
                "same result either way" (Bytes.to_string r1) (Bytes.to_string r2);
              costs := (regular, switchless);
              r2 );
        ]
      ~ocalls:[ (7, fun data -> Bytes.cat (Bytes.of_string ">") data) ]
      ()
  in
  let reply =
    Urts.ecall handle ~id:1 ~data:(Bytes.of_string "io") ~direction:Edge.In_out ()
  in
  Alcotest.(check string) "reply" ">io" (Bytes.to_string reply);
  let regular, switchless = !costs in
  Alcotest.(check bool)
    (Printf.sprintf "switchless (%d) at least 2x cheaper than regular (%d)"
       switchless regular)
    true
    (switchless * 2 < regular);
  Alcotest.(check int) "both counted as ocalls" 2 (Urts.stats handle).Enclave.ocalls;
  Urts.destroy handle

let test_ocall_ring_semantics () =
  let p, handle =
    fixture
      ~ecalls:
        [
          ( 1,
            fun (tenv : Tenv.t) _ ->
              let replies =
                tenv.Tenv.ocall_ring
                  ~reqs:
                    [
                      (7, Bytes.of_string "aa");
                      (8, Bytes.of_string "xy");
                      (7, Bytes.of_string "bb");
                    ]
                  ()
              in
              Bytes.of_string
                (String.concat "|" (List.map Bytes.to_string replies)) );
        ]
      ~ocalls:
        [
          (7, fun data -> Bytes.cat (Bytes.of_string ">") data);
          (8, fun data -> Bytes.cat data data);
        ]
      ()
  in
  let reply =
    Urts.ecall handle ~id:1 ~data:Bytes.empty ~direction:Edge.In_out ()
  in
  Alcotest.(check string)
    "replies in request order" ">aa|xyxy|>bb" (Bytes.to_string reply);
  let telemetry = Monitor.telemetry p.Platform.monitor in
  Alcotest.(check int)
    "one ring dispatch" 1
    (Telemetry.counter telemetry "sdk.ocall_ring");
  Alcotest.(check int)
    "three ringed ocalls" 3
    (Telemetry.counter telemetry "sdk.ocall_ringed");
  Alcotest.(check int)
    "all counted as ocalls" 3 (Urts.stats handle).Enclave.ocalls;
  Urts.destroy handle

let test_ocall_ring_errors () =
  let _, handle =
    fixture
      ~ecalls:
        [
          ( 1,
            fun (tenv : Tenv.t) _ ->
              let too_many =
                List.init (Urts.max_batch + 1) (fun _ -> (7, Bytes.empty))
              in
              (try
                 ignore (tenv.Tenv.ocall_ring ~reqs:too_many ());
                 Alcotest.fail "oversized reply ring accepted"
               with Urts.Enclave_error _ -> ());
              (try
                 ignore (tenv.Tenv.ocall_ring ~reqs:[ (99, Bytes.empty) ] ());
                 Alcotest.fail "unknown ocall id accepted"
               with Urts.Enclave_error _ -> ());
              Alcotest.(check (list string))
                "empty ring" []
                (List.map Bytes.to_string (tenv.Tenv.ocall_ring ~reqs:[] ()));
              Bytes.of_string "ok" );
        ]
      ~ocalls:[ (7, fun data -> data) ]
      ()
  in
  Alcotest.(check string)
    "enclave survived the refusals" "ok"
    (Bytes.to_string
       (Urts.ecall handle ~id:1 ~data:Bytes.empty ~direction:Edge.In_out ()));
  Urts.destroy handle

let test_ocall_ring_amortizes () =
  (* The reply ring's reason to exist: K out-calls under one EEXIT +
     one batched ORET must beat K individual world switches by at
     least 2x at K = 8 (echo OCALL, pure transition cost). *)
  let costs = ref (0, 0) in
  let _, handle =
    fixture
      ~ecalls:
        [
          ( 1,
            fun (tenv : Tenv.t) _ ->
              let reqs = List.init 8 (fun i -> (7, Bytes.make 4 (Char.chr (65 + i)))) in
              let _, ringed =
                Cycles.time tenv.Tenv.clock (fun () ->
                    tenv.Tenv.ocall_ring ~reqs ())
              in
              let _, sequential =
                Cycles.time tenv.Tenv.clock (fun () ->
                    List.iter
                      (fun (id, data) ->
                        ignore (tenv.Tenv.ocall ~id ~data Edge.In_out))
                      reqs)
              in
              costs := (ringed, sequential);
              Bytes.empty );
        ]
      ~ocalls:[ (7, fun data -> data) ]
      ()
  in
  ignore (Urts.ecall handle ~id:1 ~data:Bytes.empty ~direction:Edge.In_out ());
  let ringed, sequential = !costs in
  Alcotest.(check bool)
    (Printf.sprintf "ringed 8 (%d cycles) at least 2x cheaper than sequential (%d)"
       ringed sequential)
    true
    (2 * ringed <= sequential);
  Urts.destroy handle

let test_ring_frame_parsing () =
  (* The untrusted half hands the trusted half raw ring bytes through
     the shared ms region; every malformed shape must surface as the
     typed [Enclave_error], never a bare [Invalid_argument]. *)
  let reqs = [ (1, Bytes.of_string "hello"); (2, Bytes.empty) ] in
  let frame = Urts.frame_requests reqs in
  Alcotest.(check (list (pair int string)))
    "frame/parse inverse"
    [ (1, "hello"); (2, "") ]
    (List.map
       (fun (id, b) -> (id, Bytes.to_string b))
       (Urts.parse_frames ~what:"test" frame));
  let expect_typed name raw =
    try
      ignore (Urts.parse_frames ~what:"test" raw);
      Alcotest.fail (name ^ ": accepted")
    with
    | Urts.Enclave_error _ -> ()
    | Invalid_argument m ->
        Alcotest.fail (name ^ ": escaped as Invalid_argument " ^ m)
  in
  expect_typed "truncated header" (Bytes.sub frame 0 4);
  expect_typed "truncated slot" (Bytes.sub frame 0 (Bytes.length frame - 3));
  let negative_count = Bytes.copy frame in
  Bytes.set_int64_le negative_count 0 (-1L);
  expect_typed "negative count" negative_count;
  let huge_count = Bytes.copy frame in
  Bytes.set_int64_le huge_count 0 (Int64.of_int (Urts.max_batch + 1));
  expect_typed "count past max_batch" huge_count;
  let negative_len = Bytes.copy frame in
  Bytes.set_int64_le negative_len 16 (-5L);
  expect_typed "negative slot length" negative_len;
  (* The int-overflow regression: a near-max_int length word must be a
     typed refusal, not an escaped [Bytes.sub] failure. *)
  let huge_len = Bytes.copy frame in
  Bytes.set_int64_le huge_len 16 (Int64.of_int (max_int - 8));
  expect_typed "near-max_int slot length" huge_len;
  let oversized = Bytes.copy frame in
  Bytes.set_int64_le oversized 16 (Int64.of_int (Bytes.length frame));
  expect_typed "slot overruns frame" oversized

let test_ring_frame_bit63_and_trailing () =
  (* A slot length word of 2^63 + 5 is not 5: dropping bit 63 would
     parse the frame.  Bytes after the last slot are not a valid frame
     either. *)
  let frame = Urts.frame_requests [ (1, Bytes.of_string "hello") ] in
  let expect_typed name raw =
    match Urts.parse_frames ~what:"test" raw with
    | _ -> Alcotest.fail (name ^ ": accepted")
    | exception Urts.Enclave_error _ -> ()
  in
  let bit63 = Bytes.copy frame in
  Bytes.set_int64_le bit63 16 (Int64.logor Int64.min_int 5L);
  expect_typed "bit-63 slot length" bit63;
  expect_typed "trailing bytes" (Bytes.cat frame (Bytes.make 4 '\000'))

let test_oret_batch_unknown_ocall () =
  (* The drained reply-ring frame comes back through the shared ms
     region, so its OCALL ids are untrusted input: an id with no
     registered handler must surface as the typed [Enclave_error]
     refusal, never a bare [Not_found] out of the handler table. *)
  let _, handle = fixture ~ecalls:[] ~ocalls:[ (7, fun data -> data) ] () in
  let arg_off = Urts.ms_ocall_off handle in
  let frame = Urts.frame_requests [ (99, Bytes.of_string "boom") ] in
  Urts.ms_raw_write handle ~off:arg_off frame;
  (try
     ignore (Urts.oret_batch handle ~arg_off ~staged_len:(Bytes.length frame));
     Alcotest.fail "unregistered OCALL id accepted"
   with
  | Urts.Enclave_error msg ->
      Alcotest.(check bool)
        (Printf.sprintf "typed refusal names the id: %s" msg)
        true
        (let needle = "unknown OCALL" in
         let n = String.length needle in
         let rec has i =
           i + n <= String.length msg
           && (String.sub msg i n = needle || has (i + 1))
         in
         has 0)
  | Not_found -> Alcotest.fail "escaped as bare Not_found");
  (* A registered id through the same direct path still round-trips. *)
  let ok = Urts.frame_requests [ (7, Bytes.of_string "echo") ] in
  Urts.ms_raw_write handle ~off:arg_off ok;
  let len = Urts.oret_batch handle ~arg_off ~staged_len:(Bytes.length ok) in
  Alcotest.(check bool) "reply frame written back" true (len > 0);
  Urts.destroy handle

let test_local_attestation () =
  (* Enclave B proves its identity to enclave A on the same platform:
     B produces an EREPORT binding a channel nonce, the untrusted app
     relays it, A verifies it in-enclave via EVERIFYREPORT and checks
     B's MRENCLAVE against its policy. *)
  let p = Platform.create ~seed:3005L () in
  let make ~code_seed ~ecalls =
    Urts.create ~kmod:p.Platform.kmod ~proc:p.Platform.proc ~rng:p.Platform.rng
      ~signer:p.Platform.signer
      ~config:{ (Urts.default_config Sgx_types.GU) with Urts.code_seed }
      ~ecalls ~ocalls:[]
  in
  let b =
    make ~code_seed:"peer-B"
      ~ecalls:
        [
          ( 1,
            fun (tenv : Tenv.t) nonce ->
              let report = tenv.Tenv.report ~report_data:nonce in
              (* serialize: body fields the verifier needs + mac *)
              Bytes.concat (Bytes.of_string "|")
                [ report.Sgx_types.mrenclave; report.Sgx_types.mrsigner;
                  report.Sgx_types.report_data; report.Sgx_types.key_id;
                  report.Sgx_types.mac ] );
        ]
  in
  let b_mrenclave = Urts.mrenclave b in
  let verdict = ref "" in
  let a =
    make ~code_seed:"peer-A"
      ~ecalls:
        [
          ( 1,
            fun (tenv : Tenv.t) wire ->
              (match Bytes.split_on_char '|' wire with
              | [ mrenclave; mrsigner; report_data; key_id; mac ] ->
                  let report =
                    {
                      Sgx_types.mrenclave;
                      mrsigner;
                      attributes =
                        { Sgx_types.debug = false; mode = Sgx_types.GU; xfrm = 3 };
                      isv_prod_id = 1;
                      isv_svn = 1;
                      report_data;
                      key_id;
                      mac;
                    }
                  in
                  if not (tenv.Tenv.verify_report report) then
                    verdict := "bad-mac"
                  else if not (Bytes.equal mrenclave b_mrenclave) then
                    verdict := "wrong-peer"
                  else verdict := "trusted"
              | _ -> verdict := "malformed");
              Bytes.empty );
        ]
  in
  let nonce = Bytes.make 64 'n' in
  let wire = Urts.ecall b ~id:1 ~data:nonce ~direction:Edge.In_out () in
  ignore (Urts.ecall a ~id:1 ~data:wire ~direction:Edge.In_out ());
  Alcotest.(check string) "B accepted" "trusted" !verdict;
  (* A forged report (flipped MAC byte) must be rejected in-enclave. *)
  let forged = Bytes.copy wire in
  Bytes.set forged (Bytes.length forged - 1)
    (Char.chr (Char.code (Bytes.get forged (Bytes.length forged - 1)) lxor 1));
  ignore (Urts.ecall a ~id:1 ~data:forged ~direction:Edge.In_out ());
  Alcotest.(check string) "forgery rejected" "bad-mac" !verdict;
  Urts.destroy a;
  Urts.destroy b

let test_versioned_sealing_rollback () =
  (* Rollback protection: after the state is re-sealed, the old blob (a
     valid ciphertext the operator kept around) must be refused. *)
  let _, handle =
    fixture
      ~ecalls:
        [
          (1, fun (tenv : Tenv.t) data -> tenv.Tenv.seal_versioned data);
          ( 2,
            fun (tenv : Tenv.t) blob ->
              match tenv.Tenv.unseal_versioned blob with
              | data -> Bytes.cat (Bytes.of_string "ok:") data
              | exception Failure m -> Bytes.of_string ("refused:" ^ m) );
        ]
      ~ocalls:[] ()
  in
  let v1 =
    Urts.ecall handle ~id:1 ~data:(Bytes.of_string "state-1") ~direction:Edge.In_out ()
  in
  Alcotest.(check string)
    "current blob unseals" "ok:state-1"
    (Bytes.to_string (Urts.ecall handle ~id:2 ~data:v1 ~direction:Edge.In_out ()));
  let v2 =
    Urts.ecall handle ~id:1 ~data:(Bytes.of_string "state-2") ~direction:Edge.In_out ()
  in
  Alcotest.(check string)
    "rollback to v1 refused" "refused:stale sealed data"
    (Bytes.to_string (Urts.ecall handle ~id:2 ~data:v1 ~direction:Edge.In_out ()));
  Alcotest.(check string)
    "v2 still unseals" "ok:state-2"
    (Bytes.to_string (Urts.ecall handle ~id:2 ~data:v2 ~direction:Edge.In_out ()));
  Urts.destroy handle

let expect_enclave_error ~substring f =
  try
    ignore (f ());
    Alcotest.fail
      (Printf.sprintf "expected Enclave_error mentioning %S" substring)
  with Urts.Enclave_error m ->
    let contains hay needle =
      let nh = String.length hay and nn = String.length needle in
      let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
      go 0
    in
    Alcotest.(check bool)
      (Printf.sprintf "error %S mentions %S" m substring)
      true (contains m substring)

let test_ocall_reply_overflow () =
  (* The OCALL request is bounds-checked against the ocalloc arena, but
     the reply reuses the slot and may be larger: an untrusted handler
     returning more than the arena holds must be refused, not let run off
     the end of the pinned buffer. *)
  let _, handle =
    fixture
      ~ecalls:
        [
          ( 1,
            fun (tenv : Tenv.t) input ->
              tenv.Tenv.ocall ~id:7 ~data:input Edge.In_out );
          ( 2,
            fun (tenv : Tenv.t) input ->
              tenv.Tenv.ocall_switchless ~id:7 ~data:input () );
        ]
        (* arena is the top quarter of the 256 KiB buffer = 64 KiB; the
           handler inflates any request far beyond it *)
      ~ocalls:[ (7, fun _ -> Bytes.make 66_000 'r') ]
      ()
  in
  expect_enclave_error ~substring:"overflows the ocalloc arena" (fun () ->
      Urts.ecall handle ~id:1 ~data:(Bytes.of_string "tiny request")
        ~direction:Edge.In_out ());
  expect_enclave_error ~substring:"overflows the ocalloc arena" (fun () ->
      Urts.ecall handle ~id:2 ~data:(Bytes.of_string "tiny request")
        ~direction:Edge.In_out ());
  Urts.destroy handle

let test_ocall_reply_larger_than_request_ok () =
  (* Replies bigger than the request are fine as long as they fit. *)
  let _, handle =
    fixture
      ~ecalls:
        [ (1, fun (tenv : Tenv.t) input -> tenv.Tenv.ocall ~id:7 ~data:input Edge.In_out) ]
      ~ocalls:[ (7, fun _ -> Bytes.make 4096 'R') ]
      ()
  in
  let reply =
    Urts.ecall handle ~id:1 ~data:(Bytes.of_string "x") ~direction:Edge.In_out ()
  in
  Alcotest.(check int) "inflated reply intact" 4096 (Bytes.length reply);
  Alcotest.(check bool) "contents intact" true
    (Bytes.for_all (fun c -> c = 'R') reply);
  Urts.destroy handle

let test_ecall_output_overflow () =
  (* ECALL results own [1/2, 3/4) of the marshalling buffer (64 KiB by
     default).  A larger result used to be written straight through —
     still inside the buffer, so R-2 never fired — silently corrupting
     the ocalloc arena. *)
  let _, handle =
    fixture
      ~ecalls:
        [
          (1, fun (_ : Tenv.t) _ -> Bytes.make 66_000 'o');
          (2, fun (_ : Tenv.t) input -> input);
        ]
      ~ocalls:[] ()
  in
  expect_enclave_error ~substring:"exceeds the marshalling output region"
    (fun () -> Urts.ecall handle ~id:1 ~direction:Edge.Out ());
  (* The failure path must have exited the enclave cleanly: a normal
     ECALL on the same handle still works. *)
  let reply =
    Urts.ecall handle ~id:2 ~data:(Bytes.of_string "still alive")
      ~direction:Edge.In_out ()
  in
  Alcotest.(check string) "enclave usable after refusal" "still alive"
    (Bytes.to_string reply);
  Urts.destroy handle

let test_ecall_input_overflow () =
  (* Symmetric check on the input leg: inputs own [0, 1/2). *)
  let _, handle =
    fixture ~ecalls:[ (1, fun (_ : Tenv.t) _ -> Bytes.empty) ] ~ocalls:[] ()
  in
  expect_enclave_error ~substring:"exceeds the marshalling input region"
    (fun () ->
      Urts.ecall handle ~id:1
        ~data:(Bytes.make 140_000 'i')
        ~direction:Edge.In ());
  Urts.destroy handle

(* --- arena ring ------------------------------------------------------------ *)

let upper input = Bytes.of_string (String.uppercase_ascii (Bytes.to_string input))

(* A channel that leaves payloads as they are (ring mechanics without the
   crypto) and holds a key for session 7 only. *)
let plain_channel =
  {
    Urts.open_slot =
      (fun ~nth:_ ~session ~seq:_ ~ecall:_ ~tag:_ _ ->
        if session <> 7 then
          raise (Urts.Enclave_error (Printf.sprintf "no key installed for session %d" session));
        true);
    seal_slot =
      (fun ~nth:_ ~session:_ ~seq:_ reply buf ~off ->
        Bytes.fill buf off 32 '\000';
        Bytes.blit reply 0 buf (off + 32) (Bytes.length reply));
  }

let ring_fixture () =
  let p = Platform.create ~seed:3300L () in
  let handle =
    Urts.create ~kmod:p.Platform.kmod ~proc:p.Platform.proc ~rng:p.Platform.rng
      ~signer:p.Platform.signer
      ~config:{ (Urts.default_config Sgx_types.GU) with Urts.ms_bytes = 1024 * 1024 }
      ~ecalls:[ (1, fun (_ : Tenv.t) input -> upper input) ]
      ~ocalls:[]
  in
  let ring =
    Urts.create_ring handle ~shard:0 ~shards:1 ~slots:256 ~slot_bytes:256
      plain_channel
  in
  (p, handle, ring)

let slot_text i = Printf.sprintf "slot-%03d" i

let stage ring i =
  let data = Bytes.of_string (slot_text i) in
  Urts.ring_stage ring ~ecall_id:1 ~session:7 ~seq:i ~tag:(Bytes.make 32 't')
    ~src:data ~src_off:0 ~len:(Bytes.length data)

let image_slots ring =
  (Bytes.length (Urts.ring_buf ring) - 8) / (Urts.slot_header_bytes + 256)

let test_ring_images_high_water () =
  let _, handle, ring = ring_fixture () in
  for i = 0 to 2 do
    stage ring i
  done;
  Alcotest.(check int) "3 staged: 8-slot images" 8 (image_slots ring);
  Alcotest.(check int)
    "reply image the same size"
    (Bytes.length (Urts.ring_buf ring))
    (Bytes.length (Urts.ring_reply_buf ring));
  let staged = Bytes.sub (Urts.ring_buf ring) 8 (3 * (Urts.slot_header_bytes + 256)) in
  for i = 3 to 19 do
    stage ring i
  done;
  Alcotest.(check int) "20 staged: 32-slot images" 32 (image_slots ring);
  Alcotest.(check bytes)
    "growth keeps the slots already staged" staged
    (Bytes.sub (Urts.ring_buf ring) 8 (Bytes.length staged));
  for i = 20 to 255 do
    stage ring i
  done;
  Alcotest.(check int) "a full ring: 256-slot images" 256 (image_slots ring);
  (match stage ring 256 with
  | () -> Alcotest.fail "staged past the ring's capacity"
  | exception Urts.Enclave_error _ -> ());
  Urts.ring_publish ring;
  Urts.ring_dispatch ring;
  Urts.ring_read_replies ring;
  for slot = 0 to 255 do
    let off, len = Urts.ring_reply_slot ring ~slot in
    Alcotest.(check string)
      "reply in its slot"
      (String.uppercase_ascii (slot_text slot))
      (Bytes.sub_string (Urts.ring_reply_buf ring) off len)
  done;
  Urts.destroy handle

(* What a compromised host can do after [ring_publish]: rewrite the
   pinned request segment.  Shard 0's segment starts at the page-aligned
   base of the marshalling buffer, slot 0's header right after the count
   word. *)
let corrupt_pinned (p : Platform.t) handle corrupt =
  let base, _ = Option.get (Urts.enclave handle).Enclave.marshalling in
  let kernel = Kmod.kernel p.Platform.kmod in
  let frame =
    Option.get (Kernel.resolve_frame kernel p.Platform.proc ~vpn:(Hw.Addr.page_of base))
  in
  let pa = Hw.Addr.base_of_page frame in
  let page = Hw.Phys_mem.read_bytes p.Platform.mem pa Hw.Addr.page_size in
  corrupt page 8;
  Hw.Phys_mem.write_bytes p.Platform.mem pa page

(* A host that rewrites a published slot header fails the whole ring:
   every slot gets the same typed error from the scheduler, which never
   raises.  The worker reads what was published, not the host's image:
   the same rewrite of [ring_buf] changes nothing. *)
let test_ring_corrupt_header_typed () =
  List.iter
    (fun (what, corrupt) ->
      let p, handle, ring = ring_fixture () in
      stage ring 0;
      stage ring 1;
      Urts.ring_publish ring;
      corrupt_pinned p handle corrupt;
      let sched =
        Sched.create ~shared_clock:p.Platform.clock
          ~telemetry:(Monitor.telemetry p.Platform.monitor)
          { Sched.default_config with Sched.cores = 1; drop_on_error = true }
      in
      let results = ref [] in
      Sched.submit_ring sched ~urts:handle
        ~on_result:(fun ~index:_ r -> results := r :: !results)
        ring;
      let stats = Sched.run sched in
      Alcotest.(check int) (what ^ ": both slots failed") 2 stats.Sched.failed_requests;
      List.iter
        (function
          | Ok _ -> Alcotest.failf "%s: a slot was served" what
          | Error m ->
              Alcotest.(check bool)
                (Printf.sprintf "%s: typed ring failure (%s)" what m)
                true
                (String.length m > 0))
        !results;
      Urts.destroy handle)
    [
      ("length past the slot", fun b off -> Bytes.set_int64_le b (off + 8) 257L);
      ("negative length", fun b off -> Bytes.set_int64_le b (off + 8) (-1L));
      ("session word with bit 63", fun b off -> Bytes.set_int64_le b (off + 16) Int64.min_int);
      ("unknown session", fun b off -> Bytes.set_int64_le b (off + 16) 99L);
      ("clear flag neither 0 nor 1", fun b off -> Bytes.set b (off + 64) '\002');
      ("slot count", fun b _ -> Bytes.set_int64_le b 0 5L);
    ];
  let _, handle, ring = ring_fixture () in
  stage ring 0;
  Urts.ring_publish ring;
  Bytes.set_int64_le (Urts.ring_buf ring) 16 257L;
  Urts.ring_dispatch ring;
  Urts.ring_read_replies ring;
  let off, len = Urts.ring_reply_slot ring ~slot:0 in
  Alcotest.(check string)
    "a rewrite of the host's image after publishing is not what the worker reads"
    (String.uppercase_ascii (slot_text 0))
    (Bytes.sub_string (Urts.ring_reply_buf ring) off len);
  Urts.destroy handle

let suite =
  [
    Alcotest.test_case "versioned sealing (anti-rollback)" `Quick
      test_versioned_sealing_rollback;
    Alcotest.test_case "OCALL reply overflow refused" `Quick
      test_ocall_reply_overflow;
    Alcotest.test_case "OCALL reply larger than request" `Quick
      test_ocall_reply_larger_than_request_ok;
    Alcotest.test_case "ECALL output overflow refused" `Quick
      test_ecall_output_overflow;
    Alcotest.test_case "ECALL input overflow refused" `Quick
      test_ecall_input_overflow;
    Alcotest.test_case "local attestation" `Quick test_local_attestation;
    Alcotest.test_case "switchless ocall" `Quick test_switchless_ocall;
    Alcotest.test_case "ocall ring semantics" `Quick test_ocall_ring_semantics;
    Alcotest.test_case "ocall ring errors" `Quick test_ocall_ring_errors;
    Alcotest.test_case "ocall ring amortizes" `Quick test_ocall_ring_amortizes;
    Alcotest.test_case "ring frame parsing" `Quick test_ring_frame_parsing;
    Alcotest.test_case "ring frame bit 63 and trailing bytes" `Quick
      test_ring_frame_bit63_and_trailing;
    Alcotest.test_case "ring images sized to the high-water mark" `Quick
      test_ring_images_high_water;
    Alcotest.test_case "ring corrupt slot header typed" `Quick
      test_ring_corrupt_header_typed;
    Alcotest.test_case "oret_batch unknown OCALL typed" `Quick
      test_oret_batch_unknown_ocall;
    Alcotest.test_case "interrupt-frequency guard" `Quick test_interrupt_guard;
    Alcotest.test_case "interrupt guard is P-only" `Quick
      test_interrupt_guard_p_only;
    Alcotest.test_case "ecall roundtrip" `Quick test_ecall_roundtrip;
    Alcotest.test_case "ocall roundtrip" `Quick test_ocall_roundtrip;
    Alcotest.test_case "heap + memory" `Quick test_heap_and_memory;
    Alcotest.test_case "sealing" `Quick test_sealing;
    Alcotest.test_case "unseal malformed blob typed" `Quick
      test_unseal_malformed_blob;
    Alcotest.test_case "sealing bound to MRENCLAVE" `Quick
      test_sealing_bound_to_mrenclave;
    Alcotest.test_case "exceptions two-phase (GU)" `Quick test_exceptions_two_phase;
    Alcotest.test_case "exceptions in-enclave (P)" `Quick test_exceptions_in_enclave;
    Alcotest.test_case "GC page permissions" `Quick test_gc_page_permissions;
    Alcotest.test_case "ms window (user_check)" `Quick test_ms_window_user_check;
    Alcotest.test_case "report/quote API" `Quick test_report_quote_api;
    Alcotest.test_case "TCS exhaustion" `Quick test_no_free_tcs;
    Alcotest.test_case "ms split page-aligned" `Quick test_ms_split_page_aligned;
    Alcotest.test_case "ms_bytes validated" `Quick test_ms_bytes_validated;
    Alcotest.test_case "nested ECALL in OCALL" `Quick test_nested_ecall_in_ocall;
    Alcotest.test_case "nested ECALL exhaustion typed" `Quick
      test_nested_ecall_exhaustion_is_typed;
    Alcotest.test_case "code identity in measurement" `Quick
      test_code_identity_changes_measurement;
  ]
