(* RustMonitor: measured late launch, enclave lifecycle, isolation
   requirements R-1/R-2/R-3, mapping attacks, EDMM, keys, attestation. *)

open Hyperenclave

let platform ?(seed = 1000L) () = Platform.create ~seed ()

let simple_enclave ?(mode = Sgx_types.GU) ?(seed = 1000L) () =
  let p = platform ~seed () in
  let handle =
    Urts.create ~kmod:p.Platform.kmod ~proc:p.Platform.proc ~rng:p.Platform.rng
      ~signer:p.Platform.signer
      ~config:(Urts.default_config mode)
      ~ecalls:[ (1, fun _ _ -> Bytes.empty) ]
      ~ocalls:[]
  in
  (p, handle)

let expect_violation name f =
  try
    f ();
    Alcotest.fail (name ^ ": expected Security_violation")
  with Monitor.Security_violation _ -> ()

(* --- measured late launch ------------------------------------------------------ *)

let test_launch_state () =
  let p = platform () in
  Alcotest.(check bool) "launched" true (Monitor.launched p.Platform.monitor);
  Alcotest.(check bool)
    "hapk derived" true
    (Bytes.length (Monitor.hapk p.Platform.monitor) = 32);
  (* Event log: 5 boot components + hypervisor + hapk. *)
  Alcotest.(check int)
    "event log entries" 7
    (List.length (Monitor.boot_log p.Platform.monitor));
  expect_violation "double launch" (fun () ->
      ignore
        (Monitor.launch p.Platform.monitor ~boot_log:[] ~sealed_root_key:None))

let test_launch_persists_root_key () =
  (* The sealed K_root blob lands on the OS disk at first boot. *)
  let p = platform () in
  Alcotest.(check bool)
    "sealed blob persisted" true
    (Kernel.disk_load p.Platform.kernel ~key:"hyperenclave/k_root.sealed" <> None)

let test_flooding_blocks_os_unseal () =
  (* After launch the flood PCR has been extended, so the (now demoted)
     OS cannot unseal K_root even with the blob in hand. *)
  let p = platform () in
  match Kernel.disk_load p.Platform.kernel ~key:"hyperenclave/k_root.sealed" with
  | None -> Alcotest.fail "expected sealed blob"
  | Some blob -> (
      try
        ignore (Hyperenclave.Tpm.unseal p.Platform.tpm blob);
        Alcotest.fail "OS must not be able to unseal K_root"
      with Hyperenclave.Tpm.Unseal_failed _ -> ())

(* --- isolation requirements ------------------------------------------------------ *)

let test_r1_reserved_invisible_to_normal_vm () =
  let p = platform () in
  let res_base, res_n = Monitor.reserved_range p.Platform.monitor in
  Alcotest.(check bool)
    "reserved frame unmapped" false
    (Monitor.frame_visible_to_normal_vm p.Platform.monitor ~frame:res_base);
  Alcotest.(check bool)
    "last reserved frame unmapped" false
    (Monitor.frame_visible_to_normal_vm p.Platform.monitor
       ~frame:(res_base + res_n - 1));
  Alcotest.(check bool)
    "OS frame mapped" true
    (Monitor.frame_visible_to_normal_vm p.Platform.monitor ~frame:0);
  (* A malicious kernel installs a PTE pointing into the reservation;
     the access must die on the nested table. *)
  Kernel.map_alias p.Platform.kernel p.Platform.proc ~vpn:0x7777 ~frame:res_base;
  try
    ignore
      (Kernel.proc_read p.Platform.kernel p.Platform.proc ~va:(0x7777 * 4096)
         ~len:8);
    Alcotest.fail "expected Npt_violation (R-1)"
  with Mmu.Npt_violation { gfn; _ } -> Alcotest.(check int) "gfn" res_base gfn

let test_r3_dma_blocked () =
  let p = platform () in
  let res_base, _ = Monitor.reserved_range p.Platform.monitor in
  try
    Hw.Iommu.dma_write p.Platform.iommu ~device:"nic" p.Platform.mem
      ~addr:(res_base * 4096) (Bytes.of_string "evil");
    Alcotest.fail "expected Dma_blocked (R-3)"
  with Hw.Iommu.Dma_blocked { frame; _ } ->
    Alcotest.(check int) "blocked at reserved base" res_base frame

let test_r2_enclave_confinement () =
  let p, handle = simple_enclave () in
  let m = p.Platform.monitor in
  let enclave = Urts.enclave handle in
  let handle2 =
    Urts.create ~kmod:p.Platform.kmod ~proc:p.Platform.proc ~rng:p.Platform.rng
      ~signer:p.Platform.signer
      ~config:{ (Urts.default_config Sgx_types.GU) with Urts.code_seed = "other" }
      ~ecalls:[ (1, fun _ _ -> Bytes.empty) ]
      ~ocalls:[]
  in
  ignore handle2;
  (match Enclave.free_tcs enclave with
  | None -> Alcotest.fail "no tcs"
  | Some tcs -> Monitor.eenter m enclave ~tcs ~return_va:Urts.aep);
  (* Inside its own ELRANGE: fine (demand-committed). *)
  Monitor.enclave_write m enclave ~va:(0x1_0000_0000 + (100 * 4096))
    (Bytes.of_string "mine");
  (* The application's address space is NOT reachable (the enclave-malware
     defence of Sec. 6) - only the marshalling buffer is. *)
  expect_violation "app memory out of reach" (fun () ->
      ignore (Monitor.enclave_read m enclave ~va:Os.Process.heap_base ~len:8));
  expect_violation "other enclave out of reach" (fun () ->
      ignore (Monitor.enclave_read m enclave ~va:0x9_0000_0000 ~len:8));
  Monitor.eexit m enclave ~target_va:Urts.aep

(* --- mapping attacks (Fig. 9) ------------------------------------------------------ *)

let test_mapping_attacks () =
  let p = platform () in
  let secs =
    {
      Sgx_types.base_va = 0x1_0000_0000;
      size = 64 * 4096;
      attributes = { Sgx_types.debug = false; mode = Sgx_types.GU; xfrm = 3 };
      ssa_frame_pages = 1;
    }
  in
  let enclave = Kmod.ioctl_create_enclave p.Platform.kmod secs in
  let base_vpn = 0x1_0000_0000 / 4096 in
  Kmod.ioctl_add_page p.Platform.kmod enclave ~vpn:base_vpn
    ~content:(Bytes.of_string "code") ~perms:Page_table.rx
    ~page_type:Sgx_types.Pt_reg;
  (* Fig. 9a: remapping the same enclave VA again (aliasing). *)
  expect_violation "double add" (fun () ->
      Kmod.ioctl_add_page p.Platform.kmod enclave ~vpn:base_vpn
        ~content:Bytes.empty ~perms:Page_table.rw ~page_type:Sgx_types.Pt_reg);
  (* Outside ELRANGE. *)
  expect_violation "outside elrange" (fun () ->
      Kmod.ioctl_add_page p.Platform.kmod enclave ~vpn:(base_vpn + 1000)
        ~content:Bytes.empty ~perms:Page_table.rw ~page_type:Sgx_types.Pt_reg)

let test_marshalling_validation () =
  let p = platform () in
  let secs =
    {
      Sgx_types.base_va = 0x1_0000_0000;
      size = 64 * 4096;
      attributes = { Sgx_types.debug = false; mode = Sgx_types.GU; xfrm = 3 };
      ssa_frame_pages = 1;
    }
  in
  let make_enclave () =
    let enclave = Kmod.ioctl_create_enclave p.Platform.kmod secs in
    Kmod.ioctl_add_tcs p.Platform.kmod enclave
      ~vpn:(0x1_0000_0000 / 4096)
      ~entry_va:0x1_0000_0000 ~nssa:1
      ~ssa_base_vpn:((0x1_0000_0000 / 4096) + 1);
    enclave
  in
  let sigstruct_for enclave =
    (* A well-measured SIGSTRUCT: replicate what the loader computes. *)
    ignore enclave;
    Sgx_types.make_sigstruct ~vendor:p.Platform.signer
      ~enclave_hash:
        (Measure.expected secs
           [
             {
               Measure.vpn = 0x1_0000_0000 / 4096;
               perms = Page_table.rw;
               page_type = Sgx_types.Pt_tcs;
               content =
                 Measure.page_padded
                   (Bytes.of_string
                      (Printf.sprintf "tcs:%x:%d:%x" 0x1_0000_0000 1
                         ((0x1_0000_0000 / 4096) + 1)));
             };
           ])
      ~isv_prod_id:1 ~isv_svn:1
  in
  (* Fig. 9b: marshalling "buffer" whose frames live inside the EPC. *)
  let enclave = make_enclave () in
  let res_base, _ = Monitor.reserved_range p.Platform.monitor in
  expect_violation "ms frames in reserved memory" (fun () ->
      Monitor.einit p.Platform.monitor enclave ~sigstruct:(sigstruct_for enclave)
        ~marshalling:(0x5_0000_0000, 4096, [ (0x5_0000_0000 / 4096, res_base + 10) ]));
  (* Marshalling range overlapping ELRANGE (crafted address, Sec. 6). *)
  let enclave2 = make_enclave () in
  expect_violation "ms overlaps elrange" (fun () ->
      Monitor.einit p.Platform.monitor enclave2
        ~sigstruct:(sigstruct_for enclave2)
        ~marshalling:(0x1_0000_0000 + 4096, 4096, [ ((0x1_0000_0000 / 4096) + 1, 5) ]))

let test_einit_rejects_bad_sigstruct () =
  let p = platform () in
  let secs =
    {
      Sgx_types.base_va = 0x1_0000_0000;
      size = 16 * 4096;
      attributes = { Sgx_types.debug = false; mode = Sgx_types.GU; xfrm = 3 };
      ssa_frame_pages = 1;
    }
  in
  let enclave = Kmod.ioctl_create_enclave p.Platform.kmod secs in
  Kmod.ioctl_add_tcs p.Platform.kmod enclave ~vpn:(0x1_0000_0000 / 4096)
    ~entry_va:0x1_0000_0000 ~nssa:1
    ~ssa_base_vpn:((0x1_0000_0000 / 4096) + 1);
  (* Signature over the wrong measurement. *)
  let sigstruct =
    Sgx_types.make_sigstruct ~vendor:p.Platform.signer
      ~enclave_hash:(Bytes.make 32 'w') ~isv_prod_id:1 ~isv_svn:1
  in
  expect_violation "measurement mismatch" (fun () ->
      Monitor.einit p.Platform.monitor enclave ~sigstruct
        ~marshalling:(0x5_0000_0000, 0, []))

(* --- world switches ------------------------------------------------------------------ *)

let test_eexit_target_validation () =
  let p, handle = simple_enclave () in
  let m = p.Platform.monitor in
  let enclave = Urts.enclave handle in
  (match Enclave.free_tcs enclave with
  | None -> Alcotest.fail "no tcs"
  | Some tcs -> Monitor.eenter m enclave ~tcs ~return_va:Urts.aep);
  (* Enclave malware trying to continue at an arbitrary address. *)
  expect_violation "arbitrary EEXIT target" (fun () ->
      Monitor.eexit m enclave ~target_va:0xdead_beef);
  Monitor.eexit m enclave ~target_va:Urts.aep

let test_tcs_busy_and_nesting () =
  let p, handle = simple_enclave () in
  let m = p.Platform.monitor in
  let enclave = Urts.enclave handle in
  let tcs =
    match Enclave.free_tcs enclave with
    | Some tcs -> tcs
    | None -> Alcotest.fail "no tcs"
  in
  Monitor.eenter m enclave ~tcs ~return_va:Urts.aep;
  expect_violation "same TCS re-entry" (fun () ->
      Monitor.eenter m enclave ~tcs ~return_va:Urts.aep);
  expect_violation "second enclave on the vCPU" (fun () ->
      Monitor.eenter m enclave
        ~tcs:(Option.get (Enclave.free_tcs enclave))
        ~return_va:Urts.aep);
  Monitor.eexit m enclave ~target_va:Urts.aep

let test_aex_eresume () =
  let p, handle = simple_enclave () in
  let m = p.Platform.monitor in
  let enclave = Urts.enclave handle in
  let tcs = Option.get (Enclave.free_tcs enclave) in
  Monitor.eenter m enclave ~tcs ~return_va:Urts.aep;
  Monitor.deliver_interrupt m enclave;
  Alcotest.(check bool) "AEX left the enclave" true (Monitor.current m = None);
  Alcotest.(check int) "SSA frame consumed" 1 tcs.Sgx_types.current_ssa;
  Alcotest.(check bool) "TCS stays busy across AEX" true tcs.Sgx_types.busy;
  Monitor.eresume m enclave ~tcs;
  Alcotest.(check int) "SSA frame released" 0 tcs.Sgx_types.current_ssa;
  Monitor.eexit m enclave ~target_va:Urts.aep;
  expect_violation "eresume without AEX" (fun () ->
      Monitor.eresume m enclave ~tcs)

(* --- demand paging and EDMM ------------------------------------------------------------ *)

let test_demand_commit () =
  let p, handle = simple_enclave () in
  let m = p.Platform.monitor in
  let enclave = Urts.enclave handle in
  let tcs = Option.get (Enclave.free_tcs enclave) in
  Monitor.eenter m enclave ~tcs ~return_va:Urts.aep;
  let before = Epc.used_by (Monitor.epc m) ~enclave_id:enclave.Enclave.id in
  let heap_va = 0x1_0000_0000 + (2000 * 4096) in
  Monitor.enclave_write m enclave ~va:heap_va (Bytes.of_string "on demand");
  Alcotest.(check int)
    "one page committed" (before + 1)
    (Epc.used_by (Monitor.epc m) ~enclave_id:enclave.Enclave.id);
  Alcotest.(check string)
    "content readable back" "on demand"
    (Bytes.to_string (Monitor.enclave_read m enclave ~va:heap_va ~len:9));
  Alcotest.(check int)
    "dyn page stat" 1
    enclave.Enclave.stats.Enclave.dyn_pages;
  Monitor.eexit m enclave ~target_va:Urts.aep

let test_edmm_perms () =
  let p, handle = simple_enclave ~mode:Sgx_types.GU () in
  let m = p.Platform.monitor in
  let enclave = Urts.enclave handle in
  let tcs = Option.get (Enclave.free_tcs enclave) in
  Monitor.eenter m enclave ~tcs ~return_va:Urts.aep;
  let va = 0x1_0000_0000 + (3000 * 4096) in
  Monitor.enclave_write m enclave ~va (Bytes.of_string "x");
  let vpn = va / 4096 in
  Monitor.emodpr m enclave ~vpn ~perms:Page_table.ro;
  expect_violation "write after EMODPR without handler" (fun () ->
      Monitor.enclave_write m enclave ~va (Bytes.of_string "y"));
  Monitor.emodpe m enclave ~vpn ~perms:Page_table.rw;
  Monitor.enclave_write m enclave ~va (Bytes.of_string "z");
  (* Page removal scrubs and frees. *)
  let used = Epc.used_by (Monitor.epc m) ~enclave_id:enclave.Enclave.id in
  Monitor.eremove_page m enclave ~vpn;
  Alcotest.(check int)
    "page freed" (used - 1)
    (Epc.used_by (Monitor.epc m) ~enclave_id:enclave.Enclave.id);
  Monitor.eexit m enclave ~target_va:Urts.aep

let test_penclave_only_self_managed () =
  let p, handle = simple_enclave ~mode:Sgx_types.GU () in
  let m = p.Platform.monitor in
  let enclave = Urts.enclave handle in
  expect_violation "GU cannot self-manage PTEs" (fun () ->
      Monitor.penclave_set_perms m enclave ~vpn:(0x1_0000_0000 / 4096)
        ~perms:Page_table.rw)

(* --- keys and attestation ---------------------------------------------------------------- *)

(* EGETKEY is an enclave leaf: keys are asked for from inside an ECALL. *)
let key_enclave p ~code_seed =
  Urts.create ~kmod:p.Platform.kmod ~proc:p.Platform.proc ~rng:p.Platform.rng
    ~signer:p.Platform.signer
    ~config:{ (Urts.default_config Sgx_types.GU) with Urts.code_seed }
    ~ecalls:
      [
        (1, fun (tenv : Tenv.t) _ -> tenv.Tenv.getkey Sgx_types.Seal_key_mrenclave);
        (2, fun (tenv : Tenv.t) _ -> tenv.Tenv.getkey Sgx_types.Seal_key_mrsigner);
      ]
    ~ocalls:[]

let test_egetkey_identity () =
  let p = platform () in
  let a = key_enclave p ~code_seed:"A" and b = key_enclave p ~code_seed:"B" in
  let key handle id = Urts.ecall handle ~id ~direction:Edge.Out () in
  let k1 = key a 1 in
  Alcotest.(check bool) "stable" true (Bytes.equal k1 (key a 1));
  Alcotest.(check bool) "distinct per MRENCLAVE" false (Bytes.equal k1 (key b 1));
  (* Same signer => same MRSIGNER seal key across different enclaves. *)
  Alcotest.(check bool) "mrsigner key shared" true (Bytes.equal (key a 2) (key b 2));
  expect_violation "host EGETKEY" (fun () ->
      ignore (Monitor.egetkey p.Platform.monitor (Urts.enclave a) Sgx_types.Seal_key_mrenclave));
  Urts.destroy a;
  Urts.destroy b

let test_report () =
  let p, handle = simple_enclave () in
  let m = p.Platform.monitor in
  let enclave = Urts.enclave handle in
  let report = Monitor.ereport m enclave ~report_data:(Bytes.of_string "hello") in
  Alcotest.(check bool) "verifies locally" true (Monitor.verify_report m report);
  let forged = { report with Sgx_types.mrenclave = Bytes.make 32 'f' } in
  Alcotest.(check bool) "forged fails" false (Monitor.verify_report m forged)

let test_measurement_matches_sdk_prediction () =
  let _, handle = simple_enclave () in
  (* EINIT succeeded, so the monitor-computed MRENCLAVE equalled the
     SDK's offline prediction; also check it is non-trivial. *)
  Alcotest.(check int) "mrenclave size" 32 (Bytes.length (Urts.mrenclave handle));
  Alcotest.(check bool)
    "not all zeroes" false
    (Bytes.equal (Urts.mrenclave handle) (Bytes.make 32 '\000'))

let test_eremove_scrubs () =
  let p, handle = simple_enclave () in
  let m = p.Platform.monitor in
  let enclave = Urts.enclave handle in
  let epc = Monitor.epc m in
  Alcotest.(check bool)
    "enclave holds frames" true
    (Epc.used_by epc ~enclave_id:enclave.Enclave.id > 0);
  Urts.destroy handle;
  Alcotest.(check int)
    "all frames returned" 0
    (Epc.used_by epc ~enclave_id:enclave.Enclave.id);
  Alcotest.(check bool)
    "enclave dead" true
    (enclave.Enclave.lifecycle = Enclave.Dead)

let test_audit_clean_and_detects () =
  let p, handle = simple_enclave () in
  let m = p.Platform.monitor in
  Alcotest.(check int) "fresh platform audits clean" 0
    (List.length (Monitor.audit m));
  (* Exercise the lifecycle, then re-audit. *)
  ignore (Urts.ecall handle ~id:1 ~direction:Edge.In ());
  Alcotest.(check int) "after ECALL still clean" 0 (List.length (Monitor.audit m));
  (* Corrupt state the way a monitor bug would: map a reserved frame into
     the normal VM's nested table. *)
  let res_base, _ = Monitor.reserved_range m in
  Page_table.map (Monitor.normal_npt m) ~vpn:0xdead ~frame:res_base
    ~perms:Page_table.rw;
  (match Monitor.audit m with
  | [] -> Alcotest.fail "audit missed the R-1 violation"
  | findings ->
      Alcotest.(check bool)
        "finding names R-1" true
        (List.exists (fun f -> f.Monitor.invariant = "R-1") findings));
  Page_table.unmap (Monitor.normal_npt m) ~vpn:0xdead;
  Urts.destroy handle;
  Alcotest.(check int) "clean after destroy" 0 (List.length (Monitor.audit m))

let audit_qcheck =
  let open QCheck in
  (* Random lifecycle storms must never leave the monitor in a state the
     auditor objects to. *)
  let op_gen = Gen.int_bound 5 in
  Test.make ~name:"isolation invariants hold under random lifecycles" ~count:12
    (make ~print:Print.(list int) Gen.(list_size (int_range 5 25) op_gen))
    (fun ops ->
      let p = Platform.create ~seed:31337L () in
      let m = p.Platform.monitor in
      let live = ref [] in
      let counter = ref 0 in
      let new_enclave mode =
        incr counter;
        let handle =
          Urts.create ~kmod:p.Platform.kmod ~proc:p.Platform.proc
            ~rng:p.Platform.rng ~signer:p.Platform.signer
            ~config:
              {
                (Urts.default_config mode) with
                Urts.code_seed = Printf.sprintf "audit-%d" !counter;
                elrange_pages = 512;
                ms_bytes = 64 * 1024;
              }
            ~ecalls:
              [
                ( 1,
                  fun (tenv : Tenv.t) input ->
                    let va = tenv.Tenv.malloc 4096 in
                    tenv.Tenv.write ~va input;
                    tenv.Tenv.read ~va ~len:(Bytes.length input) );
              ]
            ~ocalls:[]
        in
        live := handle :: !live
      in
      List.iter
        (fun op ->
          match op with
          | 0 -> new_enclave Sgx_types.GU
          | 1 -> new_enclave Sgx_types.HU
          | 2 -> new_enclave Sgx_types.P
          | 3 -> (
              match !live with
              | handle :: rest ->
                  Urts.destroy handle;
                  live := rest
              | [] -> ())
          | 4 | 5 | _ -> (
              match !live with
              | handle :: _ ->
                  let reply =
                    Urts.ecall handle ~id:1 ~data:(Bytes.of_string "ping")
                      ~direction:Edge.In_out ()
                  in
                  if Bytes.to_string reply <> "ping" then
                    failwith "echo mismatch"
              | [] -> ()))
        ops;
      let findings = Monitor.audit m in
      List.iter (fun h -> Urts.destroy h) !live;
      findings = [] && Monitor.audit m = [])

let test_hypercall_abi () =
  (* Vector numbers must be unique, and refusals must surface as Fault
     rather than exceptions crossing the boundary. *)
  let p, handle = simple_enclave () in
  let enclave = Urts.enclave handle in
  let requests =
    [
      Hypercall.Ecreate enclave.Enclave.secs;
      Hypercall.Eadd
        {
          enclave;
          vpn = 0;
          content = Bytes.empty;
          perms = Page_table.rw;
          page_type = Sgx_types.Pt_reg;
        };
      Hypercall.Eremove enclave;
      Hypercall.Eexit { enclave; target_va = 0 };
      Hypercall.Egetkey { enclave; name = Sgx_types.Report_key };
    ]
  in
  let numbers = List.map Hypercall.number requests in
  Alcotest.(check int)
    "vectors unique" (List.length numbers)
    (List.length (List.sort_uniq compare numbers));
  (* EADD after EINIT is refused: Fault, not an exception. *)
  (match
     Hypercall.dispatch p.Platform.monitor
       (Hypercall.Eadd
          {
            enclave;
            vpn = 0x1_0000_0000 / 4096;
            content = Bytes.empty;
            perms = Page_table.rw;
            page_type = Sgx_types.Pt_reg;
          })
   with
  | Hypercall.Fault _ -> ()
  | _ -> Alcotest.fail "expected Fault for post-EINIT EADD");
  (* EGETKEY through the ABI from the host is refused like the typed
     call: it is an enclave leaf. *)
  (match
     Hypercall.dispatch p.Platform.monitor
       (Hypercall.Egetkey { enclave; name = Sgx_types.Seal_key_mrenclave })
   with
  | Hypercall.Fault _ -> ()
  | _ -> Alcotest.fail "expected Fault for host EGETKEY");
  Urts.destroy handle

let test_isa_mapping () =
  List.iter
    (fun isa ->
      Alcotest.(check bool)
        (Isa.name isa ^ " flexible") true
        (Isa.supports_flexible_modes isa);
      (* Every mode maps to a distinct privileged location. *)
      let mappings = List.map (Isa.secure_mode isa) Sgx_types.all_modes in
      Alcotest.(check int) "distinct mappings" 3
        (List.length (List.sort_uniq compare mappings)))
    Isa.all;
  (* Projection sanity: transitions are cheapest on ARM, and scaling never
     touches the memory system or Intel-silicon constants. *)
  let scaled = Isa.scale_cost_model Isa.Armv8 Cost_model.default in
  Alcotest.(check bool)
    "ARM hypercall cheaper" true
    (scaled.Cost_model.hypercall < Cost_model.default.Cost_model.hypercall);
  Alcotest.(check int)
    "DRAM cost untouched" Cost_model.default.Cost_model.cache_miss_dram
    scaled.Cost_model.cache_miss_dram;
  Alcotest.(check int)
    "SGX constants untouched" Cost_model.default.Cost_model.sgx_ecall
    scaled.Cost_model.sgx_ecall;
  Alcotest.(check int)
    "x86 identity" Cost_model.default.Cost_model.hypercall
    (Isa.scale_cost_model Isa.X86_64 Cost_model.default).Cost_model.hypercall

let test_world_switch_constants () =
  (* The composed Table-1 costs the model must reproduce exactly. *)
  let c = Cost_model.default in
  let check_mode mode eenter eexit ecall ocall =
    let name = Sgx_types.mode_name mode in
    Alcotest.(check int) (name ^ " eenter") eenter (World_switch.eenter_cost c mode);
    Alcotest.(check int) (name ^ " eexit") eexit (World_switch.eexit_cost c mode);
    Alcotest.(check int)
      (name ^ " ecall")
      ecall
      (World_switch.eenter_cost c mode + World_switch.eexit_cost c mode
      + World_switch.sdk_ecall_soft c mode);
    Alcotest.(check int)
      (name ^ " ocall")
      ocall
      (World_switch.eenter_cost c mode + World_switch.eexit_cost c mode
      + World_switch.sdk_ocall_soft c mode)
  in
  check_mode Sgx_types.HU 1163 1144 8440 4120;
  check_mode Sgx_types.GU 1704 1319 9480 4920;
  check_mode Sgx_types.P 1649 1401 9700 5260

let test_ssa_spill_restore () =
  let p, handle = simple_enclave () in
  let m = p.Platform.monitor in
  let enclave = Urts.enclave handle in
  let tcs = Option.get (Enclave.free_tcs enclave) in
  Monitor.eenter m enclave ~tcs ~return_va:Urts.aep;
  (* Arbitrary execution state at the moment the interrupt lands. *)
  Vcpu.scramble (Rng.create ~seed:555L) enclave.Enclave.regs;
  let snapshot = Vcpu.copy enclave.Enclave.regs in
  Monitor.deliver_interrupt m enclave;
  (* The SSA frame (in EPC) holds exactly the serialized state. *)
  let ssa_frame =
    match Page_table.lookup enclave.Enclave.gpt ~vpn:tcs.Sgx_types.ssa_base_vpn with
    | Some entry -> entry.Page_table.frame
    | None -> Alcotest.fail "SSA page unmapped"
  in
  let spilled =
    Hw.Phys_mem.read_bytes p.Platform.mem (ssa_frame * 4096) Vcpu.ssa_frame_bytes
  in
  Alcotest.(check bool)
    "SSA frame holds the serialized state" true
    (Bytes.equal spilled (Vcpu.serialize snapshot));
  Alcotest.(check bool)
    "SSA frame is EPC (invisible to the normal VM)" false
    (Monitor.frame_visible_to_normal_vm m ~frame:ssa_frame);
  (* Clobber the live registers, then ERESUME must restore the spill. *)
  Vcpu.scramble (Rng.create ~seed:556L) enclave.Enclave.regs;
  Monitor.eresume m enclave ~tcs;
  Alcotest.(check bool)
    "ERESUME restored the interrupted state" true
    (Vcpu.equal enclave.Enclave.regs snapshot);
  Monitor.eexit m enclave ~target_va:Urts.aep;
  Urts.destroy handle

let test_ssa_exhaustion () =
  let p, handle = simple_enclave () in
  let m = p.Platform.monitor in
  let enclave = Urts.enclave handle in
  let tcs = Option.get (Enclave.free_tcs enclave) in
  Monitor.eenter m enclave ~tcs ~return_va:Urts.aep;
  tcs.Sgx_types.current_ssa <- tcs.Sgx_types.nssa;
  expect_violation "AEX with no free SSA frame" (fun () ->
      Monitor.deliver_interrupt m enclave);
  tcs.Sgx_types.current_ssa <- 0;
  Monitor.eexit m enclave ~target_va:Urts.aep;
  Urts.destroy handle

let tiny_epc_platform () =
  (* 134 MB DRAM - 128 MB OS - 4 MB monitor-private = 2 MB of EPC. *)
  Platform.create ~seed:1234L ~phys_mb:134 ~os_mb:128 ~monitor_mb:4 ()

let test_epc_overcommit_roundtrip () =
  let p = tiny_epc_platform () in
  let m = p.Platform.monitor in
  let handle =
    Urts.create ~kmod:p.Platform.kmod ~proc:p.Platform.proc ~rng:p.Platform.rng
      ~signer:p.Platform.signer
      ~config:{ (Urts.default_config Sgx_types.GU) with Urts.elrange_pages = 2048 }
      ~ecalls:
        [
          ( 1,
            fun (tenv : Tenv.t) _ ->
              (* Touch well beyond the 512-frame EPC, with recognizable
                 contents, then read everything back. *)
              let pages = 700 in
              let base = tenv.Tenv.malloc (pages * 4096) in
              for i = 0 to pages - 1 do
                tenv.Tenv.write ~va:(base + (i * 4096))
                  (Bytes.of_string (Printf.sprintf "page-%04d" i))
              done;
              let bad = ref 0 in
              for i = 0 to pages - 1 do
                let got = tenv.Tenv.read ~va:(base + (i * 4096)) ~len:9 in
                if Bytes.to_string got <> Printf.sprintf "page-%04d" i then incr bad
              done;
              Bytes.of_string (string_of_int !bad) );
        ]
      ~ocalls:[]
  in
  let bad = Urts.ecall handle ~id:1 ~direction:Edge.Out () in
  Alcotest.(check string) "every page survived eviction" "0" (Bytes.to_string bad);
  Alcotest.(check bool)
    (Printf.sprintf "evictions happened (%d)" (Monitor.epc_swap_count m))
    true
    (Monitor.epc_swap_count m > 100);
  Alcotest.(check int) "audit clean under pressure" 0
    (List.length (Monitor.audit m));
  Urts.destroy handle

let test_epc_swap_tamper_detected () =
  let p = tiny_epc_platform () in
  let handle =
    Urts.create ~kmod:p.Platform.kmod ~proc:p.Platform.proc ~rng:p.Platform.rng
      ~signer:p.Platform.signer
      ~config:{ (Urts.default_config Sgx_types.GU) with Urts.elrange_pages = 2048 }
      ~ecalls:
        [
          ( 1,
            fun (tenv : Tenv.t) _ ->
              let pages = 700 in
              let base = tenv.Tenv.malloc (pages * 4096) in
              for i = 0 to pages - 1 do
                tenv.Tenv.write ~va:(base + (i * 4096)) (Bytes.of_string "x")
              done;
              Bytes.empty );
          ( 2,
            (* read exactly the page named by the input VA *)
            fun (tenv : Tenv.t) input ->
              let va = int_of_string (Bytes.to_string input) in
              tenv.Tenv.read ~va ~len:1 );
        ]
      ~ocalls:[]
  in
  ignore (Urts.ecall handle ~id:1 ~direction:Edge.In ());
  (* Pick one sealed blob off the untrusted disk. *)
  let kernel = p.Platform.kernel in
  let enclave = Urts.enclave handle in
  let slot = ref None in
  for vpn = 0x1_0000_0000 / 4096 to (0x1_0000_0000 / 4096) + 2048 do
    if !slot = None then
      let key = Printf.sprintf "heswap:%d:%x" enclave.Enclave.id vpn in
      match Kernel.disk_load kernel ~key with
      | Some blob -> slot := Some (key, blob, vpn)
      | None -> ()
  done;
  let key, blob, vpn =
    match !slot with
    | Some s -> s
    | None -> Alcotest.fail "no swapped blob found on disk"
  in
  (* 1. Honest reload of an untampered sibling works (pick another slot).
     Capture its blob first: the reload consumes it (blobs are
     single-use), and step 3 replays those bytes. *)
  let sibling = ref None in
  for v = vpn + 1 to (0x1_0000_0000 / 4096) + 2048 do
    if !sibling = None then
      let k = Printf.sprintf "heswap:%d:%x" enclave.Enclave.id v in
      match Kernel.disk_load kernel ~key:k with
      | Some b -> sibling := Some (v, b)
      | None -> ()
  done;
  (match !sibling with
  | Some (v, _) ->
      ignore
        (Urts.ecall handle ~id:2
           ~data:(Bytes.of_string (string_of_int (v * 4096)))
           ~direction:Edge.In_out ())
  | None -> ());
  (* 2. Tampered blob: flipping one ciphertext byte must be detected. *)
  let tampered = Bytes.copy blob in
  let i = Bytes.length tampered - 1 in
  Bytes.set tampered i (Char.chr (Char.code (Bytes.get tampered i) lxor 1));
  Kernel.disk_store kernel ~key tampered;
  expect_violation "tampered swap blob" (fun () ->
      ignore
        (Urts.ecall handle ~id:2
           ~data:(Bytes.of_string (string_of_int (vpn * 4096)))
           ~direction:Edge.In_out ()));
  (* 3. Substitution: storing another page's valid blob in this slot is a
     replay and must also be rejected (the seal binds the page id). *)
  (match !sibling with
  | Some (_, other_blob) ->
      Kernel.disk_store kernel ~key other_blob;
      expect_violation "substituted swap blob" (fun () ->
          ignore
            (Urts.ecall handle ~id:2
               ~data:(Bytes.of_string (string_of_int (vpn * 4096)))
               ~direction:Edge.In_out ()))
  | None -> ());
  Urts.destroy handle

let pressure_enclave p =
  (* ECALL 1 writes a 700-page working set (well past the 512-frame EPC)
     and verifies every page on the way back; returns the bad-page count. *)
  Urts.create ~kmod:p.Platform.kmod ~proc:p.Platform.proc ~rng:p.Platform.rng
    ~signer:p.Platform.signer
    ~config:{ (Urts.default_config Sgx_types.GU) with Urts.elrange_pages = 2048 }
    ~ecalls:
      [
        ( 1,
          fun (tenv : Tenv.t) _ ->
            let pages = 700 in
            let base = tenv.Tenv.malloc (pages * 4096) in
            for i = 0 to pages - 1 do
              tenv.Tenv.write ~va:(base + (i * 4096))
                (Bytes.of_string (Printf.sprintf "page-%04d" i))
            done;
            let bad = ref 0 in
            for i = 0 to pages - 1 do
              let got = tenv.Tenv.read ~va:(base + (i * 4096)) ~len:9 in
              if Bytes.to_string got <> Printf.sprintf "page-%04d" i then incr bad
            done;
            Bytes.of_string (string_of_int !bad) );
      ]
    ~ocalls:[]

let swap_blobs_on_disk kernel ~enclave_id =
  let base_vpn = 0x1_0000_0000 / 4096 in
  let n = ref 0 in
  for vpn = base_vpn to base_vpn + 2048 do
    if
      Kernel.disk_load kernel
        ~key:(Printf.sprintf "heswap:%d:%x" enclave_id vpn)
      <> None
    then incr n
  done;
  !n

let test_eremove_purges_swap_residue () =
  (* EREMOVE used to scrub and free only the resident EPC frames: the
     (enclave, vpn) swap bookkeeping and the sealed blobs of pages still
     evicted at teardown survived forever. *)
  let p = tiny_epc_platform () in
  let m = p.Platform.monitor in
  let kernel = p.Platform.kernel in
  let handle = pressure_enclave p in
  let id = (Urts.enclave handle).Enclave.id in
  let bad = Urts.ecall handle ~id:1 ~direction:Edge.Out () in
  Alcotest.(check string) "working set intact" "0" (Bytes.to_string bad);
  Alcotest.(check bool)
    "pages swapped out before teardown" true
    (Monitor.swapped_out m ~enclave_id:id > 0);
  Alcotest.(check bool)
    "sealed blobs on the untrusted disk" true
    (swap_blobs_on_disk kernel ~enclave_id:id > 0);
  Urts.destroy handle;
  Alcotest.(check int)
    "no swap bookkeeping residue" 0
    (Monitor.swapped_out m ~enclave_id:id);
  Alcotest.(check int)
    "no sealed blobs left on the backend" 0
    (swap_blobs_on_disk kernel ~enclave_id:id);
  (* The platform stays healthy: a fresh enclave under the same pressure
     roundtrips cleanly. *)
  let handle2 = pressure_enclave p in
  let bad2 = Urts.ecall handle2 ~id:1 ~direction:Edge.Out () in
  Alcotest.(check string) "re-created enclave intact" "0" (Bytes.to_string bad2);
  Alcotest.(check int) "audit clean" 0 (List.length (Monitor.audit m));
  Urts.destroy handle2

let test_aex_restores_eenter_context () =
  (* The eventual EEXIT after AEX + ERESUME must restore the normal-world
     context recorded at EENTER — even if the primary OS ran something
     else (a CR3 switch) while the enclave thread was parked. *)
  let p, handle = simple_enclave () in
  let m = p.Platform.monitor in
  let cpu = p.Platform.cpu in
  let enclave = Urts.enclave handle in
  let tcs = Option.get (Enclave.free_tcs enclave) in
  let gpt0 = Mmu.gpt cpu and npt0 = Mmu.npt cpu in
  Monitor.eenter m enclave ~tcs ~return_va:Urts.aep;
  Monitor.deliver_interrupt m enclave;
  Alcotest.(check bool) "AEX restored the normal gpt" true (Mmu.gpt cpu == gpt0);
  (* OS schedules another process while the enclave thread is parked. *)
  let other_gpt = Page_table.create () in
  Mmu.switch_context cpu ~gpt:other_gpt ();
  Monitor.eresume m enclave ~tcs;
  Monitor.eexit m enclave ~target_va:Urts.aep;
  Alcotest.(check bool)
    "EEXIT returned to the context recorded at EENTER" true
    (Mmu.gpt cpu == gpt0);
  Alcotest.(check bool)
    "nested table restored too" true
    (match (Mmu.npt cpu, npt0) with
    | None, None -> true
    | Some a, Some b -> a == b
    | _ -> false);
  Urts.destroy handle

let test_swap_in_shoots_down_tlb () =
  (* A page's translation can outlive its eviction (the evict-time INVLPG
     covers only the evicting CPU's view), and after swap-in the page may
     occupy a different frame.  swap_in_page must shoot the vpn down; the
     telemetry counter makes the INVLPG observable. *)
  let p = tiny_epc_platform () in
  let m = p.Platform.monitor in
  let kernel = p.Platform.kernel in
  let handle = pressure_enclave p in
  let enclave = Urts.enclave handle in
  ignore (Urts.ecall handle ~id:1 ~direction:Edge.Out ());
  let base_vpn = 0x1_0000_0000 / 4096 in
  let swapped = ref None and resident = ref [] in
  for vpn = base_vpn + 64 to base_vpn + 2048 do
    let on_disk =
      Kernel.disk_load kernel
        ~key:(Printf.sprintf "heswap:%d:%x" enclave.Enclave.id vpn)
      <> None
    in
    if on_disk then begin
      if !swapped = None then swapped := Some vpn
    end
    else if
      List.length !resident < 4
      && Page_table.lookup enclave.Enclave.gpt ~vpn <> None
    then resident := vpn :: !resident
  done;
  let swapped_vpn =
    match !swapped with
    | Some vpn -> vpn
    | None -> Alcotest.fail "no swapped page found"
  in
  (* Free a few frames first so the swap-in below needs no eviction: the
     measured INVLPG then belongs to the swap-in alone. *)
  List.iter (fun vpn -> Monitor.eremove_page m enclave ~vpn) !resident;
  let tcs = Option.get (Enclave.free_tcs enclave) in
  Monitor.eenter m enclave ~tcs ~return_va:Urts.aep;
  let before = Telemetry.snapshot (Monitor.telemetry m) in
  ignore (Monitor.enclave_read m enclave ~va:(swapped_vpn * 4096) ~len:1);
  let after = Telemetry.snapshot (Monitor.telemetry m) in
  Monitor.eexit m enclave ~target_va:Urts.aep;
  let delta name =
    match List.assoc_opt name (Telemetry.delta_counters ~before ~after) with
    | Some d -> d
    | None -> 0
  in
  Alcotest.(check int) "one swap-in, no eviction" 1 (delta "epc.swap_in");
  Alcotest.(check int) "no eviction needed" 0 (delta "epc.evict");
  Alcotest.(check bool)
    "swap-in shot down the stale translation" true
    (delta "tlb.invlpg" >= 1);
  Urts.destroy handle

let test_multi_tcs_threads () =
  (* Two enclave threads: thread 1 is parked by an interrupt (TCS busy,
     state in its SSA) while thread 2 enters and completes on a second
     TCS; thread 1 then resumes exactly where it stopped. *)
  let p = Platform.create ~seed:1400L () in
  let handle =
    Urts.create ~kmod:p.Platform.kmod ~proc:p.Platform.proc ~rng:p.Platform.rng
      ~signer:p.Platform.signer
      ~config:{ (Urts.default_config Sgx_types.GU) with Urts.tcs_count = 3 }
      ~ecalls:[ (1, fun _ _ -> Bytes.empty) ]
      ~ocalls:[]
  in
  let m = p.Platform.monitor in
  let enclave = Urts.enclave handle in
  Alcotest.(check int) "three TCS" 3 (List.length enclave.Enclave.tcs_list);
  let tcs1 = Option.get (Enclave.free_tcs enclave) in
  Monitor.eenter m enclave ~tcs:tcs1 ~return_va:Urts.aep;
  Vcpu.scramble (Rng.create ~seed:41L) enclave.Enclave.regs;
  let thread1_state = Vcpu.copy enclave.Enclave.regs in
  Monitor.deliver_interrupt m enclave;
  Alcotest.(check bool) "TCS1 parked busy" true tcs1.Sgx_types.busy;
  (* Thread 2 runs to completion while thread 1 is parked. *)
  let tcs2 = Option.get (Enclave.free_tcs enclave) in
  Alcotest.(check bool) "a different TCS" true (tcs2 != tcs1);
  Monitor.eenter m enclave ~tcs:tcs2 ~return_va:Urts.aep;
  Monitor.enclave_write m enclave ~va:(0x1_0000_0000 + (500 * 4096))
    (Bytes.of_string "thread-2");
  Monitor.eexit m enclave ~target_va:Urts.aep;
  Alcotest.(check bool) "TCS2 released" false tcs2.Sgx_types.busy;
  (* Thread 1 resumes with its exact pre-interrupt state. *)
  Monitor.eresume m enclave ~tcs:tcs1;
  Alcotest.(check bool)
    "thread 1 state intact across thread 2's run" true
    (Vcpu.equal enclave.Enclave.regs thread1_state);
  Monitor.eexit m enclave ~target_va:Urts.aep;
  Alcotest.(check int) "audit clean" 0 (List.length (Monitor.audit m));
  Urts.destroy handle

(* --- clock-hand victim selection (PR 4 regression) ----------------------- *)

(* The old [find_victim] walked [Hashtbl.fold] order, so whichever
   enclave's frames hashed first absorbed every eviction.  The
   clock-hand cursor must rotate across the pool: thrash a tiny pool
   shared by two enclaves and demand both get victimised. *)
let test_clock_hand_spreads_victims () =
  let epc = Epc.create ~base_frame:100 ~nframes:8 in
  for i = 0 to 3 do
    ignore
      (Epc.alloc epc ~owner:(Epc.Enclave 1) ~page_type:Sgx_types.Pt_reg
         ~vpn:(0x5000 + i))
  done;
  for i = 4 to 7 do
    ignore
      (Epc.alloc epc ~owner:(Epc.Enclave 2) ~page_type:Sgx_types.Pt_reg
         ~vpn:(0x5000 + i))
  done;
  let victims = ref [] in
  for _ = 1 to 8 do
    match Epc.find_victim epc ~prefer_not:None with
    | None -> Alcotest.fail "full pool but no victim"
    | Some (frame, info) ->
        let owner_id =
          match info.Epc.owner with Epc.Enclave id -> id | Epc.Monitor -> -1
        in
        victims := owner_id :: !victims;
        (* Evict-and-refault: the frame comes straight back for the same
           owner, freshly referenced — exactly the thrashing pattern. *)
        Epc.free epc frame;
        ignore
          (Epc.alloc epc ~owner:info.Epc.owner ~page_type:Sgx_types.Pt_reg
             ~vpn:info.Epc.vpn)
  done;
  Alcotest.(check bool) "enclave 1 evicted" true (List.mem 1 !victims);
  Alcotest.(check bool) "enclave 2 evicted" true (List.mem 2 !victims)

let test_find_victim_respects_in_use () =
  let epc = Epc.create ~base_frame:0 ~nframes:6 in
  let frames =
    List.init 6 (fun i ->
        Epc.alloc epc
          ~owner:(Epc.Enclave (if i < 3 then 1 else 2))
          ~page_type:Sgx_types.Pt_reg ~vpn:(0x9000 + i))
  in
  ignore frames;
  (* Enclave 1's frames are "in active use" (say, SSA of a running
     vCPU): every pick must land on enclave 2. *)
  let in_use _frame (info : Epc.frame_info) = info.Epc.owner = Epc.Enclave 1 in
  for _ = 1 to 4 do
    match Epc.find_victim ~in_use epc ~prefer_not:None with
    | None -> Alcotest.fail "no victim despite evictable frames"
    | Some (_, info) ->
        Alcotest.(check bool)
          "in-use frames skipped" true
          (info.Epc.owner = Epc.Enclave 2)
  done;
  (* prefer_not steers away from enclave 2 when alternatives exist. *)
  (match Epc.find_victim epc ~prefer_not:(Some 2) with
  | Some (_, info) ->
      Alcotest.(check bool)
        "prefer_not honoured" true
        (info.Epc.owner = Epc.Enclave 1)
  | None -> Alcotest.fail "no victim with prefer_not");
  (* If everything is nominally in use the relaxing passes still find a
     victim — refusing entirely would deadlock the allocator. *)
  (match Epc.find_victim ~in_use:(fun _ _ -> true) epc ~prefer_not:None with
  | Some _ -> ()
  | None -> Alcotest.fail "relaxing fallback must still evict");
  (* Control structures are never victims even under full relaxation. *)
  let epc2 = Epc.create ~base_frame:0 ~nframes:2 in
  ignore
    (Epc.alloc epc2 ~owner:(Epc.Enclave 1) ~page_type:Sgx_types.Pt_tcs ~vpn:1);
  ignore
    (Epc.alloc epc2 ~owner:(Epc.Enclave 1) ~page_type:Sgx_types.Pt_ssa ~vpn:2);
  Alcotest.(check bool)
    "TCS/SSA never evictable" true
    (Epc.find_victim epc2 ~prefer_not:None = None)

(* Two enclaves thrashing a small EPC together: both must survive with
   their contents intact, and the eviction traffic must touch both
   (the old insertion-order scan drained one enclave exclusively). *)
let test_two_enclaves_thrash_small_epc () =
  let p = tiny_epc_platform () in
  let m = p.Platform.monitor in
  let pages = 400 in
  let mk tag =
    Urts.create ~kmod:p.Platform.kmod ~proc:p.Platform.proc ~rng:p.Platform.rng
      ~signer:p.Platform.signer
      ~config:
        {
          (Urts.default_config Sgx_types.GU) with
          Urts.code_seed = tag;
          elrange_pages = 2048;
        }
      ~ecalls:
        [
          ( 1,
            (* write phase: touch [pages] pages with recognizable bytes *)
            fun (tenv : Tenv.t) _ ->
              let base = tenv.Tenv.malloc (pages * 4096) in
              for i = 0 to pages - 1 do
                tenv.Tenv.write ~va:(base + (i * 4096))
                  (Bytes.of_string (Printf.sprintf "%s-%04d" tag i))
              done;
              Bytes.of_string (string_of_int base) );
          ( 2,
            (* verify phase: count corrupted pages *)
            fun (tenv : Tenv.t) input ->
              let base = int_of_string (Bytes.to_string input) in
              let bad = ref 0 in
              for i = 0 to pages - 1 do
                let want = Printf.sprintf "%s-%04d" tag i in
                let got =
                  tenv.Tenv.read ~va:(base + (i * 4096))
                    ~len:(String.length want)
                in
                if Bytes.to_string got <> want then incr bad
              done;
              Bytes.of_string (string_of_int !bad) );
        ]
      ~ocalls:[]
  in
  let a = mk "thrash-A" and b = mk "thrash-B" in
  let base_a = Urts.ecall a ~id:1 ~direction:Edge.Out () in
  let base_b = Urts.ecall b ~id:1 ~direction:Edge.Out () in
  let id_a = (Urts.enclave a).Enclave.id
  and id_b = (Urts.enclave b).Enclave.id in
  (* Both write phases overflow the ~512-frame EPC, so eviction ran; the
     clock hand must have spread it over both enclaves. *)
  Alcotest.(check bool)
    (Printf.sprintf "evictions happened (%d)" (Monitor.epc_swap_count m))
    true
    (Monitor.epc_swap_count m > 0);
  Alcotest.(check bool)
    (Printf.sprintf "enclave A saw eviction (%d out)"
       (Monitor.swapped_out m ~enclave_id:id_a))
    true
    (Monitor.swapped_out m ~enclave_id:id_a > 0);
  let bad_a = Urts.ecall a ~id:2 ~data:base_a ~direction:Edge.In_out () in
  (* A's read-back faulted its pages in again, which must have pushed
     the hand into B's frames — eviction rotates, it doesn't keep
     draining A. *)
  Alcotest.(check bool)
    (Printf.sprintf "enclave B saw eviction (%d out)"
       (Monitor.swapped_out m ~enclave_id:id_b))
    true
    (Monitor.swapped_out m ~enclave_id:id_b > 0);
  let bad_b = Urts.ecall b ~id:2 ~data:base_b ~direction:Edge.In_out () in
  Alcotest.(check string) "A intact" "0" (Bytes.to_string bad_a);
  Alcotest.(check string) "B intact" "0" (Bytes.to_string bad_b);
  Alcotest.(check int) "audit clean" 0 (List.length (Monitor.audit m));
  Urts.destroy a;
  Urts.destroy b

let suite =
  [
    QCheck_alcotest.to_alcotest audit_qcheck;
    Alcotest.test_case "clock-hand spreads victims" `Quick
      test_clock_hand_spreads_victims;
    Alcotest.test_case "find_victim skips in-use frames" `Quick
      test_find_victim_respects_in_use;
    Alcotest.test_case "two enclaves thrash small EPC" `Quick
      test_two_enclaves_thrash_small_epc;
    Alcotest.test_case "multi-TCS threads" `Quick test_multi_tcs_threads;
    Alcotest.test_case "EPC overcommit roundtrip" `Quick
      test_epc_overcommit_roundtrip;
    Alcotest.test_case "EPC swap tamper" `Quick test_epc_swap_tamper_detected;
    Alcotest.test_case "EREMOVE purges swap residue" `Quick
      test_eremove_purges_swap_residue;
    Alcotest.test_case "AEX/ERESUME context restore" `Quick
      test_aex_restores_eenter_context;
    Alcotest.test_case "swap-in TLB shootdown" `Quick
      test_swap_in_shoots_down_tlb;
    Alcotest.test_case "SSA spill/restore" `Quick test_ssa_spill_restore;
    Alcotest.test_case "SSA exhaustion" `Quick test_ssa_exhaustion;
    Alcotest.test_case "hypercall ABI" `Quick test_hypercall_abi;
    Alcotest.test_case "ISA mapping (Sec. 8)" `Quick test_isa_mapping;
    Alcotest.test_case "Table-1 constants" `Quick test_world_switch_constants;
    Alcotest.test_case "audit" `Quick test_audit_clean_and_detects;
    Alcotest.test_case "measured late launch" `Quick test_launch_state;
    Alcotest.test_case "K_root persisted" `Quick test_launch_persists_root_key;
    Alcotest.test_case "PCR flooding blocks OS unseal" `Quick
      test_flooding_blocks_os_unseal;
    Alcotest.test_case "R-1 reserved memory" `Quick
      test_r1_reserved_invisible_to_normal_vm;
    Alcotest.test_case "R-3 DMA blocked" `Quick test_r3_dma_blocked;
    Alcotest.test_case "R-2 enclave confinement" `Quick test_r2_enclave_confinement;
    Alcotest.test_case "mapping attacks (Fig. 9a)" `Quick test_mapping_attacks;
    Alcotest.test_case "marshalling validation (Fig. 9b)" `Quick
      test_marshalling_validation;
    Alcotest.test_case "EINIT sigstruct checks" `Quick test_einit_rejects_bad_sigstruct;
    Alcotest.test_case "EEXIT target validation" `Quick test_eexit_target_validation;
    Alcotest.test_case "TCS busy/nesting" `Quick test_tcs_busy_and_nesting;
    Alcotest.test_case "AEX / ERESUME" `Quick test_aex_eresume;
    Alcotest.test_case "demand commit (EDMM)" `Quick test_demand_commit;
    Alcotest.test_case "EMODPR/EMODPE/EREMOVE" `Quick test_edmm_perms;
    Alcotest.test_case "P-Enclave exclusivity" `Quick test_penclave_only_self_managed;
    Alcotest.test_case "EGETKEY identity binding" `Quick test_egetkey_identity;
    Alcotest.test_case "EREPORT local attestation" `Quick test_report;
    Alcotest.test_case "measurement = SDK prediction" `Quick
      test_measurement_matches_sdk_prediction;
    Alcotest.test_case "EREMOVE scrubs and frees" `Quick test_eremove_scrubs;
  ]
