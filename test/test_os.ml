(* Primary OS: boot chain, processes, swapping, pinning, the kernel
   module, and the native/VM translation toggle. *)

open Hyperenclave

let platform ?(seed = 2000L) () = Platform.create ~seed ()

let test_boot_chain () =
  let rng = Rng.create ~seed:5L in
  let chain = Boot.default_chain rng in
  Alcotest.(check int) "five components" 5 (List.length chain);
  let clock = Cycles.create () in
  let tpm =
    Hyperenclave.Tpm.manufacture ~clock ~cost:Cost_model.default
      ~rng:(Rng.create ~seed:6L)
  in
  let events = Boot.measured_boot tpm chain in
  Alcotest.(check int) "one event per component" 5 (List.length events);
  List.iter2
    (fun (c : Boot.component) (e : Monitor.boot_event) ->
      Alcotest.(check string) "label" c.Boot.name e.Monitor.label;
      Alcotest.(check bool)
        "measurement is the image hash" true
        (Bytes.equal e.Monitor.measurement (Sha256.digest_bytes c.Boot.image)))
    chain events;
  (* PCR 0 reflects the CRTM. *)
  Alcotest.(check bool)
    "pcr extended" false
    (Bytes.equal
       (Pcr.read (Hyperenclave.Tpm.pcrs tpm) ~index:0)
       (Bytes.make 32 '\000'))

let test_boot_tamper () =
  let rng = Rng.create ~seed:5L in
  let chain = Boot.default_chain rng in
  let tampered = Boot.tamper chain ~name:"kernel" in
  List.iter2
    (fun (a : Boot.component) (b : Boot.component) ->
      if a.Boot.name = "kernel" then
        Alcotest.(check bool) "kernel image changed" false
          (Bytes.equal a.Boot.image b.Boot.image)
      else
        Alcotest.(check bool) "others unchanged" true
          (Bytes.equal a.Boot.image b.Boot.image))
    chain tampered

let test_process_memory () =
  let p = platform () in
  let k = p.Platform.kernel in
  let proc = p.Platform.proc in
  let va = Kernel.mmap k proc ~len:8192 ~populate:true in
  Kernel.proc_write k proc ~va (Bytes.of_string "user data");
  Alcotest.(check string)
    "read back" "user data"
    (Bytes.to_string (Kernel.proc_read k proc ~va ~len:9));
  (* Demand paging in the heap. *)
  let brk = Kernel.brk_grow k proc ~len:4096 in
  Kernel.proc_write k proc ~va:brk (Bytes.of_string "heap");
  Alcotest.(check string)
    "heap demand-paged" "heap"
    (Bytes.to_string (Kernel.proc_read k proc ~va:brk ~len:4));
  (* Unowned address segfaults. *)
  try
    ignore (Kernel.proc_read k proc ~va:0x10 ~len:1);
    Alcotest.fail "expected Segfault"
  with Kernel.Segfault _ -> ()

let test_swap_roundtrip () =
  let p = platform () in
  let k = p.Platform.kernel in
  let proc = p.Platform.proc in
  let va = Kernel.mmap k proc ~len:4096 ~populate:true in
  Kernel.proc_write k proc ~va (Bytes.of_string "swap me");
  (match Kernel.swap_out k proc ~vpn:(va / 4096) with
  | Kernel.Swapped -> ()
  | Kernel.Pinned_refused -> Alcotest.fail "unexpected pin refusal");
  Alcotest.(check int) "in swap" 1 (Kernel.swapped_count k);
  (* Touch faults it back in with contents intact. *)
  Alcotest.(check string)
    "swap-in preserves contents" "swap me"
    (Bytes.to_string (Kernel.proc_read k proc ~va ~len:7));
  Alcotest.(check int) "swap slot freed" 0 (Kernel.swapped_count k)

let test_pinning_refuses_swap () =
  let p = platform () in
  let k = p.Platform.kernel in
  let proc = p.Platform.proc in
  let va = Kernel.mmap k proc ~len:4096 ~populate:true in
  Kmod.ioctl_pin_range p.Platform.kmod proc ~va ~len:4096;
  (match Kernel.swap_out k proc ~vpn:(va / 4096) with
  | Kernel.Pinned_refused -> ()
  | Kernel.Swapped -> Alcotest.fail "pinned page must not swap");
  Process.unpin proc ~vpn:(va / 4096);
  match Kernel.swap_out k proc ~vpn:(va / 4096) with
  | Kernel.Swapped -> ()
  | Kernel.Pinned_refused -> Alcotest.fail "unpinned page should swap"

let test_pin_requires_resident () =
  let p = platform () in
  let proc = p.Platform.proc in
  let va = Kernel.mmap p.Platform.kernel proc ~len:4096 ~populate:false in
  Alcotest.check_raises "unpopulated pin rejected"
    (Invalid_argument
       (Printf.sprintf "ioctl_pin_range: page 0x%x not resident" (va / 4096)))
    (fun () -> Kmod.ioctl_pin_range p.Platform.kmod proc ~va ~len:4096)

let test_marshalling_buffer_pinned_by_loader () =
  (* Sec. 5.3: the uRTS pins the marshalling buffer; the OS cannot swap
     it out from under the enclave. *)
  let p = platform () in
  let handle =
    Urts.create ~kmod:p.Platform.kmod ~proc:p.Platform.proc ~rng:p.Platform.rng
      ~signer:p.Platform.signer
      ~config:(Urts.default_config Sgx_types.GU)
      ~ecalls:[ (1, fun _ _ -> Bytes.empty) ]
      ~ocalls:[]
  in
  (* Find one pinned page (any page of the ms buffer area). *)
  let pinned_count = Hashtbl.length p.Platform.proc.Process.pinned in
  Alcotest.(check bool) "loader pinned pages" true (pinned_count > 0);
  let some_pinned = Hashtbl.fold (fun vpn () _ -> Some vpn) p.Platform.proc.Process.pinned None in
  (match some_pinned with
  | Some vpn -> (
      match Kernel.swap_out p.Platform.kernel p.Platform.proc ~vpn with
      | Kernel.Pinned_refused -> ()
      | Kernel.Swapped -> Alcotest.fail "ms page swapped")
  | None -> Alcotest.fail "no pinned page");
  Urts.destroy handle

(* A failed pin ioctl must unwind every pin it already took (PR 4
   regression: the old code returned with the prefix still pinned, so
   those pages stayed unreclaimable for the life of the process). *)
let test_pin_range_unwinds_on_failure () =
  let p = platform () in
  let proc = p.Platform.proc in
  let before = Process.pinned_count proc in
  (* Three resident pages, then swap the third out so it is no longer
     resident: the pin walk succeeds twice, then fails on page 3. *)
  let va = Kernel.mmap p.Platform.kernel proc ~len:(3 * 4096) ~populate:true in
  (match Kernel.swap_out p.Platform.kernel proc ~vpn:((va / 4096) + 2) with
  | Kernel.Swapped -> ()
  | Kernel.Pinned_refused -> Alcotest.fail "fresh page refused swap");
  (try
     Kmod.ioctl_pin_range p.Platform.kmod proc ~va ~len:(3 * 4096);
     Alcotest.fail "pin over a non-resident page must fail"
   with Invalid_argument _ -> ());
  Alcotest.(check int)
    "failed pin left no residue" before
    (Process.pinned_count proc);
  (* The unwound pages are still swappable — nothing leaked a pin. *)
  (match Kernel.swap_out p.Platform.kernel proc ~vpn:(va / 4096) with
  | Kernel.Swapped -> ()
  | Kernel.Pinned_refused -> Alcotest.fail "unwound page still pinned")

(* Destroying an enclave must unpin its marshalling buffer (PR 4
   regression: EREMOVE freed the EPC but the ms pins leaked, pinning a
   256 KB region per destroyed enclave forever). *)
let test_destroy_unpins_marshalling_buffer () =
  let p = platform () in
  let proc = p.Platform.proc in
  let before = Process.pinned_count proc in
  let handle =
    Urts.create ~kmod:p.Platform.kmod ~proc ~rng:p.Platform.rng
      ~signer:p.Platform.signer
      ~config:(Urts.default_config Sgx_types.GU)
      ~ecalls:[ (1, fun _ input -> input) ]
      ~ocalls:[]
  in
  Alcotest.(check bool)
    "loader pinned the ms buffer" true
    (Process.pinned_count proc > before);
  ignore (Urts.ecall handle ~id:1 ~data:(Bytes.of_string "x") ~direction:Edge.In_out ());
  Urts.destroy handle;
  Alcotest.(check int)
    "destroy unpinned everything" before
    (Process.pinned_count proc);
  (* Repeat to show it holds across create/destroy cycles. *)
  let handle2 =
    Urts.create ~kmod:p.Platform.kmod ~proc ~rng:p.Platform.rng
      ~signer:p.Platform.signer
      ~config:{ (Urts.default_config Sgx_types.GU) with Urts.code_seed = "pin2" }
      ~ecalls:[ (1, fun _ input -> input) ]
      ~ocalls:[]
  in
  Urts.destroy handle2;
  Alcotest.(check int)
    "second cycle also clean" before
    (Process.pinned_count proc)

(* The batched hypercall: one EBATCH carries several requests and the
   results come back slot for slot, in order. *)
let test_ioctl_batch () =
  let p = platform () in
  let handle =
    Urts.create ~kmod:p.Platform.kmod ~proc:p.Platform.proc ~rng:p.Platform.rng
      ~signer:p.Platform.signer
      ~config:(Urts.default_config Sgx_types.GU)
      ~ecalls:[ (1, fun _ input -> input) ]
      ~ocalls:[]
  in
  let enclave = Urts.enclave handle in
  let results =
    Kmod.ioctl_batch p.Platform.kmod
      [
        Hypercall.Ereport { enclave; report_data = Bytes.of_string "batch" };
        Hypercall.Ereport { enclave; report_data = Bytes.of_string "second" };
      ]
  in
  (match results with
  | [ Hypercall.Report r1; Hypercall.Report r2 ] ->
      Alcotest.(check bool)
        "reports verify" true
        (Monitor.verify_report p.Platform.monitor r1
        && Monitor.verify_report p.Platform.monitor r2);
      Alcotest.(check string)
        "slots in order" "second"
        (Bytes.sub_string r2.Sgx_types.report_data 0 6)
  | _ -> Alcotest.fail "batch results out of shape");
  Urts.destroy handle

(* The batched ORET path (PR 6): the monitor bounds the reply-ring slot
   count before touching the parked TCS, so a forged OBATCH is refused
   as a security violation and the enclave stays serviceable. *)
let test_ioctl_obatch_bounds () =
  let p = platform () in
  let handle =
    Urts.create ~kmod:p.Platform.kmod ~proc:p.Platform.proc ~rng:p.Platform.rng
      ~signer:p.Platform.signer
      ~config:(Urts.default_config Sgx_types.GU)
      ~ecalls:[ (1, fun _ input -> input) ]
      ~ocalls:[]
  in
  let enclave = Urts.enclave handle in
  let tcs = Option.get (Enclave.free_tcs enclave) in
  List.iter
    (fun slots ->
      try
        Kmod.ioctl_obatch p.Platform.kmod ~enclave ~tcs ~return_va:0 ~slots;
        Alcotest.failf "OBATCH with %d slots accepted" slots
      with Monitor.Security_violation _ -> ())
    [ 0; -1; 65; 1024 ];
  let out = Urts.ecall handle ~id:1 ~data:(Bytes.of_string "ok") ~direction:Edge.In_out () in
  Alcotest.(check string) "enclave survives refused OBATCH" "ok" (Bytes.to_string out);
  Urts.destroy handle

let test_fork_exit_frees_frames () =
  let p = platform () in
  let k = p.Platform.kernel in
  let child = Kernel.spawn k in
  Kernel.switch_to k child;
  let va = Kernel.mmap k child ~len:(16 * 4096) ~populate:true in
  ignore va;
  Kernel.exit_process k child;
  Alcotest.(check bool) "child dead" false child.Process.alive;
  Kernel.switch_to k p.Platform.proc

let test_with_translation () =
  let p = platform () in
  let k = p.Platform.kernel in
  Alcotest.(check bool) "demoted after launch" true (Kernel.demoted k);
  let nested_inside =
    Kernel.with_translation k ~nested:false (fun () -> Mmu.nested p.Platform.cpu)
  in
  Alcotest.(check bool) "native mode strips NPT" false nested_inside;
  let nested_back = Mmu.nested p.Platform.cpu in
  Alcotest.(check bool) "restored" true nested_back

let test_controlled_channel_absence () =
  (* The kernel records its own processes' faults, but enclave faults are
     handled by the monitor: nothing enclave-related ever shows up in the
     kernel's trace. *)
  let p = platform () in
  let handle =
    Urts.create ~kmod:p.Platform.kmod ~proc:p.Platform.proc ~rng:p.Platform.rng
      ~signer:p.Platform.signer
      ~config:(Urts.default_config Sgx_types.GU)
      ~ecalls:
        [
          ( 1,
            fun (tenv : Tenv.t) _ ->
              (* Fault in a bunch of fresh enclave pages. *)
              for i = 0 to 9 do
                tenv.Tenv.write
                  ~va:(0x1_0000_0000 + ((1000 + i) * 4096))
                  (Bytes.of_string "x")
              done;
              Bytes.empty );
        ]
      ~ocalls:[]
  in
  let trace_before = List.length (Kernel.pf_trace p.Platform.kernel) in
  ignore (Urts.ecall handle ~id:1 ~direction:Edge.In ());
  let trace_after = List.length (Kernel.pf_trace p.Platform.kernel) in
  Alcotest.(check int)
    "OS saw no enclave faults" trace_before trace_after;
  Alcotest.(check bool)
    "the faults did happen" true
    ((Urts.stats handle).Enclave.page_faults >= 10);
  Urts.destroy handle

let test_round_robin () =
  let p = platform () in
  let k = p.Platform.kernel in
  let a = Kernel.spawn k and b = Kernel.spawn k and c = Kernel.spawn k in
  List.iter (Kernel.enqueue k) [ a; b; c ];
  Kernel.enqueue k a (* idempotent *);
  let order =
    List.init 6 (fun _ ->
        match Kernel.schedule k with
        | Some proc -> proc.Process.pid
        | None -> -1)
  in
  Alcotest.(check (list int))
    "fair rotation"
    [ a.Process.pid; b.Process.pid; c.Process.pid;
      a.Process.pid; b.Process.pid; c.Process.pid ]
    order;
  Alcotest.(check bool)
    "scheduled process is on the CPU" true
    (Kernel.current k = Some c);
  Kernel.dequeue k b;
  let next_two =
    List.init 2 (fun _ ->
        match Kernel.schedule k with Some p -> p.Process.pid | None -> -1)
  in
  Alcotest.(check (list int)) "dequeue removes" [ a.Process.pid; c.Process.pid ]
    next_two;
  Kernel.dequeue k a;
  Kernel.dequeue k c;
  Alcotest.(check bool) "empty queue" true (Kernel.schedule k = None);
  Kernel.switch_to k p.Platform.proc

let suite =
  [
    Alcotest.test_case "round-robin scheduler" `Quick test_round_robin;
    Alcotest.test_case "boot chain" `Quick test_boot_chain;
    Alcotest.test_case "boot tamper helper" `Quick test_boot_tamper;
    Alcotest.test_case "process memory" `Quick test_process_memory;
    Alcotest.test_case "swap out/in" `Quick test_swap_roundtrip;
    Alcotest.test_case "pinning refuses swap" `Quick test_pinning_refuses_swap;
    Alcotest.test_case "pin requires residency" `Quick test_pin_requires_resident;
    Alcotest.test_case "ms buffer pinned by loader" `Quick
      test_marshalling_buffer_pinned_by_loader;
    Alcotest.test_case "failed pin_range unwinds" `Quick
      test_pin_range_unwinds_on_failure;
    Alcotest.test_case "destroy unpins ms buffer" `Quick
      test_destroy_unpins_marshalling_buffer;
    Alcotest.test_case "EBATCH ioctl" `Quick test_ioctl_batch;
    Alcotest.test_case "OBATCH slot bounds" `Quick test_ioctl_obatch_bounds;
    Alcotest.test_case "fork/exit frames" `Quick test_fork_exit_frees_frames;
    Alcotest.test_case "with_translation toggle" `Quick test_with_translation;
    Alcotest.test_case "no controlled channel on enclaves" `Quick
      test_controlled_channel_absence;
  ]
