open Hyperenclave_hw
open Hyperenclave_crypto
module Tpm = Hyperenclave_tpm.Tpm
module Pcr = Hyperenclave_tpm.Pcr
module Telemetry = Hyperenclave_obs.Telemetry
module Fault = Hyperenclave_fault.Fault

exception Security_violation of string

let log_src = Logs.Src.create "hyperenclave.monitor" ~doc:"RustMonitor events"

module Log = (val Logs.src_log log_src)

let violation fmt =
  Printf.ksprintf
    (fun message ->
      Log.warn (fun k -> k "security violation: %s" message);
      raise (Security_violation message))
    fmt

type config = {
  reserved_base_frame : int;
  reserved_nframes : int;
  monitor_private_frames : int;
}

type boot_event = { pcr_index : int; label : string; measurement : bytes }

type quote = {
  report : Sgx_types.report;
  ems : bytes;
  hapk : Signature.public_key;
  tpm_quote : Tpm.quote;
  events : boot_event list;
}

type t = {
  clock : Cycles.t;
  cost : Cost_model.t;
  rng : Rng.t;
  mem : Phys_mem.t;
  cpu : Mmu.t;
  iommu : Iommu.t;
  tpm : Tpm.t;
  config : config;
  epc : Epc.t;
  normal_npt : Page_table.t;
  mutable launched : bool;
  mutable k_root : bytes;
  mutable att_private : Signature.private_key option;
  mutable hapk : Signature.public_key;
  mutable boot_log : boot_event list;
  enclaves : (int, Enclave.t) Hashtbl.t;
  mutable next_id : int;
  mutable current : Enclave.t option;
  mutable current_tcs : Sgx_types.tcs option;
  mutable saved_normal : (Page_table.t * Page_table.t option) option;
  (* EPC overcommit: evicted pages are sealed and handed to untrusted
     storage through the kernel module's backend (EWB/ELDU analogue). *)
  mutable swap_backend : swap_backend option;
  swapped : (int * int, unit) Hashtbl.t; (* (enclave, vpn) currently out *)
  (* Monotonic per-(enclave, vpn) write-back counter, the analogue of
     EWB's version array.  The current value is sealed into the blob's
     AAD at eviction and demanded back at swap-in, so re-serving an
     older authentic blob for the same page (rollback) fails
     authentication instead of silently restoring stale state. *)
  swap_versions : (int * int, int) Hashtbl.t;
  mutable epc_swaps : int;
  telemetry : Telemetry.t;
}

and swap_backend = {
  store : string -> bytes -> unit;
  load : string -> bytes option;
  delete : string -> unit;
}

(* PCR allocation: 0 CRTM, 1 BIOS, 2 grub, 3 kernel, 4 initramfs,
   10 hypervisor image, 11 hapk, 16 runtime flood target. *)
let pcr_hypervisor = 10
let pcr_hapk = 11
let pcr_flood = 16
let seal_pcr_selection = [ 0; 1; 2; 3; 4; pcr_hypervisor; pcr_flood ]
let quote_pcr_selection = [ 0; 1; 2; 3; 4; pcr_hypervisor; pcr_hapk ]

let create ~clock ~cost ~rng ~mem ~cpu ~iommu ~tpm config =
  if config.monitor_private_frames >= config.reserved_nframes then
    invalid_arg "Monitor.create: private frames exceed reservation";
  let epc =
    Epc.create
      ~base_frame:(config.reserved_base_frame + config.monitor_private_frames)
      ~nframes:(config.reserved_nframes - config.monitor_private_frames)
  in
  {
    clock;
    cost;
    rng;
    mem;
    cpu;
    iommu;
    tpm;
    config;
    epc;
    normal_npt = Page_table.create ();
    launched = false;
    k_root = Bytes.empty;
    att_private = None;
    hapk = Bytes.empty;
    boot_log = [];
    enclaves = Hashtbl.create 16;
    next_id = 1;
    current = None;
    current_tcs = None;
    saved_normal = None;
    swap_backend = None;
    swapped = Hashtbl.create 64;
    swap_versions = Hashtbl.create 64;
    epc_swaps = 0;
    telemetry = Telemetry.create ();
  }

(* --- measured late launch ------------------------------------------------ *)

let launch t ~boot_log ~sealed_root_key =
  if t.launched then violation "launch: already launched";
  (* Normal VM nested table: identity over all of DRAM except the
     reserved region (R-1). *)
  let total_frames = Phys_mem.frames t.mem in
  let res_lo = t.config.reserved_base_frame in
  let res_hi = res_lo + t.config.reserved_nframes in
  for frame = 0 to total_frames - 1 do
    if frame < res_lo || frame >= res_hi then
      Page_table.map t.normal_npt ~vpn:frame ~frame ~perms:Page_table.rwx
  done;
  (* R-3: no device may ever DMA into the reservation. *)
  Iommu.revoke_everywhere t.iommu ~first_frame:res_lo
    ~nframes:t.config.reserved_nframes;
  (* K_root: TPM-rooted platform secret (Sec. 3.3). *)
  let outcome, k_root =
    match sealed_root_key with
    | Some blob -> (
        match Tpm.unseal t.tpm blob with
        | key -> (`Resumed, key)
        | exception Tpm.Unseal_failed msg ->
            violation "launch: K_root unseal failed (%s)" msg)
    | None ->
        let key = Tpm.random t.tpm 32 in
        let blob = Tpm.seal t.tpm ~pcr_selection:seal_pcr_selection key in
        (`First_boot blob, key)
  in
  t.k_root <- k_root;
  (* Attestation keypair derived from K_root; public half measured. *)
  let att_private =
    Signature.import_private (Hmac.derive ~key:k_root ~info:"attestation-key")
  in
  t.att_private <- Some att_private;
  t.hapk <- Signature.public_of_private att_private;
  Tpm.pcr_extend t.tpm ~index:pcr_hapk (Sha256.digest_bytes t.hapk);
  t.boot_log <-
    boot_log
    @ [
        {
          pcr_index = pcr_hapk;
          label = "hapk";
          measurement = Sha256.digest_bytes t.hapk;
        };
      ];
  (* Flood the runtime PCR so the demoted OS can never unseal K_root. *)
  Tpm.pcr_extend t.tpm ~index:pcr_flood (Bytes.of_string "hyperenclave-flood");
  t.launched <- true;
  Log.info (fun k ->
      k "launched: reserved frames [0x%x, 0x%x), %s K_root" res_lo res_hi
        (match outcome with `First_boot _ -> "fresh" | `Resumed -> "unsealed"));
  outcome

let launched t = t.launched
let normal_npt t = t.normal_npt
let hapk t = t.hapk
let boot_log t = t.boot_log

let require_launched t op = if not t.launched then violation "%s: monitor not launched" op

let set_swap_backend t ~store ~load ~delete =
  t.swap_backend <- Some { store; load; delete }

let epc_swap_count t = t.epc_swaps
let telemetry t = t.telemetry

let swapped_out t ~enclave_id =
  Hashtbl.fold
    (fun (id, _) () acc -> if id = enclave_id then acc + 1 else acc)
    t.swapped 0

(* Shorthand for the instrumentation below: count an event, and record
   the simulated cycles an operation consumed in its histogram. *)
let count t name = Telemetry.incr t.telemetry name

let timed t name f =
  let start = Cycles.now t.clock in
  let result = f () in
  Telemetry.observe t.telemetry name (Cycles.now t.clock - start);
  result

let trace_switch t name (enclave : Enclave.t) =
  Telemetry.trace t.telemetry ~at:(Cycles.now t.clock)
    ~detail:(Printf.sprintf "enclave %d" enclave.Enclave.id)
    name
let swap_key t = Hmac.derive ~key:t.k_root ~info:"epc-swap-key"
let swap_slot_name id vpn = Printf.sprintf "heswap:%d:%x" id vpn

let parse_perms s : Page_table.perms =
  if String.length s <> 4 then violation "swap-in: malformed permissions";
  {
    Page_table.write = s.[1] = 'w';
    exec = s.[2] = 'x';
    user = s.[3] = 'u';
  }

(* A frame the running machinery is actively relying on: any page of the
   enclave currently on the vCPU (mid-ECALL state the monitor would fault
   on immediately), or a page inside the SSA window of a TCS with a live
   thread (entered, or parked mid-AEX with spilled register state).
   [Epc.find_victim] treats this as a preference, not a hard ban, so a
   pool that is entirely in use still yields a victim rather than a
   spurious exhaustion violation. *)
let frame_in_active_use t _frame (info : Epc.frame_info) =
  match info.Epc.owner with
  | Epc.Monitor -> true
  | Epc.Enclave id -> (
      (match t.current with
      | Some running when running.Enclave.id = id -> true
      | Some _ | None -> false)
      ||
      match Hashtbl.find_opt t.enclaves id with
      | None -> false
      | Some enclave ->
          List.exists
            (fun (tcs : Sgx_types.tcs) ->
              (tcs.Sgx_types.busy || tcs.Sgx_types.current_ssa > 0)
              && info.Epc.vpn >= tcs.Sgx_types.ssa_base_vpn
              && info.Epc.vpn < tcs.Sgx_types.ssa_base_vpn + tcs.Sgx_types.nssa)
            enclave.Enclave.tcs_list)

let epc_victim t ~prefer_not =
  Epc.find_victim ~in_use:(frame_in_active_use t) t.epc ~prefer_not

(* Evict one regular enclave page: seal it (confidentiality + integrity,
   like EWB's AES-GMAC'd version-tracked write-back), hand the ciphertext
   to untrusted storage, and reclaim the frame. *)
let evict_one_epc t ~prefer_not =
  let store =
    match t.swap_backend with
    | Some backend -> backend.store
    | None -> violation "EPC exhausted and no swap backend registered"
  in
  match epc_victim t ~prefer_not with
  | None -> violation "EPC exhausted: no evictable page"
  | Some (frame, { Epc.owner; vpn; _ }) ->
      let owner_id =
        match owner with Epc.Enclave id -> id | Epc.Monitor -> assert false
      in
      let victim =
        match Hashtbl.find_opt t.enclaves owner_id with
        | Some enclave -> enclave
        | None -> violation "EPC metadata names a dead enclave"
      in
      let perms =
        match Page_table.lookup victim.Enclave.gpt ~vpn with
        | Some entry -> entry.Page_table.perms
        | None -> violation "evict: victim page not mapped"
      in
      let content = Phys_mem.read_page t.mem ~frame in
      let version =
        1
        + Option.value ~default:0
            (Hashtbl.find_opt t.swap_versions (owner_id, vpn))
      in
      Hashtbl.replace t.swap_versions (owner_id, vpn) version;
      let aad =
        Bytes.of_string
          (Printf.sprintf "%d:%x:%s:%d" owner_id vpn
             (Format.asprintf "%a" Page_table.pp_perms perms)
             version)
      in
      let blob =
        Authenc.encode
          (Authenc.seal ~key:(swap_key t) ~aad ~nonce:(Rng.bytes t.rng 12)
             content)
      in
      store (swap_slot_name owner_id vpn) blob;
      Page_table.unmap victim.Enclave.gpt ~vpn;
      (match victim.Enclave.npt with
      | Some npt -> Page_table.unmap npt ~vpn:frame
      | None -> ());
      Tlb.invalidate (Mmu.tlb t.cpu) ~vpn;
      Phys_mem.zero_page t.mem ~frame;
      Epc.free t.epc frame;
      Hashtbl.replace t.swapped (owner_id, vpn) ();
      t.epc_swaps <- t.epc_swaps + 1;
      Cycles.tick t.clock t.cost.epc_swap_page;
      count t "epc.evict";
      count t "tlb.invlpg";
      Telemetry.trace t.telemetry ~at:(Cycles.now t.clock)
        ~detail:(Printf.sprintf "enclave %d vpn 0x%x" owner_id vpn)
        "epc.evict";
      Log.debug (fun k ->
          k "EPC eviction: enclave %d page 0x%x sealed out" owner_id vpn)

(* Allocate an EPC frame, evicting if the pool is dry.  The fault site
   fires before the allocation mutates anything: injected transient
   pressure behaves exactly like an exhausted pool — evict and retry —
   so chaos runs exercise the EWB path even while frames remain; a
   permanent fault unwinds as a typed error with the pool untouched. *)
let alloc_epc t ~owner ~page_type ~vpn ~prefer_not =
  count t "epc.alloc";
  (match Fault.check "epc.alloc" with
  | None -> ()
  | Some Fault.Transient ->
      (* Simulated EPC pressure: absorb it the way real exhaustion is
         absorbed, by writing back a victim page (EWB).  With nothing
         evictable yet the pool has free frames, so the pressure is
         vacuous and the allocation below just proceeds. *)
      if t.swap_backend <> None && epc_victim t ~prefer_not <> None
      then evict_one_epc t ~prefer_not;
      Fault.survived "epc.alloc"
  | Some (Fault.Permanent as kind) ->
      raise (Fault.Injected { site = "epc.alloc"; kind }));
  match Epc.alloc t.epc ~owner ~page_type ~vpn with
  | frame -> frame
  | exception Epc.Epc_exhausted ->
      evict_one_epc t ~prefer_not;
      Epc.alloc t.epc ~owner ~page_type ~vpn

(* --- enclave lifecycle --------------------------------------------------- *)

let ecreate t secs =
  require_launched t "ecreate";
  count t "hypercall.ecreate";
  Cycles.tick t.clock t.cost.hypercall;
  let id = t.next_id in
  t.next_id <- id + 1;
  let enclave = Enclave.make ~id ~secs in
  Hashtbl.replace t.enclaves id enclave;
  Log.debug (fun k ->
      k "ECREATE: enclave %d, %s, ELRANGE [0x%x, +0x%x)" id
        (Sgx_types.mode_name secs.Sgx_types.attributes.Sgx_types.mode)
        secs.Sgx_types.base_va secs.Sgx_types.size);
  enclave

let require_building (enclave : Enclave.t) op =
  match enclave.lifecycle with
  | Enclave.Uninitialized -> ()
  | Enclave.Initialized | Enclave.Dead ->
      violation "%s: enclave %d is not under construction" op enclave.id

let require_initialized (enclave : Enclave.t) op =
  match enclave.lifecycle with
  | Enclave.Initialized -> ()
  | Enclave.Uninitialized | Enclave.Dead ->
      violation "%s: enclave %d is not initialized" op enclave.id

(* Install a page in the enclave's translation.  GU/P: guest table maps
   vpn -> gpa (= host frame number) and the enclave's private nested table
   maps only the enclave's own frames, which is how R-2 holds at the
   nested level.  HU: single-level table maps vpn -> host frame. *)
let install_mapping (enclave : Enclave.t) ~vpn ~frame ~perms =
  Page_table.map enclave.gpt ~vpn ~frame ~perms;
  match enclave.npt with
  | None -> ()
  | Some npt -> Page_table.map npt ~vpn:frame ~frame ~perms:Page_table.rwx

let measure_page t (enclave : Enclave.t) ~vpn ~perms ~page_type ~content =
  Enclave.measure_chunk enclave (Measure.eadd_header ~vpn ~perms ~page_type);
  Enclave.measure_chunk enclave content;
  Cycles.tick t.clock
    (t.cost.sha256_per_block * (Addr.page_size / 64))

let eadd t (enclave : Enclave.t) ~vpn ~content ~perms ~page_type =
  require_launched t "eadd";
  require_building enclave "eadd";
  count t "hypercall.eadd";
  Cycles.tick t.clock t.cost.hypercall;
  let va = Addr.base_of_page vpn in
  if not (Enclave.in_elrange enclave ~va) then
    violation "eadd: page 0x%x outside ELRANGE" vpn;
  if Page_table.lookup enclave.gpt ~vpn <> None then
    violation "eadd: page 0x%x already mapped (aliasing attempt)" vpn;
  if Bytes.length content > Addr.page_size then
    violation "eadd: content exceeds a page";
  let frame =
    alloc_epc t ~owner:(Epc.Enclave enclave.id) ~page_type ~vpn
      ~prefer_not:(Some enclave.id)
  in
  let page = Bytes.make Addr.page_size '\000' in
  Bytes.blit content 0 page 0 (Bytes.length content);
  Phys_mem.write_page t.mem ~frame page;
  Cycles.tick t.clock (Cost_model.copy_cost t.cost Addr.page_size);
  install_mapping enclave ~vpn ~frame ~perms;
  Cycles.tick t.clock t.cost.pte_update;
  measure_page t enclave ~vpn ~perms ~page_type ~content:page

let eadd_tcs t (enclave : Enclave.t) ~vpn ~entry_va ~nssa ~ssa_base_vpn =
  require_building enclave "eadd_tcs";
  if nssa < 1 then violation "eadd_tcs: need at least one SSA frame";
  count t "hypercall.eadd_tcs";
  let content =
    Bytes.of_string (Printf.sprintf "tcs:%x:%d:%x" entry_va nssa ssa_base_vpn)
  in
  eadd t enclave ~vpn ~content ~perms:Page_table.rw ~page_type:Sgx_types.Pt_tcs;
  enclave.tcs_list <-
    {
      Sgx_types.tcs_vpn = vpn;
      entry_va;
      nssa;
      ssa_base_vpn;
      busy = false;
      current_ssa = 0;
    }
    :: enclave.tcs_list

let einit t (enclave : Enclave.t) ~sigstruct ~marshalling =
  require_launched t "einit";
  require_building enclave "einit";
  count t "hypercall.einit";
  Cycles.tick t.clock t.cost.hypercall;
  (* Validate-then-commit: every check below runs before any state is
     mutated, so a refused launch — forged token, bad marshalling list —
     leaves the enclave exactly as it was: measurement still open (a
     later legitimate EINIT can succeed) and no stray mappings from a
     half-validated page list. *)
  if not (Sgx_types.sigstruct_valid sigstruct) then
    violation "einit: SIGSTRUCT signature invalid";
  let mrenclave = Enclave.peek_measurement enclave in
  if not (Sha256.equal mrenclave sigstruct.Sgx_types.enclave_hash) then
    violation "einit: measurement mismatch";
  (* Bind the marshalling buffer (Sec. 5.3).  The OS supplies the pinned
     VA->frame pairs; the monitor distrusts every one of them. *)
  let base_va, size, pages = marshalling in
  if size <= 0 || not (Addr.is_aligned base_va) || not (Addr.is_aligned size)
  then violation "einit: malformed marshalling buffer";
  let el_lo = enclave.secs.Sgx_types.base_va in
  let el_hi = el_lo + enclave.secs.Sgx_types.size in
  if base_va < el_hi && base_va + size > el_lo then
    violation "einit: marshalling buffer overlaps ELRANGE";
  if List.length pages <> size / Addr.page_size then
    violation "einit: marshalling page list does not cover the buffer";
  List.iter
    (fun (vpn, frame) ->
      if Addr.base_of_page vpn < base_va || Addr.base_of_page vpn >= base_va + size
      then violation "einit: marshalling page 0x%x outside declared range" vpn;
      if Epc.in_pool t.epc frame then
        violation
          "einit: marshalling frame 0x%x lies in reserved memory (Fig. 9b)"
          frame;
      if frame >= t.config.reserved_base_frame
         && frame < t.config.reserved_base_frame + t.config.reserved_nframes
      then violation "einit: marshalling frame 0x%x in monitor memory" frame)
    pages;
  (* All checks passed; commit. *)
  List.iter
    (fun (vpn, frame) ->
      install_mapping enclave ~vpn ~frame ~perms:Page_table.rw;
      Cycles.tick t.clock t.cost.pte_update)
    pages;
  Enclave.commit_measurement enclave mrenclave;
  enclave.marshalling <- Some (base_va, size);
  enclave.mrsigner <- Sgx_types.mrsigner_of sigstruct;
  enclave.isv_prod_id <- sigstruct.Sgx_types.isv_prod_id;
  enclave.isv_svn <- sigstruct.Sgx_types.isv_svn;
  enclave.lifecycle <- Enclave.Initialized;
  Log.info (fun k ->
      k "EINIT: enclave %d initialized, MRENCLAVE %s, %d EPC pages" enclave.id
        (Sha256.to_hex mrenclave)
        (Epc.used_by t.epc ~enclave_id:enclave.id))

let eremove t (enclave : Enclave.t) =
  count t "hypercall.eremove";
  Cycles.tick t.clock t.cost.hypercall;
  if enclave.entered then violation "eremove: enclave is running";
  let frames = Epc.free_enclave t.epc ~enclave_id:enclave.id in
  List.iter (fun frame -> Phys_mem.zero_page t.mem ~frame) frames;
  (* Pages the monitor evicted for this enclave still sit sealed on the
     untrusted store; purge both the (enclave, vpn) bookkeeping and the
     blobs themselves, or a future enclave reusing the id could be fed a
     stale (if authentic) page and the backend leaks ciphertexts forever. *)
  let stale =
    Hashtbl.fold
      (fun ((id, _) as key) () acc -> if id = enclave.id then key :: acc else acc)
      t.swapped []
  in
  List.iter
    (fun (id, vpn) ->
      Hashtbl.remove t.swapped (id, vpn);
      match t.swap_backend with
      | Some backend -> backend.delete (swap_slot_name id vpn)
      | None -> ())
    stale;
  (* Version counters go with the enclave: a future enclave reusing the
     id starts its write-back history from scratch. *)
  let dead_versions =
    Hashtbl.fold
      (fun ((id, _) as key) _ acc -> if id = enclave.id then key :: acc else acc)
      t.swap_versions []
  in
  List.iter (Hashtbl.remove t.swap_versions) dead_versions;
  enclave.lifecycle <- Enclave.Dead;
  Hashtbl.remove t.enclaves enclave.id;
  Log.debug (fun k ->
      k "EREMOVE: enclave %d, %d frames scrubbed, %d swapped blobs purged"
        enclave.id (List.length frames) (List.length stale))

(* --- world switches ------------------------------------------------------ *)

let enter_context t (enclave : Enclave.t) =
  (match t.saved_normal with
  | Some _ -> ()
  | None -> t.saved_normal <- Some (Mmu.gpt t.cpu, Mmu.npt t.cpu));
  match enclave.npt with
  | Some npt -> Mmu.switch_context t.cpu ~gpt:enclave.gpt ~npt ()
  | None -> Mmu.switch_context t.cpu ~gpt:enclave.gpt ()

let leave_context t =
  match t.saved_normal with
  | None -> ()
  | Some (gpt, npt) ->
      (match npt with
      | Some npt -> Mmu.switch_context t.cpu ~gpt ~npt ()
      | None -> Mmu.switch_context t.cpu ~gpt ());
      t.saved_normal <- None

let eenter t (enclave : Enclave.t) ~(tcs : Sgx_types.tcs) ~return_va =
  require_initialized enclave "eenter";
  (match t.current with
  | Some running -> violation "eenter: enclave %d already on this vCPU" running.id
  | None -> ());
  if tcs.busy then violation "eenter: TCS 0x%x is busy" tcs.tcs_vpn;
  count t "switch.eenter";
  trace_switch t "eenter" enclave;
  timed t "cycles.eenter" (fun () ->
      (* switch_context below charges the TLB flush that is part of the
         composed EENTER cost. *)
      Cycles.tick t.clock
        (World_switch.eenter_cost t.cost (Enclave.mode enclave)
        - t.cost.tlb_flush);
      tcs.busy <- true;
      enclave.entered <- true;
      enclave.return_va <- return_va;
      enclave.regs <- Vcpu.fresh ~entry:tcs.entry_va;
      enclave.stats.ecalls <- enclave.stats.ecalls + 1;
      t.current <- Some enclave;
      t.current_tcs <- Some tcs;
      enter_context t enclave)

let eexit t (enclave : Enclave.t) ~target_va =
  (match t.current with
  | Some running when running.id = enclave.id -> ()
  | Some _ | None -> violation "eexit: enclave %d is not running" enclave.id);
  (* Sec. 6: EEXIT is emulated, so arbitrary continuation addresses —
     the enclave-malware springboard — are rejected here. *)
  if target_va <> enclave.return_va then
    violation "eexit: target 0x%x does not match the recorded return point"
      target_va;
  count t "switch.eexit";
  trace_switch t "eexit" enclave;
  timed t "cycles.eexit" (fun () ->
      Cycles.tick t.clock
        (World_switch.eexit_cost t.cost (Enclave.mode enclave)
        - t.cost.tlb_flush);
      (match t.current_tcs with
      | Some tcs -> tcs.busy <- false
      | None -> ());
      enclave.entered <- false;
      t.current <- None;
      t.current_tcs <- None;
      leave_context t)

let aex t (enclave : Enclave.t) =
  (match t.current with
  | Some running when running.id = enclave.id -> ()
  | Some _ | None -> violation "aex: enclave %d is not running" enclave.id);
  (* Fault site before the SSA spill: an injected fault models AEX
     delivery failing at the trap gate.  The enclave is still entered and
     current, so the caller's cleanup path (a clean EEXIT) restores the
     normal context without leaving a half-spilled SSA frame. *)
  Fault.point "switch.aex";
  count t "switch.aex";
  trace_switch t "aex" enclave;
  let aex_start = Cycles.now t.clock in
  Cycles.tick t.clock
    (World_switch.aex_cost t.cost (Enclave.mode enclave) - t.cost.tlb_flush);
  (* The interrupted TCS stays busy; the register state spills into its
     next SSA frame, which lives in EPC — invisible to the primary OS. *)
  (match t.current_tcs with
  | Some tcs ->
      if tcs.Sgx_types.current_ssa >= tcs.Sgx_types.nssa then
        violation "aex: SSA frames exhausted on TCS 0x%x" tcs.Sgx_types.tcs_vpn;
      let ssa_vpn = tcs.Sgx_types.ssa_base_vpn + tcs.Sgx_types.current_ssa in
      (match Page_table.lookup enclave.gpt ~vpn:ssa_vpn with
      | Some entry ->
          Phys_mem.write_bytes t.mem
            (Addr.base_of_page entry.Page_table.frame)
            (Vcpu.serialize enclave.regs)
      | None -> violation "aex: SSA page 0x%x not mapped" ssa_vpn);
      tcs.current_ssa <- tcs.current_ssa + 1
  | None -> ());
  t.current_tcs <- None;
  enclave.entered <- false;
  enclave.stats.aexs <- enclave.stats.aexs + 1;
  t.current <- None;
  (* The normal context is restored but stays recorded so the eventual
     EEXIT (after ERESUME) returns to the context saved at EENTER;
     leave_context clears the record, so re-save it. *)
  let saved = t.saved_normal in
  leave_context t;
  t.saved_normal <- saved;
  Telemetry.observe t.telemetry "cycles.aex" (Cycles.now t.clock - aex_start)

let eresume t (enclave : Enclave.t) ~(tcs : Sgx_types.tcs) =
  require_initialized enclave "eresume";
  (match t.current with
  | Some running -> violation "eresume: enclave %d already running" running.id
  | None -> ());
  if tcs.current_ssa = 0 then violation "eresume: no interrupted state to resume";
  (* Fault site before the SSA pop: the interrupted state stays intact on
     its SSA frame, so the SDK's bounded-retry path can re-issue the
     ERESUME and land in the same saved context. *)
  Fault.point "switch.eresume";
  count t "switch.eresume";
  trace_switch t "eresume" enclave;
  let eresume_start = Cycles.now t.clock in
  Cycles.tick t.clock
    (World_switch.eresume_cost t.cost (Enclave.mode enclave) - t.cost.tlb_flush);
  tcs.current_ssa <- tcs.current_ssa - 1;
  (* Restore the spilled register state from the SSA frame. *)
  let ssa_vpn = tcs.Sgx_types.ssa_base_vpn + tcs.Sgx_types.current_ssa in
  (match Page_table.lookup enclave.gpt ~vpn:ssa_vpn with
  | Some entry -> (
      match
        Vcpu.deserialize
          (Phys_mem.read_bytes t.mem
             (Addr.base_of_page entry.Page_table.frame)
             Vcpu.ssa_frame_bytes)
      with
      | Ok regs -> enclave.regs <- regs
      | Error m -> violation "eresume: %s" m)
  | None -> violation "eresume: SSA page 0x%x not mapped" ssa_vpn);
  enclave.entered <- true;
  t.current <- Some enclave;
  t.current_tcs <- Some tcs;
  enter_context t enclave;
  Telemetry.observe t.telemetry "cycles.eresume"
    (Cycles.now t.clock - eresume_start)

let current t = t.current

(* The switchless ring's persistent in-enclave worker: logically it
   EENTERed once at startup and never exits, so a dispatch runs with the
   enclave's translation current but takes no TCS and pays no world
   switch — only the vCPU's context switches (the single simulated CPU
   has to borrow the worker's address space for the duration). *)
let with_worker t (enclave : Enclave.t) f =
  require_initialized enclave "with_worker";
  (match t.current with
  | Some running ->
      violation "with_worker: enclave %d already on this vCPU" running.id
  | None -> ());
  enclave.entered <- true;
  t.current <- Some enclave;
  enter_context t enclave;
  Fun.protect f ~finally:(fun () ->
      enclave.entered <- false;
      t.current <- None;
      leave_context t)

(* --- enclave memory with demand paging ----------------------------------- *)

let require_entered t (enclave : Enclave.t) op =
  match t.current with
  | Some running when running.id = enclave.id -> ()
  | Some _ | None -> violation "%s: enclave %d is not entered" op enclave.id

let commit_page t (enclave : Enclave.t) ~vpn =
  count t "epc.commit";
  count t "fault.page_fault";
  let frame =
    alloc_epc t ~owner:(Epc.Enclave enclave.id) ~page_type:Sgx_types.Pt_reg ~vpn
      ~prefer_not:None
  in
  install_mapping enclave ~vpn ~frame ~perms:Page_table.rw;
  Cycles.tick t.clock
    (t.cost.vmexit + t.cost.pf_commit_handle + t.cost.pte_update
   + t.cost.vminject);
  enclave.stats.page_faults <- enclave.stats.page_faults + 1;
  enclave.stats.dyn_pages <- enclave.stats.dyn_pages + 1

(* Fault on a page the monitor previously evicted: reload and unseal it
   (ELDU), verifying integrity and freshness of the untrusted blob. *)
let swap_in_page t (enclave : Enclave.t) ~vpn =
  (* Pre-mutation fault site: the page is still recorded as swapped out
     and the blob is still on the backend, so a retried access simply
     faults and re-attempts the reload. *)
  Fault.point "epc.swap_in";
  count t "epc.swap_in";
  count t "fault.page_fault";
  let swap_in_start = Cycles.now t.clock in
  let backend =
    match t.swap_backend with
    | Some backend -> backend
    | None -> violation "swap-in: no backend"
  in
  let blob =
    match backend.load (swap_slot_name enclave.id vpn) with
    | Some blob -> blob
    | None -> violation "swap-in: enclave %d page 0x%x blob missing" enclave.id vpn
  in
  let sealed =
    match Authenc.decode blob with
    | Ok sealed -> sealed
    | Error _ ->
        violation "swap-in: enclave %d page 0x%x blob malformed" enclave.id vpn
  in
  let content =
    try Authenc.unseal ~key:(swap_key t) sealed
    with Authenc.Authentication_failure ->
      violation "swap-in: enclave %d page 0x%x integrity violation" enclave.id
        vpn
  in
  let perms =
    match String.split_on_char ':' (Bytes.to_string sealed.Authenc.aad) with
    | [ id; page; perms; version ]
      when int_of_string_opt id = Some enclave.id
           && int_of_string_opt ("0x" ^ page) = Some vpn ->
        (* Freshness: only the *latest* write-back of this page is
           acceptable; an older authentic blob is a rollback attempt. *)
        let expected =
          Option.value ~default:0
            (Hashtbl.find_opt t.swap_versions (enclave.id, vpn))
        in
        if int_of_string_opt version <> Some expected then
          violation
            "swap-in: enclave %d page 0x%x stale write-back (rollback replay?)"
            enclave.id vpn;
        parse_perms perms
    | _ -> violation "swap-in: blob bound to a different page (replay?)"
  in
  let frame =
    alloc_epc t ~owner:(Epc.Enclave enclave.id) ~page_type:Sgx_types.Pt_reg ~vpn
      ~prefer_not:(Some enclave.id)
  in
  Phys_mem.write_page t.mem ~frame content;
  install_mapping enclave ~vpn ~frame ~perms;
  (* The vpn's translation may still be cached from before the eviction
     (it was only shot down on the evicting CPU's view at evict time, and
     the page may now live in a different frame): a stale entry would
     read the old frame.  Shoot it down like ELDU's required ETRACK. *)
  Tlb.invalidate (Mmu.tlb t.cpu) ~vpn;
  count t "tlb.invlpg";
  Hashtbl.remove t.swapped (enclave.id, vpn);
  (* The blob is single-use (ELDU consumes the version-array slot): once
     the page is resident again, leaving the ciphertext around only
     litters the backend and widens the replay surface. *)
  backend.delete (swap_slot_name enclave.id vpn);
  enclave.stats.page_faults <- enclave.stats.page_faults + 1;
  Cycles.tick t.clock (t.cost.vmexit + t.cost.epc_swap_page + t.cost.vminject);
  Telemetry.observe t.telemetry "cycles.swap_in"
    (Cycles.now t.clock - swap_in_start);
  Telemetry.trace t.telemetry ~at:(Cycles.now t.clock)
    ~detail:(Printf.sprintf "enclave %d vpn 0x%x" enclave.id vpn)
    "epc.swap_in"

(* Permission faults are redelivered to a registered in-enclave #PF
   handler: locally for P-Enclaves, via a monitor round trip for GU/HU
   (Sec. 4.3, Table 2's GC scenario). *)
let deliver_pf t (enclave : Enclave.t) ~va ~write =
  match Enclave.find_handler enclave ~vector:"#PF" with
  | None -> false
  | Some handler ->
      count t "fault.page_fault";
      enclave.stats.page_faults <- enclave.stats.page_faults + 1;
      (match Enclave.mode enclave with
      | Sgx_types.P ->
          Cycles.tick t.clock t.cost.idt_dispatch;
          enclave.stats.in_enclave_exceptions <-
            enclave.stats.in_enclave_exceptions + 1;
          let handled = handler (Sgx_types.Pf { va; write }) in
          Cycles.tick t.clock t.cost.iret;
          handled
      | Sgx_types.GU | Sgx_types.HU ->
          Cycles.tick t.clock
            (t.cost.vmexit + t.cost.monitor_pf_dispatch + t.cost.vminject);
          handler (Sgx_types.Pf { va; write }))

let rec access_loop t (enclave : Enclave.t) ~access ~va ~attempts =
  if attempts > 8 then violation "memory access at 0x%x cannot make progress" va;
  try Mmu.translate t.cpu ~access ~user:true va
  with Mmu.Page_fault fault ->
    if (not fault.present) && Enclave.in_elrange enclave ~va then begin
      if Hashtbl.mem t.swapped (enclave.id, fault.vpn) then
        swap_in_page t enclave ~vpn:fault.vpn
      else commit_page t enclave ~vpn:fault.vpn;
      access_loop t enclave ~access ~va ~attempts:(attempts + 1)
    end
    else if fault.present then
      if deliver_pf t enclave ~va ~write:(access = Mmu.Write) then
        access_loop t enclave ~access ~va ~attempts:(attempts + 1)
      else
        violation "unhandled protection fault at 0x%x (%s)" va
          (Format.asprintf "%a" Mmu.pp_access access)
    else violation "not-present fault outside ELRANGE at 0x%x" va

let check_range t (enclave : Enclave.t) ~va ~len op =
  require_entered t enclave op;
  let in_el =
    Enclave.in_elrange enclave ~va
    && Enclave.in_elrange enclave ~va:(va + max 0 (len - 1))
  in
  if not (in_el || Enclave.in_marshalling enclave ~va ~len) then
    violation "%s: [0x%x, +%d) violates R-2 (outside enclave + marshalling)"
      op va len

let enclave_read t enclave ~va ~len =
  check_range t enclave ~va ~len "enclave_read";
  let out = Bytes.create len in
  let pos = ref 0 in
  while !pos < len do
    let a = va + !pos in
    let chunk = min (len - !pos) (Addr.page_size - Addr.offset a) in
    let pa = access_loop t enclave ~access:Mmu.Read ~va:a ~attempts:0 in
    Epc.mark_referenced t.epc (Addr.page_of pa);
    Bytes.blit (Phys_mem.read_bytes t.mem pa chunk) 0 out !pos chunk;
    pos := !pos + chunk
  done;
  Cycles.tick t.clock (Cost_model.copy_cost t.cost len);
  out

let enclave_write t enclave ~va data =
  let len = Bytes.length data in
  check_range t enclave ~va ~len "enclave_write";
  let pos = ref 0 in
  while !pos < len do
    let a = va + !pos in
    let chunk = min (len - !pos) (Addr.page_size - Addr.offset a) in
    let pa = access_loop t enclave ~access:Mmu.Write ~va:a ~attempts:0 in
    Epc.mark_referenced t.epc (Addr.page_of pa);
    Phys_mem.write_bytes t.mem pa (Bytes.sub data !pos chunk);
    pos := !pos + chunk
  done;
  Cycles.tick t.clock (Cost_model.copy_cost t.cost len)

let touch t enclave ~va ~write =
  check_range t enclave ~va ~len:1 "touch";
  let access = if write then Mmu.Write else Mmu.Read in
  ignore (access_loop t enclave ~access ~va ~attempts:0)

(* --- EDMM ----------------------------------------------------------------- *)

let require_owned t (enclave : Enclave.t) ~vpn op =
  match Page_table.lookup enclave.gpt ~vpn with
  | None -> violation "%s: page 0x%x is not mapped" op vpn
  | Some entry ->
      (match Epc.info t.epc entry.Page_table.frame with
      | Some { Epc.owner = Epc.Enclave id; _ } when id = enclave.id -> entry
      | Some _ | None ->
          (* Marshalling pages are mapped but not EPC-owned: permission
             games on them are refused. *)
          violation "%s: page 0x%x is not an enclave-owned page" op vpn)

let set_perms_and_shoot t (enclave : Enclave.t) ~vpn ~perms =
  Page_table.protect enclave.gpt ~vpn ~perms;
  Cycles.tick t.clock (t.cost.pte_update + t.cost.tlb_shootdown);
  Tlb.invalidate (Mmu.tlb t.cpu) ~vpn;
  count t "tlb.invlpg"

let emodpr t enclave ~vpn ~perms =
  ignore (require_owned t enclave ~vpn "emodpr");
  count t "hypercall.emodpr";
  Cycles.tick t.clock t.cost.hypercall;
  set_perms_and_shoot t enclave ~vpn ~perms

let emodpe t enclave ~vpn ~perms =
  ignore (require_owned t enclave ~vpn "emodpe");
  count t "hypercall.emodpe";
  Cycles.tick t.clock t.cost.hypercall;
  set_perms_and_shoot t enclave ~vpn ~perms

let eremove_page t (enclave : Enclave.t) ~vpn =
  let entry = require_owned t enclave ~vpn "eremove_page" in
  count t "hypercall.eremove_page";
  Cycles.tick t.clock t.cost.hypercall;
  let frame = entry.Page_table.frame in
  Page_table.unmap enclave.gpt ~vpn;
  (match enclave.npt with
  | Some npt -> Page_table.unmap npt ~vpn:frame
  | None -> ());
  Phys_mem.zero_page t.mem ~frame;
  Epc.free t.epc frame;
  Tlb.invalidate (Mmu.tlb t.cpu) ~vpn;
  count t "tlb.invlpg";
  Cycles.tick t.clock t.cost.tlb_shootdown

let penclave_set_perms t (enclave : Enclave.t) ~vpn ~perms =
  (match Enclave.mode enclave with
  | Sgx_types.P -> ()
  | Sgx_types.GU | Sgx_types.HU ->
      violation "penclave_set_perms: enclave %d is not a P-Enclave" enclave.id);
  ignore (require_owned t enclave ~vpn "penclave_set_perms");
  set_perms_and_shoot t enclave ~vpn ~perms

(* --- exceptions and interrupts ------------------------------------------- *)

let register_handler _t (enclave : Enclave.t) ~vector handler =
  Enclave.register_handler enclave ~vector handler

let deliver_exception t (enclave : Enclave.t) vector =
  require_entered t enclave "deliver_exception";
  let vector_name = Sgx_types.vector_name vector in
  match (Enclave.mode enclave, Enclave.find_handler enclave ~vector:vector_name) with
  | Sgx_types.P, Some handler ->
      (* In-enclave delivery: IDT vectoring, handler, IRET — no world
         switch at all (Table 2's P-Enclave rows). *)
      count t "exception.in_enclave";
      Cycles.tick t.clock t.cost.idt_dispatch;
      enclave.stats.in_enclave_exceptions <-
        enclave.stats.in_enclave_exceptions + 1;
      let handled = handler vector in
      Cycles.tick t.clock t.cost.iret;
      if handled then `Handled_in_enclave
      else begin
        count t "exception.forwarded";
        Cycles.tick t.clock t.cost.exception_classify;
        aex t enclave;
        `Forwarded_to_os
      end
  | (Sgx_types.GU | Sgx_types.HU | Sgx_types.P), _ ->
      (* Trap to the monitor, classify, AEX; the primary OS + SDK finish
         with the two-phase flow and ERESUME. *)
      count t "exception.forwarded";
      Cycles.tick t.clock t.cost.exception_classify;
      aex t enclave;
      `Forwarded_to_os

let deliver_interrupt t (enclave : Enclave.t) =
  require_entered t enclave "deliver_interrupt";
  count t "interrupt";
  (* An armed P-Enclave takes the interrupt on its own IDT first and
     counts it (Sec. 4.3), then asks the monitor to route it onward. *)
  (match enclave.Enclave.interrupt_guard with
  | Some guard ->
      Cycles.tick t.clock (t.cost.idt_dispatch + t.cost.iret);
      let now = Cycles.now t.clock in
      if now - guard.Enclave.window_start > guard.Enclave.window_cycles then begin
        guard.Enclave.window_start <- now;
        guard.Enclave.count <- 0
      end;
      guard.Enclave.count <- guard.Enclave.count + 1;
      if guard.Enclave.count = guard.Enclave.threshold + 1 then
        guard.Enclave.alarms <- guard.Enclave.alarms + 1
  | None -> ());
  aex t enclave

let arm_interrupt_guard t (enclave : Enclave.t) ~window_cycles ~threshold =
  (match Enclave.mode enclave with
  | Sgx_types.P -> ()
  | Sgx_types.GU | Sgx_types.HU ->
      violation
        "arm_interrupt_guard: enclave %d is not a P-Enclave (only P receives          interrupts in-world)"
        enclave.Enclave.id);
  if window_cycles <= 0 || threshold <= 0 then
    violation "arm_interrupt_guard: invalid parameters";
  enclave.Enclave.interrupt_guard <-
    Some
      {
        Enclave.window_cycles;
        threshold;
        window_start = Cycles.now t.clock;
        count = 0;
        alarms = 0;
      }

let interrupt_alarms (enclave : Enclave.t) =
  match enclave.Enclave.interrupt_guard with
  | Some guard -> guard.Enclave.alarms
  | None -> 0

(* --- keys and attestation ------------------------------------------------- *)

(* EGETKEY is an enclave leaf: a key is derived only for the enclave
   running on this vCPU (entered through a TCS, or the ring worker under
   [with_worker]), never handed to the host. *)
let egetkey t (enclave : Enclave.t) key_name =
  require_launched t "egetkey";
  require_entered t enclave "egetkey";
  Cycles.tick t.clock (World_switch.transition_cost t.cost (Enclave.mode enclave));
  let label = Sgx_types.key_name_label key_name in
  let identity =
    match key_name with
    | Sgx_types.Seal_key_mrenclave -> enclave.mrenclave
    | Sgx_types.Seal_key_mrsigner -> enclave.mrsigner
    | Sgx_types.Report_key -> Bytes.empty
  in
  let info =
    Printf.sprintf "%s:%s:%d" label (Sha256.to_hex identity) enclave.isv_svn
  in
  Hmac.derive ~key:t.k_root ~info

let report_key t = Hmac.derive ~key:t.k_root ~info:"report:" (* platform-wide *)

let ereport t (enclave : Enclave.t) ~report_data =
  require_launched t "ereport";
  require_initialized enclave "ereport";
  Cycles.tick t.clock (World_switch.transition_cost t.cost (Enclave.mode enclave));
  if Bytes.length report_data > 64 then violation "ereport: report_data > 64 bytes";
  let padded = Bytes.make 64 '\000' in
  Bytes.blit report_data 0 padded 0 (Bytes.length report_data);
  let report =
    {
      Sgx_types.mrenclave = enclave.mrenclave;
      mrsigner = enclave.mrsigner;
      attributes = enclave.secs.Sgx_types.attributes;
      isv_prod_id = enclave.isv_prod_id;
      isv_svn = enclave.isv_svn;
      report_data = padded;
      key_id = Rng.bytes t.rng 16;
      mac = Bytes.empty;
    }
  in
  let mac = Hmac.hmac ~key:(report_key t) (Sgx_types.report_body report) in
  { report with Sgx_types.mac }

let verify_report t (report : Sgx_types.report) =
  Hmac.verify ~key:(report_key t)
    (Sgx_types.report_body { report with Sgx_types.mac = Bytes.empty })
    ~tag:report.Sgx_types.mac

let counter_name (enclave : Enclave.t) =
  "enclave:" ^ Sha256.to_hex enclave.Enclave.mrenclave

let counter_increment_for t (enclave : Enclave.t) =
  require_launched t "counter_increment_for";
  Cycles.tick t.clock (World_switch.transition_cost t.cost (Enclave.mode enclave));
  Tpm.counter_create t.tpm ~name:(counter_name enclave);
  Tpm.counter_increment t.tpm ~name:(counter_name enclave)

let counter_read_for t (enclave : Enclave.t) =
  require_launched t "counter_read_for";
  Cycles.tick t.clock (World_switch.transition_cost t.cost (Enclave.mode enclave));
  Tpm.counter_create t.tpm ~name:(counter_name enclave);
  Tpm.counter_read t.tpm ~name:(counter_name enclave)

let gen_quote t enclave ~report_data ~nonce =
  require_launched t "gen_quote";
  let report = ereport t enclave ~report_data in
  let att_private =
    match t.att_private with
    | Some key -> key
    | None -> violation "gen_quote: no attestation key"
  in
  let body =
    Bytes.cat (Bytes.of_string "ems:")
      (Sgx_types.report_body { report with Sgx_types.mac = Bytes.empty })
  in
  let ems = Signature.sign att_private body in
  let tpm_quote =
    Hyperenclave_tpm.Tpm.quote t.tpm ~nonce ~pcr_selection:quote_pcr_selection
  in
  { report; ems; hapk = t.hapk; tpm_quote; events = t.boot_log }

(* --- isolation audit ------------------------------------------------------- *)

type audit_finding = { invariant : string; detail : string }

let audit t =
  let findings = ref [] in
  let report invariant fmt =
    Printf.ksprintf (fun detail -> findings := { invariant; detail } :: !findings) fmt
  in
  let res_lo = t.config.reserved_base_frame in
  let res_hi = res_lo + t.config.reserved_nframes in
  let reserved frame = frame >= res_lo && frame < res_hi in
  let monitor_private frame =
    frame >= res_lo && frame < res_lo + t.config.monitor_private_frames
  in
  (* R-1: the normal VM's nested table must not reach the reservation. *)
  Page_table.iter t.normal_npt (fun ~vpn entry ->
      if reserved entry.Page_table.frame then
        report "R-1" "normal NPT maps gfn 0x%x to reserved frame 0x%x" vpn
          entry.Page_table.frame);
  (* Per-enclave tables. *)
  let owners : (int, int) Hashtbl.t = Hashtbl.create 256 in
  Hashtbl.iter
    (fun id (enclave : Enclave.t) ->
      let ms_ok vpn =
        Enclave.in_marshalling enclave ~va:(Addr.base_of_page vpn) ~len:1
      in
      Page_table.iter enclave.Enclave.gpt (fun ~vpn entry ->
          let frame = entry.Page_table.frame in
          if monitor_private frame then
            report "monitor-private" "enclave %d maps monitor frame 0x%x" id frame;
          match Epc.info t.epc frame with
          | Some { Epc.owner = Epc.Enclave owner_id; _ } ->
              if owner_id <> id then
                report "epc-ownership"
                  "enclave %d maps frame 0x%x owned by enclave %d" id frame
                  owner_id;
              (match Hashtbl.find_opt owners frame with
              | Some other when other <> id ->
                  report "epc-ownership" "frame 0x%x mapped by enclaves %d and %d"
                    frame other id
              | Some _ | None -> Hashtbl.replace owners frame id)
          | Some { Epc.owner = Epc.Monitor; _ } ->
              report "epc-ownership" "enclave %d maps a monitor-owned EPC frame 0x%x"
                id frame
          | None ->
              (* Not EPC: must be a marshalling page, outside the
                 reservation, at a VA inside the declared buffer. *)
              if reserved frame then
                report "R-2" "enclave %d maps reserved non-EPC frame 0x%x" id frame;
              if not (ms_ok vpn) then
                report "R-2"
                  "enclave %d maps non-EPC frame 0x%x outside the marshalling                    buffer (vpn 0x%x)"
                  id frame vpn);
      (* Nested table (GU/P): only the enclave's own frames + marshalling. *)
      (match enclave.Enclave.npt with
      | None -> ()
      | Some npt ->
          Page_table.iter npt (fun ~vpn:gfn entry ->
              let frame = entry.Page_table.frame in
              if gfn <> frame then
                report "nested-identity" "enclave %d NPT maps gfn 0x%x to 0x%x" id
                  gfn frame;
              match Epc.info t.epc frame with
              | Some { Epc.owner = Epc.Enclave owner_id; _ } when owner_id = id ->
                  ()
              | Some _ ->
                  report "R-2" "enclave %d NPT reaches foreign EPC frame 0x%x" id
                    frame
              | None ->
                  if reserved frame then
                    report "R-2" "enclave %d NPT reaches reserved frame 0x%x" id
                      frame));
      (* TCS consistency. *)
      List.iter
        (fun (tcs : Sgx_types.tcs) ->
          if tcs.current_ssa < 0 || tcs.current_ssa > tcs.nssa then
            report "tcs" "enclave %d TCS 0x%x has SSA index %d/%d" id tcs.tcs_vpn
              tcs.current_ssa tcs.nssa)
        enclave.Enclave.tcs_list;
      if enclave.Enclave.entered then begin
        match t.current with
        | Some running when running.Enclave.id = id -> ()
        | Some _ | None ->
            report "tcs" "enclave %d marked entered but not current" id
      end)
    t.enclaves;
  List.rev !findings

(* --- introspection -------------------------------------------------------- *)

let epc t = t.epc
let iommu t = t.iommu
let enclave_count t = Hashtbl.length t.enclaves
let enclaves t = Hashtbl.fold (fun _ e acc -> e :: acc) t.enclaves []
let reserved_range t = (t.config.reserved_base_frame, t.config.reserved_nframes)
let monitor_private_frames t = t.config.monitor_private_frames

let frame_visible_to_normal_vm t ~frame =
  Page_table.lookup t.normal_npt ~vpn:frame <> None

let swap_out_one t =
  require_launched t "swap_out_one";
  evict_one_epc t ~prefer_not:None

(* --- snapshot / restore ---------------------------------------------------

   Cheap whole-monitor checkpoints for lib/mc's DFS backtracking.  The
   contract is *in-place* restoration: every [Enclave.t] and
   [Sgx_types.tcs] handle held by callers stays valid across a restore,
   because the mutable records are written back rather than replaced.
   Snapshots follow a stack discipline (restore in LIFO order), which is
   what makes the page-table generation short-circuit sound.

   Out of scope, deliberately: the clock, telemetry and boot identity
   (K_root, attestation key, boot log) — the first two are observational
   and monotonic, the last is immutable after launch.  Physical page
   *contents* are also not captured here; lib/mc tracks dirty frames
   through [Phys_mem.set_write_observer] and restores only what a
   transition actually wrote. *)

type enclave_snapshot = {
  es_enclave : Enclave.t;
  es_lifecycle : Enclave.lifecycle;
  es_ctx : Sha256.ctx option;
  es_mrenclave : bytes;
  es_mrsigner : bytes;
  es_isv_prod_id : int;
  es_isv_svn : int;
  es_tcs : (Sgx_types.tcs * Sgx_types.tcs) list; (* (live, frozen copy) *)
  es_marshalling : (int * int) option;
  es_handlers : (string * Enclave.exn_handler) list;
  es_guard : Enclave.interrupt_guard option; (* frozen copy *)
  es_entered : bool;
  es_return_va : int;
  es_regs : Vcpu.regs; (* frozen copy *)
  es_stats : Enclave.stats; (* frozen copy *)
  es_gpt : Page_table.snapshot;
  es_npt : Page_table.snapshot option;
}

type snapshot = {
  ms_enclaves : (int * enclave_snapshot) list;
  ms_next_id : int;
  ms_current : int option;
  ms_current_tcs : int option; (* tcs_vpn within the current enclave *)
  ms_saved_normal : (Page_table.t * Page_table.t option) option;
  ms_swapped : (int * int) list;
  ms_swap_versions : ((int * int) * int) list;
  ms_epc_swaps : int;
  ms_epc : Epc.snapshot;
  ms_normal_npt : Page_table.snapshot;
  ms_rng : int64;
}

let copy_tcs (tcs : Sgx_types.tcs) = { tcs with Sgx_types.busy = tcs.busy }

let copy_guard (g : Enclave.interrupt_guard) =
  { g with Enclave.window_start = g.Enclave.window_start }

let copy_stats (s : Enclave.stats) = { s with Enclave.ecalls = s.Enclave.ecalls }

let snapshot_enclave (e : Enclave.t) =
  {
    es_enclave = e;
    es_lifecycle = e.Enclave.lifecycle;
    es_ctx = Option.map Sha256.copy e.Enclave.measurement_ctx;
    (* mrenclave/mrsigner are replaced wholesale, never mutated in
       place, so sharing the bytes is safe. *)
    es_mrenclave = e.Enclave.mrenclave;
    es_mrsigner = e.Enclave.mrsigner;
    es_isv_prod_id = e.Enclave.isv_prod_id;
    es_isv_svn = e.Enclave.isv_svn;
    es_tcs = List.map (fun tcs -> (tcs, copy_tcs tcs)) e.Enclave.tcs_list;
    es_marshalling = e.Enclave.marshalling;
    es_handlers = e.Enclave.handlers;
    es_guard = Option.map copy_guard e.Enclave.interrupt_guard;
    es_entered = e.Enclave.entered;
    es_return_va = e.Enclave.return_va;
    es_regs = Vcpu.copy e.Enclave.regs;
    es_stats = copy_stats e.Enclave.stats;
    es_gpt = Page_table.snapshot e.Enclave.gpt;
    es_npt = Option.map Page_table.snapshot e.Enclave.npt;
  }

let restore_enclave es =
  let e = es.es_enclave in
  e.Enclave.lifecycle <- es.es_lifecycle;
  (* Copy out of the snapshot so it stays reusable after this restore. *)
  e.Enclave.measurement_ctx <- Option.map Sha256.copy es.es_ctx;
  e.Enclave.mrenclave <- es.es_mrenclave;
  e.Enclave.mrsigner <- es.es_mrsigner;
  e.Enclave.isv_prod_id <- es.es_isv_prod_id;
  e.Enclave.isv_svn <- es.es_isv_svn;
  List.iter
    (fun ((live : Sgx_types.tcs), (saved : Sgx_types.tcs)) ->
      live.Sgx_types.busy <- saved.Sgx_types.busy;
      live.Sgx_types.current_ssa <- saved.Sgx_types.current_ssa)
    es.es_tcs;
  e.Enclave.tcs_list <- List.map fst es.es_tcs;
  e.Enclave.marshalling <- es.es_marshalling;
  e.Enclave.handlers <- es.es_handlers;
  e.Enclave.interrupt_guard <- Option.map copy_guard es.es_guard;
  e.Enclave.entered <- es.es_entered;
  e.Enclave.return_va <- es.es_return_va;
  e.Enclave.regs <- Vcpu.copy es.es_regs;
  let s = e.Enclave.stats and saved = es.es_stats in
  s.Enclave.ecalls <- saved.Enclave.ecalls;
  s.Enclave.ocalls <- saved.Enclave.ocalls;
  s.Enclave.aexs <- saved.Enclave.aexs;
  s.Enclave.page_faults <- saved.Enclave.page_faults;
  s.Enclave.dyn_pages <- saved.Enclave.dyn_pages;
  s.Enclave.in_enclave_exceptions <- saved.Enclave.in_enclave_exceptions;
  Page_table.restore e.Enclave.gpt es.es_gpt;
  (match (e.Enclave.npt, es.es_npt) with
  | Some npt, Some snap -> Page_table.restore npt snap
  | None, None -> ()
  | _ -> assert false)

let snapshot t =
  {
    ms_enclaves =
      Hashtbl.fold (fun id e acc -> (id, snapshot_enclave e) :: acc) t.enclaves [];
    ms_next_id = t.next_id;
    ms_current = Option.map (fun (e : Enclave.t) -> e.Enclave.id) t.current;
    ms_current_tcs =
      Option.map (fun (tcs : Sgx_types.tcs) -> tcs.Sgx_types.tcs_vpn) t.current_tcs;
    ms_saved_normal = t.saved_normal;
    ms_swapped = Hashtbl.fold (fun key () acc -> key :: acc) t.swapped [];
    ms_swap_versions =
      Hashtbl.fold (fun key v acc -> (key, v) :: acc) t.swap_versions [];
    ms_epc_swaps = t.epc_swaps;
    ms_epc = Epc.snapshot t.epc;
    ms_normal_npt = Page_table.snapshot t.normal_npt;
    ms_rng = Rng.state t.rng;
  }

let restore t snap =
  Hashtbl.reset t.enclaves;
  List.iter
    (fun (id, es) ->
      restore_enclave es;
      Hashtbl.replace t.enclaves id es.es_enclave)
    snap.ms_enclaves;
  t.next_id <- snap.ms_next_id;
  Hashtbl.reset t.swapped;
  List.iter (fun key -> Hashtbl.replace t.swapped key ()) snap.ms_swapped;
  Hashtbl.reset t.swap_versions;
  List.iter
    (fun (key, v) -> Hashtbl.replace t.swap_versions key v)
    snap.ms_swap_versions;
  t.epc_swaps <- snap.ms_epc_swaps;
  Epc.restore t.epc snap.ms_epc;
  Page_table.restore t.normal_npt snap.ms_normal_npt;
  Rng.set_seed t.rng snap.ms_rng;
  t.current <- Option.map (Hashtbl.find t.enclaves) snap.ms_current;
  t.current_tcs <-
    (match (t.current, snap.ms_current_tcs) with
    | Some e, Some vpn -> Enclave.find_tcs e ~vpn
    | _ -> None);
  t.saved_normal <- snap.ms_saved_normal;
  (* Re-point the MMU at the tables matching the restored world and drop
     any translations cached inside the undone branch. *)
  match t.current with
  | Some e -> (
      match e.Enclave.npt with
      | Some npt -> Mmu.switch_context t.cpu ~gpt:e.Enclave.gpt ~npt ()
      | None -> Mmu.switch_context t.cpu ~gpt:e.Enclave.gpt ())
  | None -> (
      match snap.ms_saved_normal with
      | Some (gpt, npt) -> (
          match npt with
          | Some npt -> Mmu.switch_context t.cpu ~gpt ~npt ()
          | None -> Mmu.switch_context t.cpu ~gpt ())
      | None ->
          (* The CPU already sits on the normal tables (monitor
             operations always restore them on exit); only the TLB may
             hold entries from the undone branch. *)
          Mmu.flush_tlb t.cpu)
