(** RustMonitor: the trusted security monitor (Sec. 3, 5.1).

    Runs (conceptually) in VMX root mode.  Owns the reserved physical
    region, every enclave's page table, the nested tables, the IOMMU
    configuration, the platform key hierarchy, and the emulation of the
    privileged SGX instruction set.  The primary OS interacts with it only
    through hypercalls (modelled as direct calls from the kernel-module
    layer) and is untrusted from the moment {!launch} demotes it.

    All operations charge simulated cycles on the shared clock. *)

open Hyperenclave_hw

exception Security_violation of string
(** Raised whenever an operation would break requirements R-1..R-3, the
    mapping-attack checks, or EEXIT target validation.  In hardware this
    would be a faulted hypercall or an injected #GP. *)

type config = {
  reserved_base_frame : int;  (** start of the grub-reserved region *)
  reserved_nframes : int;  (** total reserved frames *)
  monitor_private_frames : int;  (** monitor image/heap; rest is EPC *)
}

type t

val create :
  clock:Cycles.t ->
  cost:Cost_model.t ->
  rng:Rng.t ->
  mem:Phys_mem.t ->
  cpu:Mmu.t ->
  iommu:Iommu.t ->
  tpm:Hyperenclave_tpm.Tpm.t ->
  config ->
  t

(** {1 Measured late launch} *)

type boot_event = { pcr_index : int; label : string; measurement : bytes }
(** One entry of the measured-boot event log (CRTM, BIOS, grub, kernel,
    initramfs, hypervisor image, hapk). *)

val launch :
  t ->
  boot_log:boot_event list ->
  sealed_root_key:bytes option ->
  [ `First_boot of bytes | `Resumed ]
(** Bring the monitor up after the kernel module has measured it:
    - build the normal VM's nested page table with the reserved region
      unmapped (R-1),
    - strip the reserved region from every IOMMU table (R-3),
    - obtain [K_root]: unseal the given blob, or on first boot draw a
      fresh key from the TPM RNG and return the new sealed blob for the
      OS to persist ([`First_boot blob]),
    - derive the attestation keypair from [K_root], extend the hash of
      the public half (hapk) into a PCR,
    - flood the runtime PCR so the demoted OS can never unseal [K_root].

    @raise Security_violation if already launched or unsealing fails. *)

val launched : t -> bool
val normal_npt : t -> Page_table.t
(** Nested table for the normal VM; installed by the OS scheduler. *)

val hapk : t -> Hyperenclave_crypto.Signature.public_key
val boot_log : t -> boot_event list

val quote_pcr_selection : int list

(** {1 Enclave lifecycle — emulated privileged SGX instructions} *)

val ecreate : t -> Sgx_types.secs -> Enclave.t

val eadd :
  t ->
  Enclave.t ->
  vpn:int ->
  content:bytes ->
  perms:Page_table.perms ->
  page_type:Sgx_types.page_type ->
  unit
(** Allocate an EPC frame, copy+measure the page, install the mapping in
    the enclave's table(s).
    @raise Security_violation for pages outside ELRANGE, double-adds
    (Fig. 9a aliasing), or post-EINIT adds. *)

val eadd_tcs :
  t -> Enclave.t -> vpn:int -> entry_va:int -> nssa:int -> ssa_base_vpn:int -> unit
(** Add a TCS page; [ssa_base_vpn] (the OSSA) names the first of [nssa]
    SSA pages where AEXes spill the thread's register state. *)

val einit :
  t ->
  Enclave.t ->
  sigstruct:Sgx_types.sigstruct ->
  marshalling:int * int * (int * int) list ->
  unit
(** Finalize the measurement and bind the marshalling buffer:
    [(base_va, size, (vpn, host_frame) pairs)] as pinned by the kernel
    module.  Checks (Sec. 6): the signature chain; the measured hash;
    that the buffer lies entirely outside ELRANGE; and that no supplied
    frame belongs to the reserved pool (a crafted-address attack). *)

val eremove : t -> Enclave.t -> unit
(** Tear down: scrub and free every EPC frame. *)

(** {1 World switches} *)

val eenter : t -> Enclave.t -> tcs:Sgx_types.tcs -> return_va:int -> unit
(** @raise Security_violation if not initialized, TCS busy, or another
    enclave is entered on this vCPU. *)

val eexit : t -> Enclave.t -> target_va:int -> unit
(** @raise Security_violation when [target_va] differs from the recorded
    return address — the enclave-malware check of Sec. 6. *)

val aex : t -> Enclave.t -> unit
val eresume : t -> Enclave.t -> tcs:Sgx_types.tcs -> unit
val current : t -> Enclave.t option

val with_worker : t -> Enclave.t -> (unit -> 'a) -> 'a
(** Run [f] in the context of the enclave's persistent in-enclave worker
    (the switchless ring dispatcher): the enclave's translation becomes
    current for the duration — so the worker can touch enclave memory —
    without an EENTER/EEXIT pair or a TCS take; the worker thread entered
    once at startup and never leaves, so the only per-dispatch charge is
    the pair of context switches of the single simulated vCPU.  The
    normal context is restored even if [f] raises.
    @raise Security_violation if not initialized or the vCPU is already
    running an enclave. *)

(** {1 Enclave memory (only while entered)} *)

val enclave_read : t -> Enclave.t -> va:int -> len:int -> bytes
(** Read through the enclave's translation, demand-committing fresh EPC
    pages on not-present faults (the EDMM path, Sec. 3.2).
    @raise Security_violation outside ELRANGE + marshalling buffer (R-2). *)

val enclave_write : t -> Enclave.t -> va:int -> bytes -> unit

val touch : t -> Enclave.t -> va:int -> write:bool -> unit
(** Translate one address (committing on demand), charging MMU costs;
    used by workloads that only need cost behaviour, not contents. *)

(** {1 Dynamic memory management (EDMM)} *)

val emodpr : t -> Enclave.t -> vpn:int -> perms:Page_table.perms -> unit
(** Restrict permissions (hypercall + TLB shootdown).  A P-Enclave calls
    {!penclave_set_perms} instead and never leaves its world. *)

val emodpe : t -> Enclave.t -> vpn:int -> perms:Page_table.perms -> unit
val eremove_page : t -> Enclave.t -> vpn:int -> unit

val penclave_set_perms :
  t -> Enclave.t -> vpn:int -> perms:Page_table.perms -> unit
(** P-Enclave managing its own level-1 table (Sec. 4.3): PTE write plus
    INVLPG, no world switch.
    @raise Security_violation for non-P enclaves. *)

(** {1 Exceptions and interrupts} *)

val register_handler :
  t -> Enclave.t -> vector:string -> Enclave.exn_handler -> unit
(** Install an in-enclave handler; the monitor passes whitelisted vectors
    through to P-Enclaves (Sec. 4.3).  Allowed for any mode (the SDK uses
    it for the two-phase flow too); only P delivery stays in-world. *)

val deliver_exception :
  t -> Enclave.t -> Sgx_types.exception_vector ->
  [ `Handled_in_enclave | `Forwarded_to_os ]
(** P-Enclave with a registered handler: dispatch through the in-enclave
    IDT and return [`Handled_in_enclave].  Anything else: AEX, and the
    caller (kernel module/SDK) completes the two-phase flow. *)

val deliver_interrupt : t -> Enclave.t -> unit
(** Timer/device interrupt during enclave execution: AEX to the primary
    OS.  The caller is responsible for ERESUME.  P-Enclaves with an armed
    {!arm_interrupt_guard} see the interrupt on their own IDT first and
    count it before it is routed onward. *)

val arm_interrupt_guard :
  t -> Enclave.t -> window_cycles:int -> threshold:int -> unit
(** Sec. 4.3's side-channel defence: the P-Enclave counts interrupt
    arrivals per window; a window that exceeds [threshold] raises an
    alarm (interrupt-driven single-stepping à la SGX-Step arrives orders
    of magnitude above benign timer rates).
    @raise Security_violation for non-P enclaves: only they receive
    interrupts in-world. *)

val interrupt_alarms : Enclave.t -> int
(** Windows flagged abnormal so far. *)

(** {1 Keys and attestation (Sec. 3.3)} *)

val egetkey : t -> Enclave.t -> Sgx_types.key_name -> bytes
(** 32-byte key derived from [K_root] and the enclave identity. *)

val ereport : t -> Enclave.t -> report_data:bytes -> Sgx_types.report
val verify_report : t -> Sgx_types.report -> bool
(** Local attestation: recompute the report MAC on-platform. *)

val counter_increment_for : t -> Enclave.t -> int
(** Bump the enclave's TPM monotonic counter (named by MRENCLAVE,
    created on first use).  The anti-rollback primitive behind
    versioned sealing. *)

val counter_read_for : t -> Enclave.t -> int

type quote = {
  report : Sgx_types.report;
  ems : bytes;  (** enclave measurement signature, by the monitor *)
  hapk : Hyperenclave_crypto.Signature.public_key;
  tpm_quote : Hyperenclave_tpm.Tpm.quote;
  events : boot_event list;  (** measured-boot event log for replay *)
}

val gen_quote : t -> Enclave.t -> report_data:bytes -> nonce:bytes -> quote

(** {1 EPC overcommit (EWB/ELDU analogue)}

    When the enclave pool runs dry, the monitor evicts a regular enclave
    page: its contents are sealed (confidentiality + integrity + binding
    to the owning page, under a [K_root]-derived key) and the ciphertext
    is handed to untrusted storage through the kernel module's backend.
    A later fault on that page reloads and verifies it.  Tampered or
    substituted blobs are rejected with {!Security_violation}. *)

val set_swap_backend :
  t ->
  store:(string -> bytes -> unit) ->
  load:(string -> bytes option) ->
  delete:(string -> unit) ->
  unit
(** Registered by the kernel module at load time; the backend is
    untrusted by construction.  [delete] lets EREMOVE purge the sealed
    blobs of pages that were still swapped out at teardown. *)

val epc_swap_count : t -> int
(** Pages evicted so far. *)

val swapped_out : t -> enclave_id:int -> int
(** Pages of [enclave_id] currently sealed out on the backend; 0 once the
    enclave has been EREMOVEd. *)

(** {1 Isolation audit}

    The paper reports ongoing formal verification of RustMonitor
    (Sec. 5.1).  [audit] is this reproduction's executable stand-in: it
    re-derives the global isolation invariants from the live state and
    returns every violation found.  Tests run it after randomized
    lifecycle sequences. *)

type audit_finding = {
  invariant : string;  (** which invariant, e.g. "R-1", "epc-ownership" *)
  detail : string;
}

val audit : t -> audit_finding list
(** Checks, over all live enclaves:
    - R-1: no reserved frame is mapped in the normal VM's nested table;
    - EPC ownership: every EPC frame is owned by at most one live enclave,
      and every mapping in an enclave's table points either at a frame
      owned by that enclave or at a validated marshalling frame;
    - R-2 (nested level): a GU/P enclave's nested table maps only frames
      the enclave may touch;
    - no enclave table maps monitor-private frames;
    - TCS consistency: at most one busy TCS chain per running enclave and
      SSA indices within bounds. *)

(** {1 Introspection for tests and benches} *)

val telemetry : t -> Hyperenclave_obs.Telemetry.t
(** The monitor's telemetry sink: hypercall/world-switch counters, cycle
    histograms, and the recent-event trace ring.  Recording never charges
    simulated cycles, so reading it is always safe. *)

val epc : t -> Epc.t

val iommu : t -> Iommu.t
(** The platform IOMMU the monitor configured at launch; the invariant
    checker rescans it for R-3 after injected faults. *)

val enclave_count : t -> int

val enclaves : t -> Enclave.t list
(** Every live enclave, in no particular order. *)

val reserved_range : t -> int * int
(** [(base_frame, nframes)]. *)

val monitor_private_frames : t -> int
(** Frames at the bottom of the reservation holding the monitor
    image/heap (never part of the EPC pool). *)

val frame_visible_to_normal_vm : t -> frame:int -> bool

val swap_out_one : t -> unit
(** Force one EWB-style eviction (seal a victim page to the untrusted
    store and reclaim its frame), exactly as EPC exhaustion would.
    Exposed so lib/mc can schedule evictions as first-class transitions
    rather than only as a side effect of allocation pressure.
    @raise Security_violation if nothing is evictable or no swap
    backend is registered. *)

(** {1 Snapshot / restore}

    Whole-monitor checkpoints for lib/mc's DFS backtracking.  Restoring
    is in place: [Enclave.t] and [Sgx_types.tcs] handles held by the
    caller stay valid.  Snapshots must be restored in LIFO (stack)
    order — the page-table generation short-circuit relies on it.  The
    clock, telemetry and boot identity are not part of a snapshot;
    physical page contents are the caller's business (see
    {!Hyperenclave_hw.Phys_mem.set_write_observer}). *)

type snapshot

val snapshot : t -> snapshot
val restore : t -> snapshot -> unit
