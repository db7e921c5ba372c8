(** Whole-platform bring-up: hardware, measured boot, kernel, measured
    late launch of RustMonitor, and a first application process.

    This is the sequence of Fig. 3 in one call, and the fixture every
    test, bench and example starts from. *)

open Hyperenclave_hw
open Hyperenclave_os

type t = {
  clock : Cycles.t;
  cost : Cost_model.t;
  rng : Rng.t;
  mem : Phys_mem.t;
  cpu : Mmu.t;
  iommu : Iommu.t;
  tpm : Hyperenclave_tpm.Tpm.t;
  kernel : Kernel.t;
  kmod : Kmod.t;
  monitor : Hyperenclave_monitor.Monitor.t;
  boot_chain : Boot.component list;
  proc : Process.t;  (** an application process, already scheduled *)
  signer : Hyperenclave_crypto.Signature.private_key;
      (** a default enclave-vendor key *)
}

val create :
  ?seed:int64 ->
  ?cost:Cost_model.t ->
  ?phys_mb:int ->
  ?os_mb:int ->
  ?monitor_mb:int ->
  ?tamper_boot:string ->
  unit ->
  t
(** Defaults: seed 42, 256 MiB DRAM, 128 MiB for the primary OS, 4 MiB
    monitor-private, the rest of the reservation as EPC.  Deterministic:
    equal seeds build bit-identical platforms.  [tamper_boot] flips a byte
    in the named boot component before the measured boot — the "evil
    maid" fixture for attestation tests. *)

val llc_bytes : int
(** 8 MiB — the paper's last-level cache size (Fig. 11). *)

val sgx_epc_bytes : int
(** 93 MiB — the usable EPC of the paper's SGX part (Fig. 11). *)
