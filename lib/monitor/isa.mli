(** Cross-platform ISA mapping (Sec. 8, "HyperEnclave on other
    platforms").

    The paper's headline property is that nothing in the design is
    x86-specific: it needs two-level address translation and a TPM.
    Sec. 8 spells out the ARMv8 mapping (monitor -> EL2, primary OS ->
    EL1/EL0, enclaves -> EL1 or EL0 under stage-2 translation) and notes
    the RISC-V H-extension offers the same shape (HS / VS / VU modes).

    This module carries that mapping plus a transition-cost projection:
    the x86 constants are the paper's measurements; the ARM and RISC-V
    factors are projections from published trap/hypercall costs (ARM EL2
    round trips are markedly cheaper than VMX transitions; RISC-V H
    trap costs sit between the two).  Projections are exactly that —
    the paper defers real ports to future work — but they let the
    Table-1-style comparison be asked per ISA. *)

open Hyperenclave_hw

type t = X86_64 | Armv8 | Riscv_h

val all : t list
val name : t -> string

val monitor_mode : t -> string
(** Where RustMonitor runs: "VMX root mode" / "EL2" / "HS-mode". *)

val secure_mode : t -> Sgx_types.operation_mode -> string
(** Where each enclave operation mode lands, e.g. GU on ARMv8 is "EL0
    under stage-2 translation". *)

val supports_flexible_modes : t -> bool
(** All three do — the point of Sec. 8. *)

val scale_cost_model : t -> Cost_model.t -> Cost_model.t
(** The projected cost model for the ISA: transition primitives and the
    mode-specific world-switch extras scaled by the ISA's transition
    factor (relative to the measured x86 values);
    memory-system and OS costs untouched; the Intel-SGX-silicon constants
    untouched (they exist only on x86). *)
