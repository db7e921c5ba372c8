(** Virtual CPU register state.

    What RustMonitor switches on every world transition ("RustMonitor
    switches the vCPU states (e.g. the instruction pointer, thread
    pointer, NPT, and GPT)", Sec. 4.1) and what an AEX spills into the
    interrupted thread's SSA frame.  The register file is symbolic — the
    simulation doesn't execute x86 instructions — but the save/restore
    mechanics are real: AEX serializes the state into the SSA page's
    physical frame (where only the enclave and monitor can see it) and
    ERESUME restores it bit-for-bit. *)

type regs = {
  mutable rip : int;
  mutable rsp : int;
  mutable rflags : int;
  mutable fs_base : int;  (** thread pointer *)
  gpr : int array;  (** 14 general-purpose registers *)
}

val fresh : entry:int -> regs
(** Architectural reset state, starting at [entry]. *)

val copy : regs -> regs

val scramble : Hyperenclave_hw.Rng.t -> regs -> unit
(** Randomize the register file — tests use this to model arbitrary
    in-enclave execution state before an AEX. *)

val equal : regs -> regs -> bool

val serialize : regs -> bytes
(** SSA frame layout: 144 bytes, fixed. *)

val deserialize : bytes -> (regs, string) result
(** Total: a frame of the wrong size, or a word that is not an OCaml
    [int], is an [Error]. *)

val ssa_frame_bytes : int
