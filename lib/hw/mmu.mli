(** Memory-management unit: guest page table + optional nested page table
    + TLB, with cycle accounting.

    Two configurations model the paper's Figure 2:
    - {b 1-level translation} (no NPT): HU-Enclaves and RustMonitor itself.
    - {b 2-dimensional translation} (guest PT under an NPT): the normal VM
      and GU/P-Enclaves.  A TLB miss then walks the guest table while every
      guest-level load is itself translated by the NPT, which is what makes
      nested misses several times more expensive.

    Faults are exceptions: {!Page_fault} corresponds to a guest #PF
    (delivered to whoever owns the guest table — RustMonitor for enclaves,
    the primary OS for normal processes, the P-Enclave itself for its own
    table); {!Npt_violation} corresponds to a nested fault, always handled
    by RustMonitor, and is how requirement R-1 manifests when the primary
    OS touches reserved memory. *)

type access = Read | Write | Exec

val pp_access : Format.formatter -> access -> unit

type fault = {
  vpn : int;  (** faulting virtual page *)
  access : access;
  user : bool;
  present : bool;  (** [false] = not-present fault, [true] = protection *)
}

exception Page_fault of fault
exception Npt_violation of { gfn : int; access : access }

type t

val create :
  clock:Cycles.t ->
  cost:Cost_model.t ->
  rng:Rng.t ->
  gpt:Page_table.t ->
  ?npt:Page_table.t ->
  unit ->
  t

val translate : t -> access:access -> user:bool -> int -> int
(** [translate t ~access ~user va] is the host physical address, charging
    TLB/walk costs and setting accessed/dirty bits.
    @raise Page_fault on a guest translation failure or permission error.
    @raise Npt_violation when the final guest physical page has no nested
    mapping or insufficient nested permission. *)

val switch_context : t -> gpt:Page_table.t -> ?npt:Page_table.t -> unit -> unit
(** CR3 (and nested CR3) write: installs new tables and flushes the TLB,
    charging the flush cost. *)

val gpt : t -> Page_table.t
val npt : t -> Page_table.t option
val nested : t -> bool

val flush_tlb : t -> unit

val tlb : t -> Tlb.t
