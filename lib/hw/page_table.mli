(** Software model of a 4-level x86-64-style page table.

    Used for three distinct tables in the system:
    - the primary OS's per-process guest page tables,
    - the enclaves' guest page tables, owned exclusively by RustMonitor
      (or by a P-Enclave itself, Sec. 4.3),
    - nested page tables (GPA to HPA) for the normal VM and for GU/P
      enclave VMs.

    Entries carry present/write/exec/user plus hardware-set accessed and
    dirty bits, matching what the paper's mapping-attack and TrustVisor
    discussions rely on.  The structure is an explicit radix tree so that
    walks can be charged per level by the MMU. *)

type perms = { write : bool; exec : bool; user : bool }

val pp_perms : Format.formatter -> perms -> unit

val rw : perms
(** user read/write data. *)

val rx : perms
(** user read/exec code. *)

val ro : perms
val rwx : perms
val kernel_rw : perms

type entry = {
  mutable frame : int;
  mutable perms : perms;
  mutable accessed : bool;
  mutable dirty : bool;
}

type t

val create : unit -> t

val map : t -> vpn:int -> frame:int -> perms:perms -> unit
(** Install a translation for virtual page [vpn].  Remapping an existing
    vpn overwrites it (like writing a PTE). *)

val unmap : t -> vpn:int -> unit
(** Remove a translation; no-op if absent. *)

val protect : t -> vpn:int -> perms:perms -> unit
(** Change permissions of an existing mapping.  @raise Not_found. *)

val lookup : t -> vpn:int -> entry option
(** Find the final-level entry without touching accessed/dirty. *)

val walk : t -> vpn:int -> levels_visited:int ref -> entry option
(** Hardware-style walk: increments [levels_visited] once per radix level
    actually loaded, so the MMU can charge [pt_level_access] each. *)

val mapped_count : t -> int
val table_pages : t -> int
(** Number of radix-tree nodes, i.e. physical pages the table itself
    would occupy (1 root + interior + leaf tables). *)

val iter : t -> (vpn:int -> entry -> unit) -> unit

val find_vpn_of_frame : t -> frame:int -> int option
(** Reverse lookup (first match); used by security tests for alias
    detection. *)

(** {2 Snapshot / restore}

    Cheap structural snapshots for the model checker's DFS backtracking
    (lib/mc).  A snapshot captures the translation set (vpn, frame,
    perms); [restore] rebuilds exactly that set in place, so existing
    [t] handles held elsewhere stay valid.  A generation counter bumped
    on every [map]/[unmap]/[protect] lets [restore] skip tables that
    did not change since the snapshot.  Hardware accessed/dirty bits are
    deliberately not captured: they are observational, nothing in the
    monitor branches on them. *)

type snapshot

val snapshot : t -> snapshot

val restore : t -> snapshot -> unit
(** Restore the translation set in place.  O(1) when the generation is
    unchanged since [snapshot]. *)

val generation : t -> int
(** Monotonic modification counter (map/unmap/protect). *)
