(** Uniform workload interface over the compared systems.

    Every workload in this reproduction is written once against {!env} and
    then run, unmodified, on:
    - the {b native} baseline — no protection, zero-cost edges, plain
      DRAM (the paper's "SDK simulation mode" baseline);
    - {b HyperEnclave} in any of the three operation modes — real edge
      calls through the SDK/monitor with marshalling copies, SME-priced
      memory;
    - the {b SGX} model — Table-1-priced edges, MEE-priced memory with
      the 93 MB EPC.

    Relative slowdowns between these are the quantity every figure in
    Sec. 7 reports. *)

open Hyperenclave_hw
open Hyperenclave_monitor
open Hyperenclave_sdk

type env = {
  clock : Cycles.t;
  compute : int -> unit;  (** charge pure computation *)
  mem : Mem_sim.t;  (** memory-system behaviour *)
  ocall : id:int -> ?data:bytes -> unit -> bytes;
  ocall_ring : reqs:(int * bytes) list -> unit -> bytes list;
      (** batched OCALLs through the backend's reply ring where it has
          one (HyperEnclave's single EEXIT + OBATCH ORET for K <= 16
          replies); native and SGX dispatch sequentially, which is the
          baseline the ring's amortization is measured against *)
  interrupt : unit -> unit;  (** a timer tick lands now *)
  heap_write : off:int -> bytes -> unit;
      (** write at a byte offset into the workload's heap.  On the
          HyperEnclave backends this is real demand-paged enclave memory
          (committing frames, forcing EWB/ELDU under pressure); native
          and SGX back it with a scratch buffer so workloads stay
          backend-neutral. *)
  heap_read : off:int -> len:int -> bytes;
  backend_name : string;
}

type handler = env -> bytes -> bytes

type kind = Native | Hyperenclave of Sgx_types.operation_mode | Sgx

val kind_name : kind -> string

type t = {
  name : string;
  kind : kind;
  clock : Cycles.t;
  mem : Mem_sim.t;
  call : id:int -> ?data:bytes -> direction:Edge.direction -> unit -> bytes;
  call_batch : reqs:(int * bytes) list -> unit -> bytes list;
      (** Serve several ECALLs under one boundary crossing where the
          backend supports it (the HyperEnclave switchless call ring,
          [In_out] semantics per slot); native and the SGX model have no
          ring and dispatch sequentially — the baseline the ring is
          measured against. *)
  urts : Urts.t option;
      (** The SDK handle behind a HyperEnclave backend ([None] for native
          and the SGX model): what {!Hyperenclave_sched.Sched.submit}
          takes to schedule this enclave's requests. *)
  identity : bytes option;
      (** The enclave's MRENCLAVE where the backend has one ([None] for
          native): the code identity an attested serving plane binds
          into its handshake transcripts. *)
  destroy : unit -> unit;
}

(** {1 Construction}

    One constructor, one config record (API v2).  The per-kind
    constructors below it are thin aliases kept so existing callers
    compile unchanged. *)

type config = {
  kind : kind;
  ms_bytes : int option;
      (** HyperEnclave marshalling-buffer size override (page-aligned,
          >= 4 pages).  Meaningless for other kinds — rejected. *)
  epc_frames : int option;
      (** SGX-model EPC size in 4 KiB frames (default: the paper part's
          93 MB).  Meaningless for other kinds — rejected. *)
  fault_plan : Hyperenclave_fault.Fault.plan option;
      (** Installed (with the platform monitor's telemetry) before the
          backend is built, so build-time sites are already armed. *)
  code_seed : string option;  (** enclave code identity (MRENCLAVE) *)
  tweak : (Urts.config -> Urts.config) option;
      (** HyperEnclave-only escape hatch, applied after [ms_bytes] /
          [code_seed]; rejected for other kinds. *)
  handlers : (int * handler) list;
  ocalls : (int * (bytes -> bytes)) list;
}

val config : kind -> config
(** Defaults for [kind]: no overrides, no fault plan, no handlers. *)

val create : Platform.t -> config -> t
(** Build a backend of [config.kind] on the platform (native and the SGX
    model draw their clock/cost/RNG from it; HyperEnclave modes build a
    real enclave through the SDK).
    @raise Invalid_argument when a config field is set for a kind it
    cannot apply to. *)

val native :
  clock:Cycles.t ->
  cost:Cost_model.t ->
  rng:Rng.t ->
  handlers:(int * handler) list ->
  ocalls:(int * (bytes -> bytes)) list ->
  t
(** @deprecated Use {!create} with [kind = Native]. *)

val hyperenclave :
  Platform.t ->
  mode:Sgx_types.operation_mode ->
  ?tweak:(Urts.config -> Urts.config) ->
  handlers:(int * handler) list ->
  ocalls:(int * (bytes -> bytes)) list ->
  unit ->
  t
(** Builds a real enclave through the SDK on the given platform.
    @deprecated Use {!create} with [kind = Hyperenclave mode]. *)

val sgx :
  clock:Cycles.t ->
  cost:Cost_model.t ->
  rng:Rng.t ->
  ?epc_bytes:int ->
  ?code_seed:string ->
  handlers:(int * handler) list ->
  ocalls:(int * (bytes -> bytes)) list ->
  unit ->
  t
(** The Intel baseline; default EPC 93 MB.
    @deprecated Use {!create} with [kind = Sgx]. *)

(** {1 Trichotomy oracle}

    Under fault injection every call must end in exactly one of three
    ways; the chaos suite (and any resilience-minded application) uses
    {!protected_call} to classify. *)

type outcome =
  | Success of bytes  (** clean reply *)
  | Typed_error of string
      (** a clean, typed refusal: an injected fault that exhausted its
          retries, an [Urts.Enclave_error], or a rejected argument *)
  | Violation of string
      (** the monitor detected tampering ([Monitor.Security_violation]) —
          a deliberate refusal, never an accident *)

val outcome_name : outcome -> string

val protected_call :
  t -> id:int -> ?data:bytes -> direction:Edge.direction -> unit -> outcome
(** Run [t.call] and map its ending onto {!outcome}.  Every
    boundary-visible failure — SDK refusals, injected faults, rejected
    arguments, the SGX model's typed errors and SGX1 restrictions — maps
    to [Typed_error]; monitor tamper detection maps to [Violation].  Any
    exception outside the trichotomy escapes — escaping is precisely the
    signal the chaos suite treats as a fault-handling bug. *)

val protected_batch : t -> reqs:(int * bytes) list -> unit -> outcome list
(** {!protected_call} for [t.call_batch]: one outcome per request, in
    request order.  The HyperEnclave ring is all-or-nothing, so a typed
    failure or violation yields that same outcome for every slot. *)
