(** Multi-monitor fleet with live enclave migration.

    The single-platform stack scaled out: [nodes] independent platforms
    — each with its own TPM, measured boot, RustMonitor and hapk — each
    running one {!Hyperenclave_serve.Serve} plane, joined by the
    deterministic {!Netsim} network and fronted by a consistent-hash
    load-balancer tier that shards tenants across nodes with session
    affinity.

    {2 Trust across monitors}

    There is no fleet-wide secret.  Every node's trust anchor
    ({!anchor}) is what a relying party would provision per machine:
    that node's TPM EK public key, its golden boot measurements, its
    monitor's hapk, and the measurement of its quoting enclave.  Every
    cross-node decision — a client handshake through the LB, a
    migration source deciding whether to ship sealed state — verifies a
    quote against the {e destination's} anchor with the hapk pinned
    ({!Hyperenclave_attestation.Verifier.verify} [~expected_hapk]), so
    an honestly-booted sibling can never answer for the node actually
    addressed.

    {2 Live migration}

    Moving a tenant from node A to B is a three-message attested
    protocol ({!Migrate}):

    + {e offer} — B generates a fresh nonce and an ephemeral {!Kx}
      share, and quotes them (plus tenant and route) through its
      quoting enclave: proof that the key share belongs to a real
      monitor-backed node {e before} any state moves;
    + {e seal} — A verifies B's quote against B's anchor (golden boot,
      pinned hapk, pinned quoting-enclave MRENCLAVE, transcript
      binding), exports the tenant ({!Hyperenclave_serve.Serve.export_tenant}:
      session keys, sequence cursors, committed EDMM pages, the burnt
      replay cache) and seals the blob under a transport key derived
      from the {!Kx} agreement, with AAD binding tenant, route and
      nonce;
    + {e install} — B burns the offer (each nonce admits one blob),
      unseals, rebuilds the tenant
      ({!Hyperenclave_serve.Serve.import_tenant} — refusing unless its
      own enclave measures identically), and A cuts over
      ({!Hyperenclave_serve.Serve.retire_tenant}) so stragglers get
      typed forwards.

    Clients notice nothing: session keys and sequence numbers survive
    the move, and {!Client.call} chases the typed
    [Session_migrated] forward transparently. *)

open Hyperenclave_hw
open Hyperenclave_tee
module Serve := Hyperenclave_serve.Serve
module Verifier := Hyperenclave_attestation.Verifier
module Invariants := Hyperenclave_monitor.Invariants
module Kx := Hyperenclave_crypto.Kx
module Signature := Hyperenclave_crypto.Signature

(** {1 Errors} *)

type error =
  | Reject of Serve.reject  (** a plane-level typed rejection *)
  | Attest_failed of Verifier.failure
      (** a migration peer's quote did not verify against its anchor *)
  | Binding_mismatch
      (** quote or blob AAD does not bind this tenant / route / nonce *)
  | Unknown_offer
      (** no pending offer for this (tenant, nonce) on this node —
          never offered, already consumed, or shipped to the wrong
          destination *)
  | Transport_auth  (** sealed state blob failed authentication *)
  | Blob_malformed of string  (** structural decode failure *)
  | Net_partition  (** the network dropped the message past retries *)
  | Node_down of int
  | Migration_fault of string
      (** a permanent injected fault at the ["cluster.migrate"] site *)

val pp_error : Format.formatter -> error -> unit

(** {1 Nodes} *)

(** A relying party's per-node trust anchor, recorded at provisioning
    time. *)
type anchor = {
  a_golden : Verifier.golden;
  a_hapk : Signature.public_key;
  a_quoting : bytes;  (** MRENCLAVE of the node's quoting enclave *)
}

module Node : sig
  type t

  val id : t -> int
  val platform : t -> Platform.t
  val plane : t -> Serve.t
  (** @raise Invalid_argument when the node is dead. *)

  val alive : t -> bool
  val version : t -> int  (** bumped by {!upgrade_node} *)
end

(** {1 The cluster} *)

type config = {
  nodes : int;
  seed : int64;
      (** derives every node platform, the network schedule, and the
          protocol randomness — equal seeds, equal fleets *)
  serve : Serve.config;  (** per-node serving-plane configuration *)
  net : Netsim.config;
  vnodes : int;  (** virtual nodes per node on the consistent-hash ring *)
  migration_retries : int;  (** network retries per protocol message *)
}

val default_config : config
(** 4 nodes, seed 42, default serve and net configs, 16 vnodes, 3
    retries. *)

type t

val create : config -> t
(** Boot [nodes] platforms (derived seeds), one serving plane per node
    (node [i] answers as identity [i]), record every anchor, and wire
    the network. *)

val singleton : platform:Platform.t -> ?serve:Serve.config -> unit -> t
(** A one-node cluster wrapping an existing platform — the shim that
    keeps single-node callers on the node-addressed API.  [plane t 0]
    is the serving plane; the network is a loopback. *)

val node : t -> int -> Node.t
val nodes : t -> Node.t list
val plane : t -> int -> Serve.t
(** @raise Invalid_argument for a dead or out-of-range node. *)

val net : t -> Netsim.t
val anchor : t -> int -> anchor

(** {1 Tenants and routing} *)

val add_tenant : t -> name:string -> (unit -> Backend.config) -> int
(** Register a tenant fleet-wide and build it on its placement node
    (consistent hash over live nodes); returns the owner.  The
    generator is re-invoked whenever the tenant is (re)built — on
    migration destinations and failover rebuilds — and must be
    deterministic in the measured code it produces, or cross-node
    re-attestation will refuse the import.
    @raise Invalid_argument on a duplicate name. *)

val owner : t -> tenant:string -> int
(** Current placement (after any migrations), dead or alive.
    @raise Invalid_argument for an unregistered tenant. *)

val route : t -> tenant:string -> (int, error) result
(** The LB decision: current owner if alive, else {!Node_down}. *)

(** {1 Migration} *)

val encode_export : Serve.tenant_export -> bytes
(** The export blob a migration seals: magic, then length-prefixed
    fields and counts as little-endian 64-bit words. *)

val decode_export : bytes -> (Serve.tenant_export, string) result
(** Inverse of {!encode_export}.  Total: any bytes yield [Ok] or an
    [Error] naming the first field that failed; it never raises. *)

(** The three protocol messages, exposed so tests can replay, tamper
    and mis-route them; {!migrate} drives them over the network. *)
module Migrate : sig
  type offer = {
    o_tenant : string;
    o_src : int;
    o_dst : int;
    o_nonce : bytes;
    o_kx : Kx.public;
    o_quote : bytes;  (** wire-encoded, binds all of the above *)
  }

  type package = {
    p_tenant : string;
    p_src : int;
    p_dst : int;
    p_nonce : bytes;  (** echo of the offer nonce *)
    p_kx : Kx.public;  (** the source's ephemeral share *)
    p_blob : bytes;  (** encoded sealed export — opaque, tamper-evident *)
  }

  val offer : t -> tenant:string -> src:int -> dst:int -> (offer, error) result
  (** Runs on [dst]: fresh nonce + share, quoted.  The secret share is
      held pending until {!install} burns it. *)

  val seal : t -> offer -> (package, error) result
  (** Runs on [o_src]: verify the destination's quote (anchor + hapk +
      quoting-enclave pin + transcript binding), export the tenant, seal
      under the agreed transport key.  Crosses the ["cluster.migrate"]
      fault site. *)

  val install : t -> package -> (int, error) result
  (** Runs on [p_dst]: burn the pending offer, unseal, rebuild the
      tenant and its sessions.  Returns sessions installed. *)
end

val migrate : t -> tenant:string -> dst:int -> (int, error) result
(** The full live migration: offer, seal and install shipped over the
    network (with bounded retries), then cutover on the source and a
    placement update.  Refuses with [Reject Tenant_busy] while admitted
    requests are staged — flush first.  Returns sessions moved. *)

(** {1 Fleet operations} *)

val kill_node : t -> int -> unit
(** Power the node off: plane torn down (sessions and tenants lost),
    network partitioned.  Placement entries keep pointing at it until
    {!failover}. *)

val revive_node : t -> int -> unit
(** Boot the node back up with an empty plane (same identity). *)

val failover : t -> tenant:string -> (int, error) result
(** Crash recovery for a tenant whose owner died: rebuild it {e fresh}
    on the ring's next live node and repoint placement.  Unlike
    {!migrate} this loses sessions — clients must
    {!Client.reconnect}. *)

val upgrade_node : t -> int -> (unit, error) result
(** Rolling-upgrade step: live-migrate every resident tenant to ring
    neighbours, tear the plane down and rebuild it (version + 1), then
    live-migrate them home.  Sessions survive the round trip. *)

val rolling_upgrade : t -> (unit, error) result
(** {!upgrade_node} across the whole fleet in node order. *)

val check : t -> (int * Invariants.finding list) list
(** Run the monitor invariant checker on every live node.  All-green is
    the fleet health criterion after chaos. *)

type stats = {
  migrations : int;
  migration_cycles : int;  (** total source-side pause, cycles *)
  max_pause : int;  (** worst single migration pause *)
}

val stats : t -> stats

val destroy : t -> unit

(** {1 Clients}

    A node-addressed client: resolves its tenant through the LB,
    pins the owning node's anchor (hapk included) for the handshake,
    and keeps session affinity with that node until a typed forward
    redirects it. *)

module Client : sig
  type cluster := t

  type t

  val connect :
    cluster ->
    rng:Rng.t ->
    tenant:string ->
    ?policy:Verifier.policy ->
    unit ->
    (t, error) result
  (** Resolve the tenant, run the attested handshake against the owner
      over the network (chasing [Tenant_migrated] forwards), and hold
      the session.  The default policy pins nothing beyond the node
      anchor ([allow_debug = false]). *)

  val node_id : t -> int  (** current affinity *)

  val session_id : t -> int

  val call :
    t -> (int * bytes) list -> ((bytes, Serve.reject) result list, error) result
  (** Submit a batch over the network, flush the owning plane, read the
      replies.  A typed [Session_migrated] forward re-routes the {e
      same} sealed envelopes to the new owner transparently — sequence
      numbers and keys survived the migration.  Network loss past
      retries is {!Net_partition}. *)

  val reconnect : t -> (unit, error) result
  (** Re-resolve and re-handshake from scratch (fresh session) — the
      recovery path after {!kill_node} + {!failover}. *)

  val close : t -> unit
end
