(** Multi-tenant attested serving plane.

    The end-to-end path from an untrusted client to an enclave that the
    rest of the stack was missing: a client proves who it is talking to
    with the paper's attestation chain (Sec. 5 — TPM quote over the
    measured boot + hapk binding, monitor-signed ems), agrees on a
    per-session channel key, and then submits encrypted requests that
    the plane admits and routes, still encrypted, into the SMP
    scheduler as switchless ring dispatches; the tenant enclave's ring
    worker checks their tags, opens them and seals the replies over the
    same channel.

    {2 Handshake (SIGMA-style)}

    + the client sends a fresh nonce and an ephemeral {!Kx} share;
    + the plane generates its own share, derives the session key, and
      answers with a wire-encoded HyperEnclave quote whose [report_data]
      binds the whole transcript (nonce, both shares, and the tenant's
      enclave identity) — so the key exchange is authenticated by the
      attestation chain and cannot be spliced across sessions;
    + the client decodes the quote on untrusted bytes, runs
      {!Hyperenclave_attestation.Verifier.verify}, checks the transcript
      binding, and derives the same key.

    Tenants on a HyperEnclave backend quote {e themselves} (the monitor
    signs their report).  Tenants on the SGX-model backend cannot — the
    Intel part's quoting flows through a {e quoting enclave}, so the
    plane keeps one ({!quoting_identity}) whose quote vouches for the
    tenant identity carried in the transcript.  Native tenants have no
    enclave identity and are refused with {!Unsupported}.

    {2 Serving}

    Admission control is typed and per-tenant: bounded queues
    ({!Backpressure}), cycle quotas charged from the scheduler's
    per-slice deltas ({!Quota_exhausted}), the envelope's AAD
    ({!Bad_auth}) and strict sequence numbers ({!Bad_sequence}).
    {!flush} drains every admitted request through
    {!Hyperenclave_sched.Sched}: the enclave receives each session's key
    through the reserved {!key_ecall} at the session's first flush on a
    node, checks request tags, opens requests and seals replies in its
    ring worker, and drops the key when the session closes (with the
    tenant's next key ECALL) or retires.  A request whose tag fails is
    answered {!Bad_auth} in its own reply.  Tenants without an SDK
    handle dispatch through the backend's batch call instead, with the
    plane checking, decrypting and sealing.

    Session work crosses the ["serve.session"] fault-injection site:
    transient faults are absorbed by the SDK's bounded retry/backoff,
    permanent ones surface as typed {!Session_fault} errors — never as
    an escaped exception, and always with the monitor invariants green.

    {2 Fleet}

    A plane is one {e node} of a fleet: it is created with an explicit
    {!identity} (node id, monitor hapk, measured-boot PCR digest) and
    every session it opens is stamped with that identity.  Tenants and
    their live sessions can move between nodes — {!export_tenant}
    packages sessions (keys, sequence state, committed EDMM pages) and
    the burnt-nonce replay cache, {!import_tenant} rebuilds them on a
    destination whose tenant enclave measures identically, and
    {!retire_tenant} cuts the source over so stragglers get typed
    forwards ({!Session_migrated} / {!Tenant_migrated}) instead of bare
    unknown-id errors.  The cluster layer
    ({!Hyperenclave_cluster.Cluster}) drives these through an attested
    transfer protocol; the plane itself only enforces the local
    invariants. *)

open Hyperenclave_hw
open Hyperenclave_tee
module Verifier := Hyperenclave_attestation.Verifier
module Kx := Hyperenclave_crypto.Kx
module Authenc := Hyperenclave_crypto.Authenc
module Signature := Hyperenclave_crypto.Signature
module Monitor := Hyperenclave_monitor.Monitor

(** {1 Typed rejections} *)

type reject =
  | Handshake_failed of Verifier.failure
      (** the quote did not verify (client side) *)
  | Channel_binding_mismatch
      (** the quote verifies but does not bind this transcript *)
  | Bad_wire of string  (** quote wire bytes failed structural decode *)
  | Unknown_key_share  (** the peer's {!Kx} share is not a group element *)
  | Replayed_nonce  (** handshake nonce already seen by this plane *)
  | Unknown_tenant of string
  | Unknown_session of int
  | Unsupported of string
      (** the backend cannot do this: native attestation, SGX1 EDMM *)
  | Bad_auth
      (** a request envelope whose AAD does not match its header (at
          {!submit}) or whose tag fails (in its {!flush} reply) *)
  | Bad_sequence of { expected : int; got : int }
      (** replayed or out-of-order request sequence number *)
  | Backpressure of { tenant : string; queued : int; limit : int }
  | Quota_exhausted of { tenant : string; spent : int; quota : int }
  | Session_fault of string
      (** a permanent fault surfaced as a typed session error *)
  | Bad_ticket of string
      (** a resumption ticket that failed structural decode, carried the
          wrong AAD domain, failed authentication, or had a malformed
          payload *)
  | Ticket_expired  (** a well-formed ticket past its TTL *)
  | Session_migrated of { to_node : int }
      (** the session moved to another node after cutover — re-resolve
          and resubmit there *)
  | Tenant_migrated of { tenant : string; to_node : int }
      (** the tenant no longer lives here; handshakes and resumes must
          go to [to_node] *)
  | Tenant_busy of { tenant : string; staged : int }
      (** export/retire refused: admitted requests are still staged —
          flush first *)
  | Import_conflict of string
      (** a migration blob that cannot install: identity mismatch, live
          session-id collision, or state exceeding this node's stride *)

val reject_name : reject -> string
(** Short stable label, also the telemetry suffix ([serve.reject.<name>]). *)

val pp_reject : Format.formatter -> reject -> unit

(** {1 The plane} *)

type config = {
  sched : Hyperenclave_sched.Sched.config;
      (** scheduler for enclave-backed tenants; [drop_on_error] is
          forced on so injected permanent faults drain as typed
          failures instead of aborting the plane *)
  max_queue : int;  (** per-tenant bound on admitted-but-unflushed requests *)
  cycle_quota : int option;
      (** initial per-tenant cycle budget ([None] = unmetered); spent
          cycles come from scheduler slice deltas (or the shared-clock
          delta of the direct dispatch path) and are replenished with
          {!grant} *)
  state_stride_pages : int;
      (** per-session elastic state region size, in pages *)
  nonce_cache : int;
      (** replay-cache bound: only the most recent [nonce_cache]
          handshake / resumption nonces are remembered (FIFO eviction),
          so session churn cannot grow the table without limit *)
  ticket_ttl : int;
      (** resumption-ticket lifetime in shared-clock cycles *)
  shard_block : int;
      (** consecutive per-session staged requests assigned to one ring
          shard before the plane-wide rotor advances — small enough that
          one hot session spreads across every core, large enough that a
          session's replies cluster per reply segment *)
  slot_bytes : int;
      (** ring slot payload capacity, a positive multiple of 8;
          admissions whose ciphertext exceeds it are refused with
          {!Unsupported}, on every backend kind *)
}
(** Admissions stage into flat reusable arenas and {!flush} dispatches
    enclave tenants through per-shard marshalling-buffer rings that
    carry only ciphertext and tags: requests are staged as ciphertext
    behind a slot header, the enclave's ring worker opens them and seals
    replies in place, and the only per-request allocations left on the
    plane are the wire-facing reply envelopes.  Tenants without an SDK
    handle (the SGX model) dispatch through a synchronous backend batch
    instead. *)

val default_config : config
(** 2 cores (scheduler defaults with [drop_on_error]), 64-request
    queues, unmetered quotas, 16-page session state stride, 1024-nonce
    replay cache, 1e9-cycle ticket TTL, 8-request shard blocks and
    256-byte ring slots. *)

(** {1 Node identity}

    Every plane speaks as one addressable node of a fleet.  The identity
    is explicit — callers thread it rather than the plane silently
    reading it off the platform — so each quote-verification decision in
    the system names its trust anchor. *)

type identity = {
  node_id : int;  (** fleet-unique address; 0 for the single-node case *)
  hapk : Signature.public_key;
      (** the monitor attestation key that signs this node's quotes *)
  pcr_digest : bytes;
      (** the node's measured-boot digest over the standard PCR
          selection — what its TPM quotes attest *)
}

module Node_config : sig
  type serve_config := config

  type t = { identity : identity; serve : serve_config }

  val v : ?node_id:int -> platform:Platform.t -> serve_config -> t
  (** Convenience: derive the identity from the platform — its monitor
      hapk and current PCR digest; [node_id] defaults to [0]. *)
end

type t

val create_node : platform:Platform.t -> Node_config.t -> t
(** Build a serving plane that answers as [identity.node_id].  Session
    ids are node-prefixed so they stay distinct across a fleet and a
    migrated session keeps its id on the destination.
    @raise Invalid_argument on invalid configuration, or when the
    identity's hapk is not this platform's monitor key — a plane must
    not advertise an identity its own monitor cannot back. *)

val identity : t -> identity

val node_quote :
  t -> report_data:bytes -> nonce:bytes -> Monitor.quote
(** A quote from the plane's quoting enclave, signed by this node's
    monitor — the node's own attestation voice, used by the migration
    protocol to prove a destination before sealed state is shipped. *)

val add_tenant : t -> name:string -> Backend.config -> Backend.t
(** Build the tenant's backend on the plane's platform ({!Backend.create}
    with the plane's reserved ECALLs — {!state_ecall}, the
    migration-time state read / write movers and {!key_ecall} —
    appended) and register it.  The returned backend is the tenant's own handle — for loading
    data, direct calls, and teardown.
    @raise Invalid_argument on a duplicate name or a handler colliding
    with a reserved ECALL id. *)

val state_ecall : int
(** The reserved ECALL id behind {!resize_session}. *)

val key_ecall : int
(** The reserved ECALL id that installs and drops sessions' keys in the
    enclave: [[count:8]] then per operation [[session:8][32:8][key:32]]
    (install) or [[session:8][0:8]] (drop).  The reply is [[n:8]], the
    number of keys the enclave then holds.  The plane issues at most one
    per tenant per flush — the installs for sessions flushing on this
    node for the first time plus the drops closes queued since — and
    one at retire. *)

val key_request : (int * bytes) list -> bytes
(** Encode a {!key_ecall} batch of [(session, key)] operations; an empty
    [key] drops the session's key. *)

val decode_key_request : bytes -> ((int * bytes) list, string) result

(** Session-state requests [[off][len]] and count replies [[n]], in
    non-negative 8-byte little-endian words. *)

val state_range : off:int -> len:int -> bytes
val state_count : int -> bytes
val decode_state_range : bytes -> (int * int, string) result
val decode_state_count : bytes -> (int, string) result

val quoting_identity : t -> bytes
(** MRENCLAVE of the plane's quoting enclave — what a client should pin
    as [expected_mrenclave] when verifying an SGX-model tenant's
    handshake (created on first use). *)

(** {1 Wire messages} *)

type hello = { nonce : bytes; client_kx : Kx.public }

type accept = {
  session_id : int;
  node_id : int;
      (** which fleet node accepted — clients route follow-ups there *)
  server_kx : Kx.public;
  quote_wire : bytes;  (** untrusted bytes until the client verifies *)
  tenant_identity : bytes;
      (** the tenant MRENCLAVE bound into the transcript (equals the
          quote's MRENCLAVE for self-quoting tenants) *)
}

type request = {
  session_id : int;
  seq : int;
  ecall_id : int;
  envelope : Authenc.sealed;
}

type reply = {
  r_session_id : int;
  r_seq : int;
  r_result : (Authenc.sealed, reject) result;
      (** sealed reply body, or the typed server-side failure *)
}

(** {1 Server operations} *)

val handshake : t -> tenant:string -> hello -> (accept, reject) result
(** Verify freshness, quote the tenant, derive the session key and open
    a session.  Counters: [serve.handshake] / [serve.handshake_rejected]. *)

val submit : t -> request -> (unit, reject) result
(** Admit one request: session lookup, slot bound, AAD check (domain,
    session, sequence number and ECALL id), strict sequence check,
    per-tenant queue bound, per-tenant cycle quota.  Every check is free
    on the plane clock: admission does no channel crypto.  The tag is
    checked where the key lives, when the enclave's ring worker opens
    the envelope, so a damaged envelope is admitted, burns its sequence
    number and comes back as {!Bad_auth} from {!flush}. *)

val flush : t -> reply list
(** Drain every admitted request — enclave tenants as ciphertext ring
    slots spread over the scheduler's cores, tag-checked, opened, served
    and sealed by the enclave's ring worker (whose AEAD work is charged
    to the tenant's quota with the rest of its slice); SGX-model tenants
    tag-checked and decrypted here and dispatched through the backend
    batch call in ring-sized chunks, their replies sealed here.  A
    request whose tag fails gets {!Bad_auth} as its reply, on every
    backend kind, and the requests beside it are served.  A session
    whose key the enclave could not be given, a corrupt slot header, or a session
    the enclave holds no key for fails its requests (for the latter two,
    its whole ring) with {!Session_fault}.  Replies come back in
    tenant-insertion order, then session id, then sequence number. *)

val resize_session : t -> session:int -> pages:int -> (int, reject) result
(** Commit [pages] pages of in-enclave session state through the
    reserved ECALL — the EDMM demand-commit path on HyperEnclave
    backends.  SGX-model tenants get the typed {!Unsupported} rejection
    (SGX1 cannot grow an enclave after EINIT).
    @raise Invalid_argument if [pages] exceeds the configured stride or
    is negative. *)

val grant : t -> tenant:string -> int -> unit
(** Add cycles to a tenant's quota budget (no-op when unmetered). *)

val quota_state : t -> tenant:string -> int * int
(** [(spent, budget)] — budget is [max_int] when unmetered. *)

val session_count : t -> int

val tenant_rings : t -> tenant:string -> Hyperenclave_sdk.Urts.ring list
(** The tenant's arena rings built so far — staging images the host can
    read, exposed for audits of what crosses the marshalling buffer.
    @raise Invalid_argument on an unknown tenant. *)

val sched_stats : t -> Hyperenclave_sched.Sched.stats
(** Cumulative scheduler statistics across every {!flush} so far — a
    read-only snapshot ({!Hyperenclave_sched.Sched.stats}); it never
    runs the scheduler. *)

val close_session : t -> session:int -> (unit, reject) result
(** Retire a session: drop anything still queued (the tenant's queue
    count shrinks accordingly), recycle its state slot for the next
    session on the same tenant, and forget the channel key — the
    enclave's copy too, with the tenant's next {!key_ecall}.  Counter:
    [serve.session_close]. *)

val destroy : t -> unit
(** Tear down the plane: the quoting enclave, then every tenant backend
    (the plane built them, so it owns them — do not also call the
    handle's [destroy]).  All session / tenant / replay state is
    cleared.  Idempotent. *)

(** {1 Live migration}

    The plane-local half of moving a tenant between nodes.  These
    functions deal in {e plaintext} session state — the cluster layer
    seals the export under a transport key derived from an attested
    exchange with the destination before it crosses the simulated
    network; nothing here should touch a wire unsealed. *)

type session_export = {
  x_session : int;  (** the session keeps its (node-prefixed) id *)
  x_key : bytes;  (** channel key — the client notices nothing *)
  x_recv_seq : int;  (** strict-sequence cursor *)
  x_pages : int;  (** committed EDMM pages *)
  x_state : bytes;  (** their bytes, read out through the enclave *)
}

type tenant_export = {
  x_tenant : string;
  x_identity : bytes;
      (** the source enclave's MRENCLAVE; the destination must measure
          identically or the import is refused *)
  x_sessions : session_export list;  (** ascending session id *)
  x_nonces : string list;
      (** the burnt-nonce replay cache in FIFO order — a nonce burnt
          before the move stays burnt after it *)
}

val export_tenant : t -> tenant:string -> (tenant_export, reject) result
(** Package a tenant's live sessions for migration.  Refuses with
    {!Tenant_busy} while admitted requests are still staged (flush
    first), {!Tenant_migrated} after cutover, and {!Unsupported} for
    native tenants (nothing measured to re-attest).  Does not mutate
    the plane — cutover is {!retire_tenant}. *)

val import_tenant : t -> tenant_export -> (int, reject) result
(** Install an exported tenant on this node: the tenant must already be
    registered ({!add_tenant} with the same backend config), measure
    identically to [x_identity], and have no live session-id collisions
    ({!Import_conflict} otherwise).  Sessions are rebuilt with their
    original ids, keys and sequence cursors; EDMM pages are re-committed
    and replayed through the enclave; the replay cache is merged.  A
    mid-install failure rolls back cleanly.  Returns the number of
    sessions installed. *)

val retire_tenant : t -> tenant:string -> to_node:int -> (int, reject) result
(** Cutover: stop answering for the tenant and forward stragglers.
    Live sessions become {!Session_migrated} forwards to [to_node]; new
    handshakes and resumes get {!Tenant_migrated}.  Refuses with
    {!Tenant_busy} while requests are staged.  Returns the number of
    sessions retired.  An {!import_tenant} of the same tenant back onto
    this node (migrate-back) clears the forwards. *)

(** {1 Session resumption}

    A live session can be converted into a {e ticket}: the channel key
    and tenant identity sealed under a plane-local key with a TTL.  A
    returning client presents the ticket with a fresh nonce and gets a
    new session for one AEAD unseal — skipping the quote generation and
    verification of the full SIGMA handshake (an order of magnitude
    cheaper).  Both sides derive the new channel key as
    [H(ticket_key, nonce)], so the ticketed key itself never carries
    traffic, and the plane burns resumption nonces in the same bounded
    replay cache as handshake nonces. *)

val issue_ticket : t -> session:int -> (bytes, reject) result
(** Seal [(tenant, session key, expiry)] under the plane's ticket key.
    The wire form is opaque to the client.  Counter:
    [serve.ticket_issued]. *)

val encode_ticket : tenant:string -> key:bytes -> expires:int -> bytes
(** The payload a ticket seals: framed tenant, 32-byte key, expiry. *)

val decode_ticket : bytes -> (string * bytes * int, string) result

type resume = { r_ticket : bytes; r_nonce : bytes }

val resume : t -> resume -> (int, reject) result
(** Open a new session from a ticket: replay check on the nonce, ticket
    unseal + decode, TTL check, tenant lookup, fresh key derivation.
    Typed failures: {!Replayed_nonce}, {!Bad_ticket}, {!Ticket_expired},
    {!Unknown_tenant}.  Counters: [serve.resume], [serve.session_open]. *)

(** {1 Client} *)

module Client : sig
  type plane := t

  type t

  val create :
    rng:Rng.t ->
    golden:Verifier.golden ->
    policy:Verifier.policy ->
    ?expected_tenant:bytes ->
    ?expected_hapk:Signature.public_key ->
    unit ->
    t
  (** A relying party: golden boot measurements, enclave policy, and —
      for quoting-enclave-fronted tenants — the tenant identity to pin
      ([expected_tenant]); without it the transcript's claimed identity
      is accepted as-is.  [expected_hapk] pins the {e node}: in a fleet
      every monitor boots the same golden measurements, so a client that
      knows which node it addressed pins that node's monitor key and
      gets {!Handshake_failed} ({!Verifier.Hapk_mismatch}) from any
      sibling. *)

  val hello : t -> hello
  (** Fresh nonce + ephemeral share.  One client drives one session;
      calling it again restarts with fresh material. *)

  val establish : t -> accept -> (unit, reject) result
  (** Decode + verify the quote, check the transcript binding, derive
      the session key. *)

  val resume_hello : t -> ticket:bytes -> resume
  (** Start a resumption from the current session's key and a ticket
      previously issued for it: fresh nonce, sequence reset.  The old
      session becomes unusable on this client.
      @raise Invalid_argument without an established session. *)

  val complete_resume : t -> session_id:int -> unit
  (** Accept the plane's {!val-resume} result: derive the resumed
      channel key and switch to the new session.
      @raise Invalid_argument without a {!resume_hello} in flight. *)

  val session_id : t -> int
  (** @raise Invalid_argument before a session is established. *)

  val request : t -> ecall:int -> bytes -> request
  (** Seal the payload under the session key with the next sequence
      number. *)

  val read_reply : t -> reply -> (bytes, reject) result
  (** Unseal a reply (or surface its typed server-side failure). *)

  val roundtrip :
    plane -> t -> (int * bytes) list -> (bytes, reject) result list
  (** Convenience: submit every request, {!flush}, and read this
      client's replies back in order (submission rejects short-circuit
      into the result list). *)
end
