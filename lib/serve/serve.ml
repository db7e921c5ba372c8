open Hyperenclave_hw
open Hyperenclave_tee
module Sched = Hyperenclave_sched.Sched
module Urts = Hyperenclave_sdk.Urts
module Edge = Hyperenclave_sdk.Edge
module Monitor = Hyperenclave_monitor.Monitor
module World_switch = Hyperenclave_monitor.World_switch
module Sgx_types = Hyperenclave_monitor.Sgx_types
module Verifier = Hyperenclave_attestation.Verifier
module Wire = Hyperenclave_attestation.Wire
module Kx = Hyperenclave_crypto.Kx
module Authenc = Hyperenclave_crypto.Authenc
module Sha256 = Hyperenclave_crypto.Sha256
module Signature = Hyperenclave_crypto.Signature
module Tpm = Hyperenclave_tpm.Tpm
module Pcr = Hyperenclave_tpm.Pcr
module Fault = Hyperenclave_fault.Fault
module Telemetry = Hyperenclave_obs.Telemetry

(* ---------------------------------------------------------------------- *)
(* Typed rejections                                                       *)

type reject =
  | Handshake_failed of Verifier.failure
  | Channel_binding_mismatch
  | Bad_wire of string
  | Unknown_key_share
  | Replayed_nonce
  | Unknown_tenant of string
  | Unknown_session of int
  | Unsupported of string
  | Bad_auth
  | Bad_sequence of { expected : int; got : int }
  | Backpressure of { tenant : string; queued : int; limit : int }
  | Quota_exhausted of { tenant : string; spent : int; quota : int }
  | Session_fault of string
  | Bad_ticket of string
  | Ticket_expired
  | Session_migrated of { to_node : int }
  | Tenant_migrated of { tenant : string; to_node : int }
  | Tenant_busy of { tenant : string; staged : int }
  | Import_conflict of string

let reject_name = function
  | Handshake_failed _ -> "handshake-failed"
  | Channel_binding_mismatch -> "channel-binding"
  | Bad_wire _ -> "bad-wire"
  | Unknown_key_share -> "unknown-key-share"
  | Replayed_nonce -> "replayed-nonce"
  | Unknown_tenant _ -> "unknown-tenant"
  | Unknown_session _ -> "unknown-session"
  | Unsupported _ -> "unsupported"
  | Bad_auth -> "bad-auth"
  | Bad_sequence _ -> "bad-sequence"
  | Backpressure _ -> "backpressure"
  | Quota_exhausted _ -> "quota-exhausted"
  | Session_fault _ -> "session-fault"
  | Bad_ticket _ -> "bad-ticket"
  | Ticket_expired -> "ticket-expired"
  | Session_migrated _ -> "session-migrated"
  | Tenant_migrated _ -> "tenant-migrated"
  | Tenant_busy _ -> "tenant-busy"
  | Import_conflict _ -> "import-conflict"

let pp_reject fmt = function
  | Handshake_failed f ->
      Format.fprintf fmt "handshake failed: %a" Verifier.pp_failure f
  | Channel_binding_mismatch ->
      Format.pp_print_string fmt "quote does not bind this transcript"
  | Bad_wire m -> Format.fprintf fmt "malformed quote wire: %s" m
  | Unknown_key_share -> Format.pp_print_string fmt "unknown key-exchange share"
  | Replayed_nonce -> Format.pp_print_string fmt "handshake nonce replayed"
  | Unknown_tenant n -> Format.fprintf fmt "unknown tenant %s" n
  | Unknown_session id -> Format.fprintf fmt "unknown session %d" id
  | Unsupported m -> Format.fprintf fmt "unsupported: %s" m
  | Bad_auth -> Format.pp_print_string fmt "request authentication failed"
  | Bad_sequence { expected; got } ->
      Format.fprintf fmt "bad sequence number: expected %d, got %d" expected got
  | Backpressure { tenant; queued; limit } ->
      Format.fprintf fmt "tenant %s queue full (%d/%d)" tenant queued limit
  | Quota_exhausted { tenant; spent; quota } ->
      Format.fprintf fmt "tenant %s cycle quota exhausted (%d/%d)" tenant spent
        quota
  | Session_fault m -> Format.fprintf fmt "session fault: %s" m
  | Bad_ticket m -> Format.fprintf fmt "bad session ticket: %s" m
  | Ticket_expired -> Format.pp_print_string fmt "session ticket expired"
  | Session_migrated { to_node } ->
      Format.fprintf fmt "session migrated to node %d" to_node
  | Tenant_migrated { tenant; to_node } ->
      Format.fprintf fmt "tenant %s migrated to node %d" tenant to_node
  | Tenant_busy { tenant; staged } ->
      Format.fprintf fmt "tenant %s has %d staged requests mid-flush" tenant
        staged
  | Import_conflict m -> Format.fprintf fmt "migration import conflict: %s" m

(* ---------------------------------------------------------------------- *)
(* Plane state                                                            *)

type config = {
  sched : Sched.config;
  max_queue : int;
  cycle_quota : int option;
  state_stride_pages : int;
  nonce_cache : int;
      (** replay-cache bound: only the last [nonce_cache] handshake /
          resume nonces are remembered *)
  ticket_ttl : int;  (** session-ticket lifetime, shared-clock cycles *)
  shard_block : int;
      (** consecutive per-session requests assigned to one ring shard
          before the plane rotor moves to the next — small enough that a
          single hot session spreads across every core, large enough to
          keep a session's replies mostly on one reply segment *)
  slot_bytes : int;  (** ring slot payload capacity (multiple of 8) *)
}

let default_config =
  {
    sched = { Sched.default_config with Sched.drop_on_error = true };
    max_queue = 64;
    cycle_quota = None;
    state_stride_pages = 16;
    nonce_cache = 1024;
    ticket_ttl = 1_000_000_000;
    shard_block = 8;
    slot_bytes = 256;
  }

(* Placeholders the stage arrays are filled with so dead entries never
   pin client envelopes (or stale fallback replies) against the GC. *)
let dummy_sealed =
  {
    Authenc.nonce = Bytes.empty;
    ciphertext = Bytes.empty;
    tag = Bytes.empty;
    aad = Bytes.empty;
  }

let dummy_outcome : (bytes, reject) result = Ok Bytes.empty

(* Flat admission arena: one slot per staged request, recycled across
   flushes.  [sg_sids.(i) = -1] marks a slot whose session closed while
   staged.  [sg_shards] / [sg_slots] / [sg_fb] are flush-time scratch
   columns: which ring shard served entry [i] (or [-2] = the non-SDK
   fallback batch), the slot index inside that ring, and the fallback
   outcome. *)
type stage = {
  mutable sg_sids : int array;
  mutable sg_seqs : int array;
  mutable sg_ecalls : int array;
  mutable sg_envs : Authenc.sealed array;
  mutable sg_shards : int array;
  mutable sg_slots : int array;
  mutable sg_fb : (bytes, reject) result array;
  mutable sg_n : int;
}

let fallback_shard = -2

let stage_push (st : stage) ~sid ~seq ~ecall ~env =
  let n = st.sg_n in
  if n = Array.length st.sg_sids then begin
    (* Doubling growth: the only allocation the admission path ever does,
       and only until the arena reaches the tenant's high-water mark. *)
    let cap = max 16 (2 * n) in
    let grow_int a =
      let b = Array.make cap 0 in
      Array.blit a 0 b 0 n;
      b
    in
    let grow_env a =
      let b = Array.make cap dummy_sealed in
      Array.blit a 0 b 0 n;
      b
    in
    let grow_fb a =
      let b = Array.make cap dummy_outcome in
      Array.blit a 0 b 0 n;
      b
    in
    st.sg_sids <- grow_int st.sg_sids;
    st.sg_seqs <- grow_int st.sg_seqs;
    st.sg_ecalls <- grow_int st.sg_ecalls;
    st.sg_envs <- grow_env st.sg_envs;
    st.sg_shards <- grow_int st.sg_shards;
    st.sg_slots <- grow_int st.sg_slots;
    st.sg_fb <- grow_fb st.sg_fb
  end;
  st.sg_sids.(n) <- sid;
  st.sg_seqs.(n) <- seq;
  st.sg_ecalls.(n) <- ecall;
  st.sg_envs.(n) <- env;
  st.sg_n <- n + 1

type tenant = {
  t_name : string;
  t_req_counter : string;  (* "serve.tenant.<name>.requests", precomputed *)
  t_cyc_counter : string;  (* "serve.tenant.<name>.cycles" *)
  backend : Backend.t;
  mutable queued : int;
  mutable spent : int;
  mutable budget : int;  (* max_int when unmetered *)
  mutable next_slot : int;
  mutable free_slots : int list;
      (* state slots recycled by [close_session], reused before
         [next_slot] grows the stride arena *)
  mutable t_migrated_to : int option;
      (* set by [retire_tenant] at migration cutover: new handshakes and
         resumes answer with a typed forward to the destination node *)
  stage : stage;
  channel : Urts.channel;
      (* the enclave's side of every session: opens and seals ring slots
         with the keys the reserved key ECALL installed *)
  mutable stale_keys : int list;
      (* closed sessions whose keys the enclave still holds: dropped by
         the key calls of the tenant's next flush, or at retire *)
  mutable key_flush : (session list * int list) option;
      (* key calls staged this flush: the sessions they install and the
         drops they left queued, applied once one of the rings ran *)
  rings : Urts.ring option array;  (* per shard, built on first use *)
  ring_err : string option array;  (* per-shard failure, one flush *)
  ring_gen : int array;  (* last flush generation that used the shard *)
}

and session = {
  s_id : int;
  tenant : tenant;
  key : bytes;
  keys : Authenc.keys;
      (* prepared once at establishment: the per-request AEAD setup the
         one-shot seal/unseal paths pay is amortized to zero here *)
  state_slot : int;
  mutable recv_seq : int;
  mutable installed : bool;
      (* the enclave holds this session's key: installed at the
         session's first flush on this node, dropped on close/retire *)
  mutable s_pages : int;
      (* high-water EDMM page count: what a migration must carry so the
         destination can rebuild the session's committed state *)
}

(* The attested name a serve plane answers under in a fleet: which node
   it is, which monitor speaks for it, and that monitor's measured-boot
   digest.  Threaded explicitly (rather than read off the platform at
   use sites) so every quote-verification decision names its trust
   anchor. *)
type identity = {
  node_id : int;
  hapk : Signature.public_key;
  pcr_digest : bytes;
}

let identity_of_platform ?(node_id = 0) (p : Platform.t) =
  {
    node_id;
    hapk = Monitor.hapk p.Platform.monitor;
    pcr_digest =
      Pcr.selection_digest
        (Tpm.pcrs p.Platform.tpm)
        ~indices:Monitor.quote_pcr_selection;
  }

type t = {
  platform : Platform.t;
  identity : identity;
  config : config;
  rng : Rng.t;
  telemetry : Telemetry.t;
  sched : Sched.t;
  tenants : (string, tenant) Hashtbl.t;
  mutable tenant_order : string list;  (* reverse insertion order *)
  sessions : (int, session) Hashtbl.t;
  migrated : (int, int) Hashtbl.t;
      (* session id -> destination node: after cutover a straggler
         addressing a moved session gets a typed forward, not a bare
         unknown-session *)
  seen_nonces : (string, unit) Hashtbl.t;
  nonce_order : string Queue.t;  (* FIFO eviction for the replay cache *)
  ticket_key : bytes;  (* plane sealing key for resumption tickets *)
  mutable next_session : int;
  mutable qe : Urts.t option;  (* lazily-built quoting enclave *)
  mutable destroyed : bool;
  (* --- dispatch arenas --- *)
  shards : int;  (* ring shards per tenant = scheduler cores *)
  key_slots : int;
      (* ring slots kept for key calls: room for [max_queue] installs *)
  mutable rotor : int;
      (* plane-wide block rotor: each [shard_block]-long run of staged
         requests takes the next shard, so both many-tenant and single
         hot-tenant flushes spread over every core *)
  mutable flush_gen : int;
  fault_msgs : (int, string) Hashtbl.t;  (* session faults, one flush *)
  aad_scratch : bytes;  (* admission-path AAD render, no allocation *)
  mutable sid_scratch : int array;  (* distinct staged sessions, sorted *)
  mutable sid_count : int;
  mutable hw_staged : int;  (* high-water marks behind the telemetry *)
  mutable hw_shards : int;
}

let fault_site = "serve.session"

(* Bytes in an envelope AAD (see [render_aad]). *)
let aad_bytes = 34

(* Bytes one key install takes in a key ECALL request (see
   [key_request]): session word, length word, 32-byte key. *)
let key_install_bytes = 48

module Node_config = struct
  type serve_config = config

  type t = { identity : identity; serve : serve_config }

  let v ?node_id ~platform serve =
    { identity = identity_of_platform ?node_id platform; serve }
end

let create_node ~platform (nc : Node_config.t) =
  let config = nc.Node_config.serve in
  let config =
    { config with sched = { config.sched with Sched.drop_on_error = true } }
  in
  if config.max_queue <= 0 then
    invalid_arg "Serve.create_node: max_queue must be positive";
  if config.state_stride_pages <= 0 then
    invalid_arg "Serve.create_node: state_stride_pages must be positive";
  (match config.cycle_quota with
  | Some q when q <= 0 ->
      invalid_arg "Serve.create_node: cycle_quota must be positive"
  | _ -> ());
  if config.nonce_cache <= 0 then
    invalid_arg "Serve.create_node: nonce_cache must be positive";
  if config.ticket_ttl <= 0 then
    invalid_arg "Serve.create_node: ticket_ttl must be positive";
  if config.shard_block <= 0 then
    invalid_arg "Serve.create_node: shard_block must be positive";
  if config.slot_bytes < key_install_bytes + 8 || config.slot_bytes mod 8 <> 0
  then
    invalid_arg
      "Serve.create_node: slot_bytes must be a multiple of 8 of at least 56 (one \
       key install)";
  let identity = nc.Node_config.identity in
  (* The identity must speak for THIS platform's monitor: a plane that
     advertised another node's hapk would hand out quotes its own
     monitor cannot back. *)
  if
    not
      (Signature.equal_public identity.hapk
         (Monitor.hapk platform.Platform.monitor))
  then
    invalid_arg
      "Serve.create_node: identity hapk does not match this platform's monitor";
  let telemetry = Monitor.telemetry platform.Platform.monitor in
  let rng = Rng.split platform.Platform.rng in
  {
    platform;
    identity;
    config;
    rng;
    telemetry;
    sched =
      Sched.create ~shared_clock:platform.Platform.clock ~telemetry config.sched;
    tenants = Hashtbl.create 8;
    tenant_order = [];
    sessions = Hashtbl.create 16;
    migrated = Hashtbl.create 16;
    seen_nonces = Hashtbl.create 64;
    nonce_order = Queue.create ();
    ticket_key = Rng.bytes rng 32;
    (* Node-prefixed session id space: ids stay distinct across a fleet,
       so a migrated session keeps its id on the destination without
       colliding with locally-opened ones.  Node 0 (the single-node
       case) keeps the familiar 0, 1, 2, ... *)
    next_session = identity.node_id lsl 20;
    qe = None;
    destroyed = false;
    shards = max 1 config.sched.Sched.cores;
    key_slots =
      (let per_slot = (config.slot_bytes - 8) / key_install_bytes in
       (config.max_queue + per_slot - 1) / per_slot);
    rotor = 0;
    flush_gen = 0;
    fault_msgs = Hashtbl.create 8;
    aad_scratch = Bytes.create aad_bytes;
    sid_scratch = Array.make 16 0;
    sid_count = 0;
    hw_staged = 0;
    hw_shards = 0;
  }

let identity t = t.identity

let reject t r =
  Telemetry.incr t.telemetry ("serve.reject." ^ reject_name r);
  Error r

(* A session id that is neither live nor migrated is unknown; a migrated
   one forwards the caller to the node that now owns it. *)
let session_reject t id =
  match Hashtbl.find_opt t.migrated id with
  | Some to_node -> Session_migrated { to_node }
  | None -> Unknown_session id

let backoff t attempt =
  Cycles.tick t.platform.Platform.clock
    (World_switch.retry_backoff_cost t.platform.Platform.cost ~attempt)

(* Channel crypto cost: the plane's AEAD (AES-CTR + HMAC) runs at a few
   cycles per byte with a fixed setup.  The one-shot paths (handshake,
   tickets) pay setup + bytes per call; the zero-copy request path pays
   the setup once per prepared session / ring batch and per-byte
   everywhere else — the crypto analogue of the ECALL ring amortizing
   EENTER. *)
let aead_setup_cycles = 2_000
let aead_byte_cycles = 3
let aead_cycles ~bytes = aead_setup_cycles + (aead_byte_cycles * bytes)

let charge_aead t ~bytes =
  Cycles.tick t.platform.Platform.clock (aead_cycles ~bytes)

let charge_aead_setup t = Cycles.tick t.platform.Platform.clock aead_setup_cycles

let charge_aead_bytes t ~bytes =
  Cycles.tick t.platform.Platform.clock (aead_byte_cycles * bytes)

(* Envelope nonce: the direction byte, then the sequence number as a
   little-endian word at byte 4. *)
let set_envelope_nonce b ~dir ~seq =
  Bytes.fill b 0 12 '\000';
  Bytes.set b 0 dir;
  Bytes.set_int64_le b 4 (Int64.of_int seq)

let envelope_nonce ~dir ~seq =
  let nonce = Bytes.create 12 in
  set_envelope_nonce nonce ~dir ~seq;
  nonce

(* Envelope AAD: a 10-byte domain, then session id, sequence number and
   a tag word (the ECALL id for requests, 0 for replies). *)
let render_aad b ~domain ~session_id ~seq ~tag =
  Bytes.blit_string domain 0 b 0 10;
  Bytes.set_int64_le b 10 (Int64.of_int session_id);
  Bytes.set_int64_le b 18 (Int64.of_int seq);
  Bytes.set_int64_le b 26 (Int64.of_int tag)

(* Bounded replay cache: burn a nonce, evicting oldest entries past the
   configured bound so session churn cannot grow the table without
   limit.  Returns [true] when the nonce was already burnt. *)
let nonce_replayed t nonce =
  let key = Bytes.to_string nonce in
  if Hashtbl.mem t.seen_nonces key then true
  else begin
    Hashtbl.replace t.seen_nonces key ();
    Queue.push key t.nonce_order;
    while Queue.length t.nonce_order > t.config.nonce_cache do
      Hashtbl.remove t.seen_nonces (Queue.pop t.nonce_order)
    done;
    false
  end

(* EDMM state slots are recycled through the tenant's free list before
   the stride arena grows — open/close churn reuses slots instead of
   leaking them. *)
let alloc_slot (tn : tenant) =
  match tn.free_slots with
  | slot :: rest ->
      tn.free_slots <- rest;
      slot
  | [] ->
      let slot = tn.next_slot in
      tn.next_slot <- slot + 1;
      slot

(* ---------------------------------------------------------------------- *)
(* Session state ECALL (EDMM-backed elastic per-session state)            *)

let state_ecall = 0x5e55

(* Session-state messages: [off:8][n:8] (commit [n] pages, or read [n]
   bytes), [off:8][data...] (write), and [n:8] replies; 8-byte
   little-endian non-negative words. *)
let state_range ~off ~len =
  let b = Bytes.create 16 in
  Bytes.set_int64_le b 0 (Int64.of_int off);
  Bytes.set_int64_le b 8 (Int64.of_int len);
  b

let state_count n =
  let b = Bytes.create 8 in
  Bytes.set_int64_le b 0 (Int64.of_int n);
  b

let state_word = Codec.len64_le ~max:max_int

let decode_state_range =
  Codec.decode "session-state range" (fun r ->
      let off = state_word r "offset" in
      (off, state_word r "length"))

let decode_state_write b =
  Codec.decode "session-state write" (fun r ->
      let off = state_word r "offset" in
      (off, Codec.take r (Bytes.length b - 8) "data")) b

let decode_state_count =
  Codec.decode "session-state reply" (fun r -> state_word r "count")

(* An ECALL handler's refusal of a malformed request. *)
let request_or_fail = function Ok v -> v | Error m -> invalid_arg m

(* Touch [pages] heap pages starting at byte [off]: on the HyperEnclave
   backends each first touch demand-commits an EPC page through the
   monitor's EDMM path; native backs it with scratch memory. *)
let state_handler (env : Backend.env) input =
  let off, pages = request_or_fail (decode_state_range input) in
  for i = 0 to pages - 1 do
    env.Backend.heap_write ~off:(off + (i * Addr.page_size)) (Bytes.make 1 '\001')
  done;
  state_count pages

(* Migration-time state movers: read a session's committed heap range out
   for export, write it back on the destination. *)
let state_read_ecall = 0x5e56

let state_read_handler (env : Backend.env) input =
  let off, len = request_or_fail (decode_state_range input) in
  env.Backend.heap_read ~off ~len

let state_write_ecall = 0x5e57

let state_write_handler (env : Backend.env) input =
  let off, data = request_or_fail (decode_state_write input) in
  env.Backend.heap_write ~off data;
  state_count (Bytes.length data)

(* The session-key ECALL fills and empties the enclave's key table with
   a batch of operations: [count:8] then per operation
   [session:8][n:8][key:n], where a 32-byte key installs (and prepares)
   the session's key and an empty one drops it.  The reply is [n:8],
   the number of keys the enclave then holds. *)
let key_ecall = 0x5e58

let key_request ops =
  let buf = Buffer.create (8 + (key_install_bytes * List.length ops)) in
  Buffer.add_int64_le buf (Int64.of_int (List.length ops));
  List.iter
    (fun (session, key) ->
      Buffer.add_int64_le buf (Int64.of_int session);
      Codec.put_framed64 buf key)
    ops;
  Buffer.to_bytes buf

let decode_key_request =
  Codec.decode "session-key request" (fun r ->
      List.init (state_word r "count") (fun _ ->
          let session = state_word r "session" in
          let key = Codec.framed64 r "key" in
          if Bytes.length key <> 0 && Bytes.length key <> 32 then
            Codec.fail "key" "neither 0 nor 32 bytes";
          (session, key)))

(* The tenant enclave's side of its sessions: the key table and the
   scratch the ring worker renders envelope nonces and AADs into.  Only
   code running in the enclave — the key ECALL and the ring worker's
   channel — touches it.

   Both envelope nonces and AADs are derived from the host-written
   header words, and the request's tag binds them, so a rewritten word
   fails the tag.  The worker opens each authentic sequence number of a
   session at most once and seals only under the one it just opened:
   two replies never share a key and nonce.  One flush holds at most
   [max_queue] consecutive sequence numbers of a session, all above the
   previous flush's, and its rings run in any order, so the opened ones
   are tracked in an anti-replay window of [window] >= [max_queue] bits
   below the highest (bit [seq mod window]). *)
type enclave_key = {
  ek_keys : Authenc.keys;
  mutable high : int;  (* highest sequence number opened, -1 for none *)
  seen : bytes;  (* the window's bits *)
  mutable opened : int;  (* opened and not yet sealed, -1 for none *)
}

type enclave_keys = {
  keys : (int, enclave_key) Hashtbl.t;
  window : int;
  nonce : bytes;
  aad : bytes;
}

let key_handler (ek : enclave_keys) (_ : Backend.env) input =
  List.iter
    (fun (session, key) ->
      if Bytes.length key = 0 then Hashtbl.remove ek.keys session
      else
        Hashtbl.replace ek.keys session
          {
            ek_keys = Authenc.prepare key;
            high = -1;
            seen = Bytes.make (ek.window / 8) '\000';
            opened = -1;
          })
    (request_or_fail (decode_key_request input));
  state_count (Hashtbl.length ek.keys)

(* The ring worker's channel code.  The AEAD costs what it cost on the
   plane — the per-byte rate for the request's MAC check, its decrypt
   and the reply's seal, one decrypt setup per ring dispatch (one ring
   per tenant, shard and flush) and one seal setup per [reply_ring]
   seals of a ring — but ticks inside the worker's scheduled slice, so
   it lands on a core and on the tenant's quota.  A request whose tag
   fails is refused before its sequence number reaches the window. *)
let ring_channel t (ek : enclave_keys) =
  let reply_ring = max 1 (min Urts.max_batch t.config.sched.Sched.batch) in
  let key session =
    match Hashtbl.find ek.keys session with
    | k -> k
    | exception Not_found ->
        raise
          (Urts.Enclave_error
             (Printf.sprintf "no key installed for session %d" session))
  in
  let refuse session seq why =
    raise
      (Urts.Enclave_error
         (Printf.sprintf "session %d: sequence number %d %s" session seq why))
  in
  let byte seq = seq mod ek.window / 8 in
  let flip (k : enclave_key) seq =
    Bytes.set_uint8 k.seen (byte seq)
      (Bytes.get_uint8 k.seen (byte seq) lxor (1 lsl (seq land 7)))
  in
  let is_set (k : enclave_key) seq =
    Bytes.get_uint8 k.seen (byte seq) land (1 lsl (seq land 7)) <> 0
  in
  let admit session seq (k : enclave_key) =
    if seq > k.high then begin
      (* slide: clear the bits of the sequence numbers leaving the window *)
      for s = max (k.high + 1) (seq - ek.window + 1) to seq do
        if is_set k s then flip k s
      done;
      k.high <- seq
    end
    else if seq <= k.high - ek.window then refuse session seq "below the window"
    else if is_set k seq then refuse session seq "already opened";
    flip k seq;
    k.opened <- seq
  in
  {
    Urts.open_slot =
      (fun ~nth ~session ~seq ~ecall ~tag body ->
        let k = key session in
        let len = Bytes.length body in
        charge_aead_bytes t ~bytes:len;
        set_envelope_nonce ek.nonce ~dir:'>' ~seq;
        render_aad ek.aad ~domain:"serve-req:" ~session_id:session ~seq
          ~tag:ecall;
        Authenc.verify_slice k.ek_keys ~aad:ek.aad ~nonce:ek.nonce ~tag
          ~buf:body ~off:0 ~len
        && begin
             admit session seq k;
             if nth = 0 then charge_aead_setup t;
             charge_aead_bytes t ~bytes:len;
             Authenc.decrypt_into k.ek_keys ~nonce:ek.nonce ~src:body
               ~src_off:0 ~dst:body ~dst_off:0 ~len;
             true
           end);
    seal_slot =
      (fun ~nth ~session ~seq reply buf ~off ->
        let k = key session in
        if seq <> k.opened then refuse session seq "not the one opened";
        k.opened <- -1;
        let keys = k.ek_keys in
        let len = Bytes.length reply in
        if nth mod reply_ring = 0 then charge_aead_setup t;
        charge_aead_bytes t ~bytes:len;
        set_envelope_nonce ek.nonce ~dir:'<' ~seq;
        render_aad ek.aad ~domain:"serve-rep:" ~session_id:session ~seq ~tag:0;
        let tag =
          Authenc.seal_into keys ~aad:ek.aad ~nonce:ek.nonce ~src:reply
            ~src_off:0 ~dst:buf ~dst_off:(off + 32) ~len ()
        in
        Bytes.blit tag 0 buf off 32);
  }

let reserved_ecalls =
  [ state_ecall; state_read_ecall; state_write_ecall; key_ecall ]

let add_tenant t ~name (bc : Backend.config) =
  if Hashtbl.mem t.tenants name then
    invalid_arg (Printf.sprintf "Serve.add_tenant: duplicate tenant %s" name);
  List.iter
    (fun id ->
      if List.mem_assoc id bc.Backend.handlers then
        invalid_arg
          (Printf.sprintf
             "Serve.add_tenant: ECALL %#x is reserved for the session channel"
             id))
    reserved_ecalls;
  let ek =
    {
      keys = Hashtbl.create 8;
      window = (t.config.max_queue + 7) land lnot 7;
      nonce = Bytes.create 12;
      aad = Bytes.create aad_bytes;
    }
  in
  let bc =
    {
      bc with
      Backend.handlers =
        bc.Backend.handlers
        @ [
            (state_ecall, state_handler);
            (state_read_ecall, state_read_handler);
            (state_write_ecall, state_write_handler);
            (key_ecall, key_handler ek);
          ];
    }
  in
  let bc =
    (* Enclave tenants carve [shards] request and reply segments out of the
       marshalling buffer, each big enough to ring the whole admission
       queue: size the buffer up front so a worst-case flush (every
       staged request landing on one shard) can never outgrow a ring.
       Quadruple [need] because the input region is half the buffer and
       the reply region a quarter, plus a page of alignment slack per
       segment. *)
    match bc.Backend.kind with
    | Backend.Hyperenclave _ ->
        let need =
          8
          + (t.config.max_queue + t.key_slots)
            * (Urts.slot_header_bytes + t.config.slot_bytes)
        in
        let ms_min =
          Addr.align_up ((4 * t.shards * need) + (4 * Addr.page_size))
        in
        let ms_bytes =
          match bc.Backend.ms_bytes with
          | Some b -> max b ms_min
          | None -> max (Urts.default_config Sgx_types.GU).Urts.ms_bytes ms_min
        in
        { bc with Backend.ms_bytes = Some ms_bytes }
    | _ -> bc
  in
  let backend = Backend.create t.platform bc in
  let tenant =
    {
      t_name = name;
      t_req_counter = "serve.tenant." ^ name ^ ".requests";
      t_cyc_counter = "serve.tenant." ^ name ^ ".cycles";
      backend;
      queued = 0;
      spent = 0;
      budget = (match t.config.cycle_quota with Some q -> q | None -> max_int);
      next_slot = 0;
      free_slots = [];
      t_migrated_to = None;
      channel = ring_channel t ek;
      stale_keys = [];
      key_flush = None;
      stage =
        {
          sg_sids = [||];
          sg_seqs = [||];
          sg_ecalls = [||];
          sg_envs = [||];
          sg_shards = [||];
          sg_slots = [||];
          sg_fb = [||];
          sg_n = 0;
        };
      rings = Array.make t.shards None;
      ring_err = Array.make t.shards None;
      ring_gen = Array.make t.shards 0;
    }
  in
  Hashtbl.replace t.tenants name tenant;
  t.tenant_order <- name :: t.tenant_order;
  backend

let quoting_urts t =
  match t.qe with
  | Some u -> u
  | None ->
      let u =
        Urts.create ~kmod:t.platform.Platform.kmod ~proc:t.platform.Platform.proc
          ~rng:t.platform.Platform.rng ~signer:t.platform.Platform.signer
          ~config:
            {
              (Urts.default_config Sgx_types.GU) with
              Urts.code_seed = "serve-quoting-enclave";
            }
          ~ecalls:[] ~ocalls:[]
      in
      t.qe <- Some u;
      u

let quoting_identity t = Urts.mrenclave (quoting_urts t)

(* The node's own attestation voice: a quote from the plane's quoting
   enclave, signed by this node's monitor — what a migration peer or
   fleet control plane verifies before trusting the node with sealed
   state. *)
let node_quote t ~report_data ~nonce =
  Urts.gen_quote (quoting_urts t) ~report_data ~nonce

(* ---------------------------------------------------------------------- *)
(* Handshake                                                              *)

type hello = { nonce : bytes; client_kx : Kx.public }

type accept = {
  session_id : int;
  node_id : int;  (** which fleet node accepted — clients route follow-ups *)
  server_kx : Kx.public;
  quote_wire : bytes;
  tenant_identity : bytes;
}

(* The handshake transcript hashes nonce, both key shares and identity. *)
let sigma = "hyperenclave-serve-sigma:"

let derive_key ~shared ~nonce =
  let ctx = Sha256.init () in
  Sha256.update_string ctx "hyperenclave-serve-key:";
  Sha256.update ctx shared;
  Sha256.update ctx nonce;
  Sha256.finalize ctx

let injected_msg site kind =
  Printf.sprintf "injected %s fault at %s" (Fault.kind_name kind) site

let handshake t ~tenant hello =
  match Hashtbl.find_opt t.tenants tenant with
  | None -> reject t (Unknown_tenant tenant)
  | Some { t_migrated_to = Some to_node; _ } ->
      reject t (Tenant_migrated { tenant; to_node })
  | Some tn -> (
      (* Burn the nonce even when the handshake later fails: a replayed
         challenge must never get a second quote. *)
      if nonce_replayed t hello.nonce then begin
        Telemetry.incr t.telemetry "serve.handshake_rejected";
        reject t Replayed_nonce
      end
      else begin
        match tn.backend.Backend.identity with
        | None ->
            Telemetry.incr t.telemetry "serve.handshake_rejected";
            reject t
              (Unsupported "native backend has no enclave identity to attest")
        | Some tenant_identity -> (
            match
              Fault.with_retries ~backoff:(backoff t) (fun () ->
                  Fault.point fault_site;
                  let secret, server_kx = Kx.generate t.rng in
                  let report_data =
                    Sha256.transcript sigma
                      [ hello.nonce; hello.client_kx; server_kx; tenant_identity ]
                  in
                  let quoter =
                    match tn.backend.Backend.urts with
                    | Some u -> u
                    | None -> quoting_urts t
                  in
                  let quote =
                    Urts.gen_quote quoter ~report_data ~nonce:hello.nonce
                  in
                  (secret, server_kx, Wire.encode quote))
            with
            | exception Fault.Injected { site; kind } ->
                Telemetry.incr t.telemetry "serve.handshake_rejected";
                reject t (Session_fault (injected_msg site kind))
            | secret, server_kx, quote_wire -> (
                match Kx.shared secret hello.client_kx with
                | None ->
                    Telemetry.incr t.telemetry "serve.handshake_rejected";
                    reject t Unknown_key_share
                | Some shared ->
                    let key = derive_key ~shared ~nonce:hello.nonce in
                    let session_id = t.next_session in
                    t.next_session <- session_id + 1;
                    let state_slot = alloc_slot tn in
                    (* Prepare the session's AEAD key material once: every
                       envelope on this channel rides the zero-copy path
                       without paying per-request setup. *)
                    charge_aead_setup t;
                    Hashtbl.replace t.sessions session_id
                      {
                        s_id = session_id;
                        tenant = tn;
                        key;
                        keys = Authenc.prepare key;
                        state_slot;
                        recv_seq = 0;
                        installed = false;
                        s_pages = 0;
                      };
                    Telemetry.incr t.telemetry "serve.handshake";
                    Telemetry.incr t.telemetry "serve.session_open";
                    Ok
                      {
                        session_id;
                        node_id = t.identity.node_id;
                        server_kx;
                        quote_wire;
                        tenant_identity;
                      }))
      end)

(* ---------------------------------------------------------------------- *)
(* Request envelopes                                                      *)

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
}

let aad ~domain ~session_id ~seq ~tag =
  let b = Bytes.create aad_bytes in
  render_aad b ~domain ~session_id ~seq ~tag;
  b

let aad_req ~session_id ~seq ~ecall_id =
  aad ~domain:"serve-req:" ~session_id ~seq ~tag:ecall_id

let aad_rep ~session_id ~seq = aad ~domain:"serve-rep:" ~session_id ~seq ~tag:0

(* Admission-path AAD check: render the expected AAD into the plane's
   scratch buffer and compare — no allocation. *)
let aad_matches t ~domain ~session_id ~seq ~tag candidate =
  Bytes.length candidate = aad_bytes
  && begin
       render_aad t.aad_scratch ~domain ~session_id ~seq ~tag;
       Bytes.equal t.aad_scratch candidate
     end

(* ---------------------------------------------------------------------- *)
(* Admission                                                              *)

let submit t (req : request) =
  Telemetry.incr t.telemetry "serve.request";
  match Hashtbl.find_opt t.sessions req.session_id with
  | None -> reject t (session_reject t req.session_id)
  | Some s -> (
      let tn = s.tenant in
      (* Admission does no channel crypto: every check here is free on
         the plane clock.  The tag is checked where the key lives — in
         the tenant enclave's ring worker (the plane itself for an
         SGX-model tenant) — and a request that fails it is admitted,
         burns its sequence number and comes back as [Bad_auth] in its
         reply.  The AAD check still turns away, at once, an envelope
         aimed at another session, sequence number or ECALL. *)
      let ct_len = Bytes.length req.envelope.Authenc.ciphertext in
      if ct_len > t.config.slot_bytes then
        reject t
          (Unsupported
             (Printf.sprintf
                "request ciphertext (%d bytes) exceeds the %d-byte ring slot"
                ct_len t.config.slot_bytes))
      else if
        not
          (aad_matches t ~domain:"serve-req:" ~session_id:req.session_id
             ~seq:req.seq ~tag:req.ecall_id req.envelope.Authenc.aad)
      then reject t Bad_auth
      else if req.seq <> s.recv_seq then
        reject t (Bad_sequence { expected = s.recv_seq; got = req.seq })
      else
        begin
              (* The envelope carries the expected sequence number: the
                 number is burnt from here on, whatever the admission
                 outcome — the client's counter advanced when it sealed,
                 so the channel stays in step across typed
                 rejections. *)
              s.recv_seq <- s.recv_seq + 1;
              match
                Fault.with_retries ~backoff:(backoff t) (fun () ->
                    Fault.point fault_site)
              with
              | exception Fault.Injected { site; kind } ->
                  reject t (Session_fault (injected_msg site kind))
              | () ->
                  if tn.queued >= t.config.max_queue then
                    reject t
                      (Backpressure
                         {
                           tenant = tn.t_name;
                           queued = tn.queued;
                           limit = t.config.max_queue;
                         })
                  else if tn.spent >= tn.budget then
                    reject t
                      (Quota_exhausted
                         {
                           tenant = tn.t_name;
                           spent = tn.spent;
                           quota = tn.budget;
                         })
                  else begin
                    stage_push tn.stage ~sid:s.s_id ~seq:req.seq
                      ~ecall:req.ecall_id ~env:req.envelope;
                    tn.queued <- tn.queued + 1;
                    Telemetry.incr t.telemetry "serve.request.admitted";
                    Telemetry.incr t.telemetry tn.t_req_counter;
                    Ok ()
                  end
            end)

(* ---------------------------------------------------------------------- *)
(* Dispatch                                                               *)

let charge t (tn : tenant) cycles =
  tn.spent <- tn.spent + cycles;
  Telemetry.add t.telemetry tn.t_cyc_counter cycles

(* Split [l] into chunks of at most [k] elements, preserving order. *)
let rec chunked k = function
  | [] -> []
  | l ->
      let rec take n = function
        | rest when n = 0 -> ([], rest)
        | [] -> ([], [])
        | x :: rest ->
            let taken, left = take (n - 1) rest in
            (x :: taken, left)
      in
      let c, rest = take k l in
      c :: chunked k rest

(* Collect the distinct live sessions staged in [st] into the plane's
   scratch array, ascending id — the per-tenant session order replies
   come back in.  Linear dedup: distinct sessions per tenant per flush
   are few. *)
let collect_sids t (st : stage) =
  t.sid_count <- 0;
  for i = 0 to st.sg_n - 1 do
    let sid = st.sg_sids.(i) in
    if sid >= 0 then begin
      let n = t.sid_count in
      let rec seen k = k < n && (t.sid_scratch.(k) = sid || seen (k + 1)) in
      if not (seen 0) then begin
        if n = Array.length t.sid_scratch then begin
          let b = Array.make (2 * n) 0 in
          Array.blit t.sid_scratch 0 b 0 n;
          t.sid_scratch <- b
        end;
        t.sid_scratch.(n) <- sid;
        t.sid_count <- n + 1
      end
    end
  done;
  (* in-place insertion sort over the live prefix *)
  for i = 1 to t.sid_count - 1 do
    let v = t.sid_scratch.(i) in
    let j = ref (i - 1) in
    while !j >= 0 && t.sid_scratch.(!j) > v do
      t.sid_scratch.(!j + 1) <- t.sid_scratch.(!j);
      decr j
    done;
    t.sid_scratch.(!j + 1) <- v
  done

let ring_for t (tn : tenant) urts shard =
  match tn.rings.(shard) with
  | Some r -> r
  | None ->
      let r =
        Urts.create_ring urts ~shard ~shards:t.shards
          ~slots:(t.config.max_queue + t.key_slots)
          ~slot_bytes:t.config.slot_bytes tn.channel
      in
      tn.rings.(shard) <- Some r;
      r

(* The enclave gets its copy of a session key from the reserved key
   ECALL, run as clear switchless calls at the head of every ring a
   tenant flushes into: installs for the sessions flushing on this node
   for the first time (after a handshake, a resume or an import, whose
   costs therefore stay as they were), then the drops closes have
   queued, as many as fit in the rings' key allowance.  Every ring of
   the flush carries the same calls, so none depends on the order the
   cores run them in, and one ring that ran is enough for the enclave
   to have applied them.  Returns the call arguments and the drops left
   queued. *)
let key_calls t (installs : session list) drops =
  let room = t.config.slot_bytes - 8 in
  let size (_, key) = 16 + Bytes.length key in
  let rec chunk calls cur used = function
    | [] -> (List.rev (if cur = [] then calls else List.rev cur :: calls), [])
    | op :: rest when used + size op <= room ->
        chunk calls (op :: cur) (used + size op) rest
    | op :: rest when List.length calls + 1 < t.key_slots ->
        chunk (List.rev cur :: calls) [ op ] (size op) rest
    | left -> (List.rev (List.rev cur :: calls), left)
  in
  let calls, left =
    chunk [] [] 0
      (List.map (fun (s : session) -> (s.s_id, s.key)) installs
      @ List.map (fun sid -> (sid, Bytes.empty)) drops)
  in
  (List.map key_request calls, List.map fst left)

(* A retired tenant flushes no more rings here: its drops go through
   the key ECALL at once. *)
let drop_keys_now t (tn : tenant) =
  if tn.stale_keys <> [] then
    match
      Backend.protected_call tn.backend ~id:key_ecall
        ~data:(key_request (List.map (fun sid -> (sid, Bytes.empty)) tn.stale_keys))
        ~direction:Edge.In_out ()
    with
    | Backend.Success _ -> tn.stale_keys <- []
    | Backend.Typed_error _ | Backend.Violation _ ->
        Telemetry.incr t.telemetry "serve.key_drop_failed"

let forget_key (s : session) =
  if s.installed then begin
    s.installed <- false;
    s.tenant.stale_keys <- s.s_id :: s.tenant.stale_keys
  end

(* The dispatch path.  Staging, dispatch and reply bytes all live in
   reusable arenas and the pinned marshalling rings, and the plane does
   no channel crypto on it: rings carry ciphertext and tags in and
   ciphertext plus tags out, and the enclave's ring worker checks,
   opens and seals.  A request whose tag fails comes back as [Bad_auth]
   in its own reply.  The only per-request allocations left on the
   plane are the wire-facing reply envelopes.  Tenants without an SDK
   handle (the SGX model) take a synchronous fallback batch instead,
   checked, decrypted and sealed here. *)
let flush t =
  Telemetry.incr t.telemetry "serve.flush";
  t.flush_gen <- t.flush_gen + 1;
  let gen = t.flush_gen in
  Hashtbl.reset t.fault_msgs;
  let cores = max 1 t.config.sched.Sched.cores in
  let reply_ring = max 1 (min Urts.max_batch t.config.sched.Sched.batch) in
  let tenants =
    List.rev_map (fun name -> Hashtbl.find t.tenants name) t.tenant_order
  in
  let flush_total = ref 0 in
  let rings_used = ref 0 in
  (* Pass 1 per tenant: walk the staged entries per session in (session,
     seq) order.  Injected session faults surface as typed errors in the
     assembly pass; live entries are staged as ciphertext into their
     ring slot or, for backends without an SDK handle, tag-checked and
     decrypted into the synchronous fallback batch. *)
  List.iter
    (fun tn ->
      let st = tn.stage in
      if st.sg_n > 0 then begin
        Array.fill tn.ring_err 0 t.shards None;
        collect_sids t st;
        let urts_opt = tn.backend.Backend.urts in
        (* Session faults first: a faulted session is not staged, and a
           staged one the enclave holds no key for is installed by the
           key calls at the head of its rings. *)
        let installs = ref [] in
        for k = 0 to t.sid_count - 1 do
          let sid = t.sid_scratch.(k) in
          match
            Fault.with_retries ~backoff:(backoff t) (fun () ->
                Fault.point fault_site)
          with
          | exception Fault.Injected { site; kind } ->
              Hashtbl.replace t.fault_msgs sid (injected_msg site kind);
              for i = 0 to st.sg_n - 1 do
                if st.sg_sids.(i) = sid then begin
                  tn.queued <- tn.queued - 1;
                  incr flush_total
                end
              done
          | () ->
              let s = Hashtbl.find t.sessions sid in
              if urts_opt <> None && not s.installed then
                installs := s :: !installs
        done;
        let calls =
          if !installs = [] && tn.stale_keys = [] then []
          else begin
            let installs = List.rev !installs in
            let calls, drops_left = key_calls t installs tn.stale_keys in
            tn.key_flush <- Some (installs, drops_left);
            calls
          end
        in
        let fb = ref [] in
        (* rev (entry index, ecall, plaintext) for the fallback batch *)
        for k = 0 to t.sid_count - 1 do
          let sid = t.sid_scratch.(k) in
          if not (Hashtbl.mem t.fault_msgs sid) then begin
            let s = Hashtbl.find t.sessions sid in
            let stamp = ref 0 in
            let shard = ref 0 in
            for i = 0 to st.sg_n - 1 do
              if st.sg_sids.(i) = sid then begin
                tn.queued <- tn.queued - 1;
                incr flush_total;
                let env = st.sg_envs.(i) in
                let len = Bytes.length env.Authenc.ciphertext in
                match urts_opt with
                | Some urts ->
                    if !stamp mod t.config.shard_block = 0 then begin
                      shard := t.rotor;
                      t.rotor <- (t.rotor + 1) mod t.shards
                    end;
                    incr stamp;
                    let ring = ring_for t tn urts !shard in
                    if tn.ring_gen.(!shard) <> gen then begin
                      tn.ring_gen.(!shard) <- gen;
                      incr rings_used;
                      List.iter (Urts.ring_call ring ~ecall_id:key_ecall) calls
                    end;
                    Urts.ring_stage ring ~ecall_id:st.sg_ecalls.(i) ~session:sid
                      ~seq:st.sg_seqs.(i) ~tag:env.Authenc.tag
                      ~src:env.Authenc.ciphertext ~src_off:0 ~len;
                    st.sg_shards.(i) <- !shard;
                    st.sg_slots.(i) <- Urts.ring_staged ring - 1
                | None ->
                    st.sg_shards.(i) <- fallback_shard;
                    charge_aead_bytes t ~bytes:len;
                    if not (Authenc.verify_sealed s.keys env) then
                      st.sg_fb.(i) <- Error Bad_auth
                    else begin
                      charge_aead_bytes t ~bytes:len;
                      let plaintext = Bytes.create len in
                      Authenc.decrypt_into s.keys ~nonce:env.Authenc.nonce
                        ~src:env.Authenc.ciphertext ~src_off:0 ~dst:plaintext
                        ~dst_off:0 ~len;
                      fb := (i, st.sg_ecalls.(i), plaintext) :: !fb
                    end
              end
            done
          end
        done;
        match urts_opt with
        | Some urts ->
            (* Publish and enqueue every shard this tenant staged into:
               shard [k] pins to core [k mod cores], so a single hot
               tenant's rotor-spread blocks occupy every core. *)
            for shard = 0 to t.shards - 1 do
              match tn.rings.(shard) with
              | Some ring
                when tn.ring_gen.(shard) = gen && Urts.ring_staged ring > 0
                -> (
                  match
                    Fault.with_retries ~backoff:(backoff t) (fun () ->
                        Urts.ring_publish ring)
                  with
                  | exception Fault.Injected { site; kind } ->
                      tn.ring_err.(shard) <- Some (injected_msg site kind)
                  | () ->
                      Sched.submit_ring t.sched ~core:(shard mod cores) ~urts
                        ~label:tn.t_name
                        ~on_result:(fun ~index:_ result ->
                          match result with
                          | Ok _ -> ()
                          | Error msg -> tn.ring_err.(shard) <- Some msg)
                        ~on_slice:(fun ~cycles -> charge t tn cycles)
                        ring)
              | Some _ | None -> ()
            done
        | None ->
            (* No SDK handle (the SGX model): dispatch synchronously in
               ring-sized chunks, charging the shared-clock delta as this
               tenant's quota spend. *)
            List.iter
              (fun chunk ->
                charge_aead_setup t;
                let reqs = List.map (fun (_, e, pl) -> (e, pl)) chunk in
                let clock = t.platform.Platform.clock in
                let before = Cycles.now clock in
                let outcomes = Backend.protected_batch tn.backend ~reqs () in
                charge t tn (Cycles.now clock - before);
                List.iter2
                  (fun (i, _, _) outcome ->
                    st.sg_fb.(i) <-
                      (match outcome with
                      | Backend.Success reply -> Ok reply
                      | Backend.Typed_error m | Backend.Violation m ->
                          Error (Session_fault m)))
                  chunk outcomes)
              (chunked reply_ring (List.rev !fb))
      end)
    tenants;
  ignore (Sched.run t.sched : Sched.stats);
  (* Pull every dispatched ring's reply image back into its reusable
     buffer — marshalling-out cost and fault site on the plane clock,
     once per ring rather than per request. *)
  List.iter
    (fun tn ->
      if tn.stage.sg_n > 0 && tn.backend.Backend.urts <> None then
        for shard = 0 to t.shards - 1 do
          match tn.rings.(shard) with
          | Some ring
            when tn.ring_gen.(shard) = gen
                 && Urts.ring_staged ring > 0
                 && tn.ring_err.(shard) = None -> (
              match
                Fault.with_retries ~backoff:(backoff t) (fun () ->
                    Urts.ring_read_replies ring)
              with
              | () -> ()
              | exception Fault.Injected { site; kind } ->
                  tn.ring_err.(shard) <- Some (injected_msg site kind))
          | Some _ | None -> ()
        done)
    tenants;
  (* Assembly: a ring reply is already sealed, so the plane only copies
     its ciphertext and tag into the wire-facing envelope, or answers
     [Bad_auth] for a slot the worker refused; fallback replies are
     sealed here.  Reply order: tenant insertion order, then
     session id, then sequence. *)
  let sealed_in_batch = ref 0 in
  let out = ref [] in
  List.iter
    (fun tn ->
      let st = tn.stage in
      if st.sg_n > 0 then begin
        (match tn.key_flush with
        | Some (installs, drops_left) ->
            tn.key_flush <- None;
            let ran = ref false in
            for shard = 0 to t.shards - 1 do
              if tn.ring_gen.(shard) = gen && tn.ring_err.(shard) = None then
                ran := true
            done;
            if !ran then begin
              List.iter (fun (s : session) -> s.installed <- true) installs;
              tn.stale_keys <- drops_left
            end
        | None -> ());
        collect_sids t st;
        for k = 0 to t.sid_count - 1 do
          let sid = t.sid_scratch.(k) in
          let s = Hashtbl.find t.sessions sid in
          let fault = Hashtbl.find_opt t.fault_msgs sid in
          let emit_err seq rej =
            Telemetry.incr t.telemetry "serve.request.failed";
            Telemetry.incr t.telemetry ("serve.reject." ^ reject_name rej);
            out :=
              { r_session_id = sid; r_seq = seq; r_result = Error rej } :: !out
          in
          let emit_sealed seq sealed =
            Telemetry.incr t.telemetry "serve.request.ok";
            out :=
              { r_session_id = sid; r_seq = seq; r_result = Ok sealed } :: !out
          in
          let seal_fallback seq body =
            if !sealed_in_batch = 0 then charge_aead_setup t;
            sealed_in_batch := (!sealed_in_batch + 1) mod reply_ring;
            let len = Bytes.length body in
            charge_aead_bytes t ~bytes:len;
            let nonce = envelope_nonce ~dir:'<' ~seq in
            let aad = aad_rep ~session_id:sid ~seq in
            let ciphertext = Bytes.create len in
            let tag =
              Authenc.seal_into s.keys ~aad ~nonce ~src:body ~src_off:0
                ~dst:ciphertext ~dst_off:0 ~len ()
            in
            emit_sealed seq { Authenc.nonce; ciphertext; tag; aad }
          in
          for i = 0 to st.sg_n - 1 do
            if st.sg_sids.(i) = sid then begin
              let seq = st.sg_seqs.(i) in
              match fault with
              | Some msg -> emit_err seq (Session_fault msg)
              | None -> (
                  match st.sg_shards.(i) with
                  | shard when shard = fallback_shard -> (
                      match st.sg_fb.(i) with
                      | Ok body -> seal_fallback seq body
                      | Error rej -> emit_err seq rej)
                  | shard -> (
                      match (tn.ring_err.(shard), tn.rings.(shard)) with
                      | Some msg, _ -> emit_err seq (Session_fault msg)
                      | None, None -> assert false
                      | None, Some ring
                        when Urts.ring_reply_refused ring ~slot:st.sg_slots.(i)
                        ->
                          emit_err seq Bad_auth
                      | None, Some ring ->
                          let slot = st.sg_slots.(i) in
                          let off, len = Urts.ring_reply_slot ring ~slot in
                          emit_sealed seq
                            {
                              Authenc.nonce = envelope_nonce ~dir:'<' ~seq;
                              ciphertext =
                                Bytes.sub (Urts.ring_reply_buf ring) off len;
                              tag = Urts.ring_reply_tag ring ~slot;
                              aad = aad_rep ~session_id:sid ~seq;
                            }))
            end
          done
        done;
        (* Recycle the arenas: drop envelope references, rewind the
           stage cursor, rewind every ring used this flush. *)
        Array.fill st.sg_envs 0 st.sg_n dummy_sealed;
        Array.fill st.sg_fb 0 st.sg_n dummy_outcome;
        st.sg_n <- 0;
        Array.iter
          (function Some ring -> Urts.ring_reset ring | None -> ())
          tn.rings
      end)
    tenants;
  (* High-water telemetry: monotone counters stepped by the delta to the
     new maximum, so `stats` shows the deepest flush and widest shard
     spread the plane has reached. *)
  if !flush_total > t.hw_staged then begin
    Telemetry.add t.telemetry "serve.arena.high_water"
      (!flush_total - t.hw_staged);
    t.hw_staged <- !flush_total
  end;
  if !rings_used > t.hw_shards then begin
    Telemetry.add t.telemetry "serve.ring.shards_active"
      (!rings_used - t.hw_shards);
    t.hw_shards <- !rings_used
  end;
  List.rev !out

(* ---------------------------------------------------------------------- *)
(* Session state (EDMM)                                                   *)

let resize_session t ~session ~pages =
  if pages < 0 || pages > t.config.state_stride_pages then
    invalid_arg
      (Printf.sprintf "Serve.resize_session: pages must be in [0, %d]"
         t.config.state_stride_pages);
  match Hashtbl.find_opt t.sessions session with
  | None -> reject t (session_reject t session)
  | Some s -> (
      match s.tenant.backend.Backend.kind with
      | Backend.Sgx ->
          reject t
            (Unsupported
               "SGX1 does not support EDMM: session state cannot grow after \
                EINIT")
      | Backend.Native | Backend.Hyperenclave _ ->
          let data =
            state_range
              ~off:(s.state_slot * t.config.state_stride_pages * Addr.page_size)
              ~len:pages
          in
          (match
             Backend.protected_call s.tenant.backend ~id:state_ecall ~data
               ~direction:Edge.In_out ()
           with
          | Backend.Success reply -> (
              s.s_pages <- max s.s_pages pages;
              match decode_state_count reply with
              | Ok n -> Ok n
              | Error m -> reject t (Session_fault m))
          | Backend.Typed_error m | Backend.Violation m ->
              reject t (Session_fault m)))

(* ---------------------------------------------------------------------- *)
(* Quotas and introspection                                               *)

let grant t ~tenant cycles =
  match Hashtbl.find_opt t.tenants tenant with
  | None -> invalid_arg (Printf.sprintf "Serve.grant: unknown tenant %s" tenant)
  | Some tn -> if tn.budget <> max_int then tn.budget <- tn.budget + cycles

let quota_state t ~tenant =
  match Hashtbl.find_opt t.tenants tenant with
  | None ->
      invalid_arg (Printf.sprintf "Serve.quota_state: unknown tenant %s" tenant)
  | Some tn -> (tn.spent, tn.budget)

let session_count t = Hashtbl.length t.sessions

let tenant_rings t ~tenant =
  match Hashtbl.find_opt t.tenants tenant with
  | None -> invalid_arg (Printf.sprintf "Serve.tenant_rings: unknown tenant %s" tenant)
  | Some tn -> List.filter_map Fun.id (Array.to_list tn.rings)

let sched_stats t = Sched.stats t.sched

(* Retire a session: unstage anything still queued, drop its key from
   the enclave, recycle its EDMM state slot through the tenant's free
   list, drop the table entry. *)
let close_session t ~session =
  match Hashtbl.find_opt t.sessions session with
  | None -> reject t (session_reject t session)
  | Some s ->
      let tn = s.tenant in
      (* Kill the session's staged arena slots in place: [-1] marks a
         dead slot every flush pass skips, so closing mid-stage never
         compacts the arena or leaves a dangling session lookup. *)
      let st = tn.stage in
      for i = 0 to st.sg_n - 1 do
        if st.sg_sids.(i) = s.s_id then begin
          st.sg_sids.(i) <- -1;
          st.sg_envs.(i) <- dummy_sealed;
          tn.queued <- tn.queued - 1
        end
      done;
      forget_key s;
      Hashtbl.remove t.sessions session;
      tn.free_slots <- s.state_slot :: tn.free_slots;
      Telemetry.incr t.telemetry "serve.session_close";
      Ok ()

(* ---------------------------------------------------------------------- *)
(* Live migration: export / retire / import                               *)

type session_export = {
  x_session : int;
  x_key : bytes;
  x_recv_seq : int;
  x_pages : int;
  x_state : bytes;
}

type tenant_export = {
  x_tenant : string;
  x_identity : bytes;
  x_sessions : session_export list;
  x_nonces : string list;
}

(* Pull a session's committed EDMM pages out through the enclave's own
   state-read ECALL, one page per protected call — the simulation
   analogue of EWB-style page eviction into the migration blob. *)
let read_state t (tn : tenant) (s : session) =
  let stride_bytes = t.config.state_stride_pages * Addr.page_size in
  let base = s.state_slot * stride_bytes in
  let buf = Buffer.create (s.s_pages * Addr.page_size) in
  let rec go pg =
    if pg = s.s_pages then Ok (Buffer.to_bytes buf)
    else begin
      let data =
        state_range ~off:(base + (pg * Addr.page_size)) ~len:Addr.page_size
      in
      match
        Backend.protected_call tn.backend ~id:state_read_ecall ~data
          ~direction:Edge.In_out ()
      with
      | Backend.Success page ->
          Buffer.add_bytes buf page;
          go (pg + 1)
      | Backend.Typed_error m | Backend.Violation m -> Error (Session_fault m)
    end
  in
  go 0

let export_tenant t ~tenant =
  match Hashtbl.find_opt t.tenants tenant with
  | None -> reject t (Unknown_tenant tenant)
  | Some { t_migrated_to = Some to_node; _ } ->
      reject t (Tenant_migrated { tenant; to_node })
  | Some tn -> (
      if tn.queued > 0 then
        (* Staged-but-unflushed envelopes are in-flight work: exporting
           under them would either drop admitted requests or replay them
           on the destination.  The migration driver flushes first. *)
        reject t (Tenant_busy { tenant; staged = tn.queued })
      else
        match tn.backend.Backend.identity with
        | None ->
            reject t
              (Unsupported "native backend has no enclave identity to migrate")
        | Some x_identity -> (
            let sessions =
              Hashtbl.fold
                (fun _ s acc -> if s.tenant == tn then s :: acc else acc)
                t.sessions []
              |> List.sort (fun a b -> compare a.s_id b.s_id)
            in
            let rec pack acc = function
              | [] -> Ok (List.rev acc)
              | s :: rest -> (
                  match read_state t tn s with
                  | Error _ as e -> e
                  | Ok x_state ->
                      pack
                        ({
                           x_session = s.s_id;
                           x_key = Bytes.copy s.key;
                           x_recv_seq = s.recv_seq;
                           x_pages = s.s_pages;
                           x_state;
                         }
                        :: acc)
                        rest)
            in
            match pack [] sessions with
            | Error rej -> reject t rej
            | Ok x_sessions ->
                (* Carry the replay cache in FIFO order: a nonce burnt
                   before the move must stay burnt after it, or a recorded
                   handshake replays against the destination. *)
                let x_nonces =
                  List.rev (Queue.fold (fun acc n -> n :: acc) [] t.nonce_order)
                in
                Telemetry.incr t.telemetry "serve.migrate.export";
                Ok { x_tenant = tenant; x_identity; x_sessions; x_nonces }))

(* Cutover: the source stops answering for the tenant and forwards
   stragglers.  Live sessions become typed forwards; their keys leave
   the enclave and their state slots recycle. *)
let retire_tenant t ~tenant ~to_node =
  match Hashtbl.find_opt t.tenants tenant with
  | None -> reject t (Unknown_tenant tenant)
  | Some tn ->
      if tn.queued > 0 then
        reject t (Tenant_busy { tenant; staged = tn.queued })
      else begin
        let sessions =
          Hashtbl.fold
            (fun id s acc -> if s.tenant == tn then (id, s) :: acc else acc)
            t.sessions []
        in
        List.iter
          (fun (id, s) ->
            forget_key s;
            Hashtbl.remove t.sessions id;
            tn.free_slots <- s.state_slot :: tn.free_slots;
            Hashtbl.replace t.migrated id to_node)
          sessions;
        drop_keys_now t tn;
        tn.t_migrated_to <- Some to_node;
        Telemetry.incr t.telemetry "serve.migrate.retire";
        Ok (List.length sessions)
      end

(* Replay an exported session's bytes into the destination enclave's
   heap, page-sized protected writes after re-committing the pages. *)
let write_state t (tn : tenant) ~slot (sx : session_export) =
  let stride_bytes = t.config.state_stride_pages * Addr.page_size in
  let base = slot * stride_bytes in
  let total = Bytes.length sx.x_state in
  let rec go off =
    if off >= total then Ok ()
    else begin
      let len = min Addr.page_size (total - off) in
      let data = Bytes.create (8 + len) in
      Bytes.set_int64_le data 0 (Int64.of_int (base + off));
      Bytes.blit sx.x_state off data 8 len;
      match
        Backend.protected_call tn.backend ~id:state_write_ecall ~data
          ~direction:Edge.In_out ()
      with
      | Backend.Success _ -> go (off + len)
      | Backend.Typed_error m | Backend.Violation m -> Error (Session_fault m)
    end
  in
  go 0

let import_tenant t (x : tenant_export) =
  match Hashtbl.find_opt t.tenants x.x_tenant with
  | None -> reject t (Unknown_tenant x.x_tenant)
  | Some tn -> (
      match tn.backend.Backend.identity with
      | None ->
          reject t
            (Unsupported "native backend has no enclave identity to verify")
      | Some local when not (Bytes.equal local x.x_identity) ->
          (* The destination rebuilt the tenant enclave from the same
             registry config; if it does not measure identically the
             sealed sessions would resume inside a different program. *)
          reject t
            (Import_conflict
               "enclave identity does not match the destination's measurement")
      | Some _ -> (
          (* A live session with the same id is a hard conflict; an entry
             in [migrated] is only a forwarding address and clears when
             the session comes home (migrate-back / rolling upgrade). *)
          match
            List.find_opt
              (fun (sx : session_export) -> Hashtbl.mem t.sessions sx.x_session)
              x.x_sessions
          with
          | Some sx ->
              reject t
                (Import_conflict
                   (Printf.sprintf "session id %d is live on this node"
                      sx.x_session))
          | None -> (
              match
                List.find_opt
                  (fun (sx : session_export) ->
                    sx.x_pages > t.config.state_stride_pages)
                  x.x_sessions
              with
              | Some sx ->
                  reject t
                    (Import_conflict
                       (Printf.sprintf
                          "session %d state (%d pages) exceeds this node's \
                           %d-page stride"
                          sx.x_session sx.x_pages t.config.state_stride_pages))
              | None -> (
                  (* Install one session at a time; any state failure rolls
                     back what was installed so a botched import never
                     leaves half a tenant behind. *)
                  let installed = ref [] in
                  let rollback () =
                    List.iter
                      (fun (id, slot) ->
                        Hashtbl.remove t.sessions id;
                        tn.free_slots <- slot :: tn.free_slots)
                      !installed
                  in
                  let recommit slot pages =
                    if pages = 0 then Ok ()
                    else begin
                      let data =
                        state_range
                          ~off:(slot * t.config.state_stride_pages * Addr.page_size)
                          ~len:pages
                      in
                      match
                        Backend.protected_call tn.backend ~id:state_ecall ~data
                          ~direction:Edge.In_out ()
                      with
                      | Backend.Success _ -> Ok ()
                      | Backend.Typed_error m | Backend.Violation m ->
                          Error (Session_fault m)
                    end
                  in
                  let rec go = function
                    | [] -> Ok ()
                    | (sx : session_export) :: rest -> (
                        let slot = alloc_slot tn in
                        let outcome =
                          match recommit slot sx.x_pages with
                          | Error _ as e -> e
                          | Ok () -> write_state t tn ~slot sx
                        in
                        match outcome with
                        | Error e ->
                            tn.free_slots <- slot :: tn.free_slots;
                            Error e
                        | Ok () ->
                            let key = Bytes.copy sx.x_key in
                            charge_aead_setup t;
                            Hashtbl.replace t.sessions sx.x_session
                              {
                                s_id = sx.x_session;
                                tenant = tn;
                                key;
                                keys = Authenc.prepare key;
                                state_slot = slot;
                                recv_seq = sx.x_recv_seq;
                                installed = false;
                                s_pages = sx.x_pages;
                              };
                            installed := (sx.x_session, slot) :: !installed;
                            go rest)
                  in
                  match go x.x_sessions with
                  | Error rej ->
                      rollback ();
                      reject t rej
                  | Ok () ->
                      List.iter
                        (fun (sx : session_export) ->
                          Hashtbl.remove t.migrated sx.x_session;
                          if sx.x_session >= t.next_session then
                            t.next_session <- sx.x_session + 1)
                        x.x_sessions;
                      List.iter
                        (fun n -> ignore (nonce_replayed t (Bytes.of_string n)))
                        x.x_nonces;
                      tn.t_migrated_to <- None;
                      Telemetry.incr t.telemetry "serve.migrate.import";
                      Ok (List.length x.x_sessions)))))

let destroy t =
  if not t.destroyed then begin
    t.destroyed <- true;
    (match t.qe with Some u -> Urts.destroy u | None -> ());
    t.qe <- None;
    (* The plane built every tenant backend ([add_tenant] calls
       [Backend.create]), so it owns their teardown too — callers no
       longer destroy the returned handle themselves. *)
    List.iter
      (fun name ->
        match Hashtbl.find_opt t.tenants name with
        | Some tn -> tn.backend.Backend.destroy ()
        | None -> ())
      (List.rev t.tenant_order);
    Hashtbl.reset t.tenants;
    Hashtbl.reset t.sessions;
    Hashtbl.reset t.migrated;
    Hashtbl.reset t.seen_nonces;
    Queue.clear t.nonce_order;
    t.tenant_order <- []
  end

(* ---------------------------------------------------------------------- *)
(* Session resumption                                                     *)

let ticket_aad = Bytes.of_string "serve-ticket:v1"

(* Ticket payload: [8B LE name_len][name][32B session key][8B LE expiry]. *)
let encode_ticket ~tenant ~key ~expires =
  let buf = Buffer.create (String.length tenant + 48) in
  Codec.put_framed64 buf (Bytes.of_string tenant);
  Buffer.add_bytes buf key;
  Buffer.add_int64_le buf (Int64.of_int expires);
  Buffer.to_bytes buf

let decode_ticket =
  Codec.decode "ticket payload" (fun r ->
      let tenant = Bytes.to_string (Codec.framed64 r "tenant") in
      let key = Codec.take r 32 "key" in
      (tenant, key, Codec.int64_le r "expiry"))

let issue_ticket t ~session =
  match Hashtbl.find_opt t.sessions session with
  | None -> reject t (session_reject t session)
  | Some s ->
      let expires =
        Cycles.now t.platform.Platform.clock + t.config.ticket_ttl
      in
      let payload = encode_ticket ~tenant:s.tenant.t_name ~key:s.key ~expires in
      charge_aead t ~bytes:(Bytes.length payload);
      let sealed =
        Authenc.seal ~key:t.ticket_key ~aad:ticket_aad
          ~nonce:(Rng.bytes t.rng 12) payload
      in
      Telemetry.incr t.telemetry "serve.ticket_issued";
      Ok (Authenc.encode sealed)

(* The resumed channel never reuses the ticketed traffic key directly:
   both sides derive a fresh one from it and the client's resumption
   nonce, so tickets are single-direction key material. *)
let resumed_key ~key ~nonce =
  let ctx = Sha256.init () in
  Sha256.update_string ctx "hyperenclave-serve-resume:";
  Sha256.update ctx key;
  Sha256.update ctx nonce;
  Sha256.finalize ctx

type resume = { r_ticket : bytes; r_nonce : bytes }

let resume t (r : resume) =
  (* Burn the nonce first, success or not — a replayed resumption must
     never open a second session. *)
  if nonce_replayed t r.r_nonce then reject t Replayed_nonce
  else
    match Authenc.decode r.r_ticket with
    | Error m -> reject t (Bad_ticket m)
    | Ok sealed ->
        if not (Bytes.equal sealed.Authenc.aad ticket_aad) then
          reject t (Bad_ticket "wrong ticket domain")
        else begin
          charge_aead t ~bytes:(Bytes.length sealed.Authenc.ciphertext);
          match Authenc.unseal ~key:t.ticket_key sealed with
          | exception Authenc.Authentication_failure ->
              reject t (Bad_ticket "ticket authentication failed")
          | payload -> (
              match decode_ticket payload with
              | Error m -> reject t (Bad_ticket m)
              | Ok (tenant, key, expires) -> (
                  if Cycles.now t.platform.Platform.clock > expires then
                    reject t Ticket_expired
                  else
                    match Hashtbl.find_opt t.tenants tenant with
                    | None -> reject t (Unknown_tenant tenant)
                    | Some { t_migrated_to = Some to_node; _ } ->
                        reject t (Tenant_migrated { tenant; to_node })
                    | Some tn ->
                        let key = resumed_key ~key ~nonce:r.r_nonce in
                        let session_id = t.next_session in
                        t.next_session <- session_id + 1;
                        let state_slot = alloc_slot tn in
                        charge_aead_setup t;
                        Hashtbl.replace t.sessions session_id
                          {
                            s_id = session_id;
                            tenant = tn;
                            key;
                            keys = Authenc.prepare key;
                            state_slot;
                            recv_seq = 0;
                            installed = false;
                            s_pages = 0;
                          };
                        Telemetry.incr t.telemetry "serve.resume";
                        Telemetry.incr t.telemetry "serve.session_open";
                        Ok session_id))
        end

(* ---------------------------------------------------------------------- *)
(* Client                                                                 *)

module Client = struct
  type hs = { hs_nonce : bytes; secret : Kx.secret; hs_client_kx : Kx.public }

  type t = {
    rng : Rng.t;
    golden : Verifier.golden;
    policy : Verifier.policy;
    expected_tenant : bytes option;
    expected_hapk : Signature.public_key option;
        (* pin to one node's monitor: in a fleet, golden measurements
           alone admit every honestly-booted sibling *)
    mutable hs : hs option;
    mutable session : (int * bytes * Authenc.keys) option;
        (* id, key (kept to derive a resumed key), and the key prepared
           once for every request and reply of the session *)
    mutable send_seq : int;
    mutable pending_resume : (bytes * bytes) option;
        (* (resumption nonce, ticketed key) while a resume is in flight *)
  }

  let create ~rng ~golden ~policy ?expected_tenant ?expected_hapk () =
    {
      rng;
      golden;
      policy;
      expected_tenant;
      expected_hapk;
      hs = None;
      session = None;
      send_seq = 0;
      pending_resume = None;
    }

  let hello t =
    let hs_nonce = Rng.bytes t.rng 16 in
    let secret, hs_client_kx = Kx.generate t.rng in
    t.hs <- Some { hs_nonce; secret; hs_client_kx };
    t.session <- None;
    t.send_seq <- 0;
    t.pending_resume <- None;
    { nonce = hs_nonce; client_kx = hs_client_kx }

  let resume_hello t ~ticket =
    match t.session with
    | None ->
        invalid_arg "Serve.Client.resume_hello: no session key to resume from"
    | Some (_, key, _) ->
        let nonce = Rng.bytes t.rng 16 in
        t.pending_resume <- Some (nonce, key);
        t.hs <- None;
        t.session <- None;
        t.send_seq <- 0;
        { r_ticket = ticket; r_nonce = nonce }

  let complete_resume t ~session_id =
    match t.pending_resume with
    | None -> invalid_arg "Serve.Client.complete_resume: no resume in flight"
    | Some (nonce, key) ->
        let key = resumed_key ~key ~nonce in
        t.pending_resume <- None;
        t.session <- Some (session_id, key, Authenc.prepare key)

  let establish t (accept : accept) =
    match t.hs with
    | None -> invalid_arg "Serve.Client.establish: no handshake in flight"
    | Some hs -> (
        match Wire.decode accept.quote_wire with
        | Error m -> Error (Bad_wire m)
        | Ok quote -> (
            match
              Verifier.verify ~golden:t.golden ~policy:t.policy
                ?expected_hapk:t.expected_hapk ~nonce:hs.hs_nonce quote
            with
            | Verifier.Error f -> Error (Handshake_failed f)
            | Verifier.Ok report -> (
                (* The quote speaks; now check it speaks about THIS
                   exchange: transcript binding, then the claimed tenant
                   identity against the pin. *)
                let expected =
                  Sha256.transcript sigma
                    [ hs.hs_nonce; hs.hs_client_kx; accept.server_kx;
                      accept.tenant_identity ]
                in
                let bound =
                  Bytes.length report.Hyperenclave_monitor.Sgx_types.report_data
                  >= 32
                  && Bytes.equal expected
                       (Bytes.sub
                          report.Hyperenclave_monitor.Sgx_types.report_data 0 32)
                in
                if not bound then Error Channel_binding_mismatch
                else
                  match t.expected_tenant with
                  | Some pin when not (Bytes.equal pin accept.tenant_identity)
                    ->
                      Error
                        (Handshake_failed
                           (Verifier.Policy_violation
                              "tenant identity mismatch"))
                  | Some _ | None -> (
                      match Kx.shared hs.secret accept.server_kx with
                      | None -> Error Unknown_key_share
                      | Some shared ->
                          let key = derive_key ~shared ~nonce:hs.hs_nonce in
                          t.session <-
                            Some (accept.session_id, key, Authenc.prepare key);
                          Ok ()))))

  let session_id t =
    match t.session with
    | Some (id, _, _) -> id
    | None -> invalid_arg "Serve.Client.session_id: no session established"

  let request t ~ecall data =
    match t.session with
    | None -> invalid_arg "Serve.Client.request: no session established"
    | Some (session_id, _, keys) ->
        let seq = t.send_seq in
        t.send_seq <- seq + 1;
        let nonce = envelope_nonce ~dir:'>' ~seq in
        let aad = aad_req ~session_id ~seq ~ecall_id:ecall in
        let len = Bytes.length data in
        let ciphertext = Bytes.create len in
        let tag =
          Authenc.seal_into keys ~aad ~nonce ~src:data ~src_off:0
            ~dst:ciphertext ~dst_off:0 ~len ()
        in
        {
          session_id;
          seq;
          ecall_id = ecall;
          envelope = { Authenc.nonce; ciphertext; tag; aad };
        }

  let read_reply t (reply : reply) =
    match t.session with
    | None -> invalid_arg "Serve.Client.read_reply: no session established"
    | Some (session_id, _, keys) -> (
        if reply.r_session_id <> session_id then
          Error (Unknown_session reply.r_session_id)
        else
          match reply.r_result with
          | Error rej -> Error rej
          | Ok sealed -> (
              if
                not
                  (Bytes.equal sealed.Authenc.aad
                     (aad_rep ~session_id ~seq:reply.r_seq))
              then Error Bad_auth
              else if not (Authenc.verify_sealed keys sealed) then
                Error Bad_auth
              else
                let len = Bytes.length sealed.Authenc.ciphertext in
                let body = Bytes.create len in
                Authenc.decrypt_into keys ~nonce:sealed.Authenc.nonce
                  ~src:sealed.Authenc.ciphertext ~src_off:0 ~dst:body
                  ~dst_off:0 ~len;
                Ok body))

  let roundtrip plane t reqs =
    let submitted =
      List.map
        (fun (ecall, data) ->
          let r = request t ~ecall data in
          (r.seq, submit plane r))
        reqs
    in
    let replies = flush plane in
    let mine = session_id t in
    List.map
      (fun (seq, admitted) ->
        match admitted with
        | Error rej -> Error rej
        | Ok () -> (
            match
              List.find_opt
                (fun r -> r.r_session_id = mine && r.r_seq = seq)
                replies
            with
            | None -> Error (Session_fault "no reply for admitted request")
            | Some reply -> read_reply t reply))
      submitted
end
