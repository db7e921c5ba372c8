(** The untrusted runtime (SDK uRTS) and enclave loader (Sec. 3.4, 5.3).

    Mirrors [libsgx_urts.so] as retrofitted by HyperEnclave:

    - {!create} plays the loader + [sgx_sign]: builds the enclave image
      page by page through the kernel module's ioctls, predicts MRENCLAVE
      with {!Measure.expected}, signs the SIGSTRUCT, mmaps the
      marshalling buffer with MAP_POPULATE, pins it, and EINITs.
    - {!ecall} runs the full edge-call path of Fig. 6 with the
      marshalling-buffer copies of Fig. 7; OCALLs issued by the enclave
      come back through the registered untrusted handlers.
    - exceptions raised inside the enclave follow the mode-appropriate
      path: in-enclave delivery for P-Enclaves, the AEX + signal +
      internal-handler-ECALL + ERESUME two-phase dance otherwise. *)

open Hyperenclave_hw
open Hyperenclave_monitor
open Hyperenclave_os

type config = {
  mode : Sgx_types.operation_mode;
  debug : bool;
  elrange_pages : int;  (** total enclave virtual range, pages *)
  code_pages : int;
  data_pages : int;
  tcs_count : int;  (** >= 2 so the two-phase exception flow has a free
                        TCS while the faulted one is parked *)
  nssa : int;
  ms_bytes : int;  (** marshalling buffer size *)
  code_seed : string;  (** stands for the code identity: different seed,
                           different MRENCLAVE *)
  isv_prod_id : int;
  isv_svn : int;
}

val default_config : Sgx_types.operation_mode -> config

exception Enclave_error of string

type t

val create :
  kmod:Kmod.t ->
  proc:Process.t ->
  rng:Rng.t ->
  signer:Hyperenclave_crypto.Signature.private_key ->
  config:config ->
  ecalls:(int * Tenv.handler) list ->
  ocalls:(int * (bytes -> bytes)) list ->
  t

val ecall :
  t -> id:int -> ?data:bytes -> direction:Edge.direction -> unit -> bytes
(** @raise Enclave_error on unknown id or no free TCS. *)

val ecall_no_ms :
  t -> id:int -> ?data:bytes -> direction:Edge.direction -> unit -> bytes
(** Fig. 7's baseline variant: the same call without the marshalling
    buffer legs (direct-copy semantics, as plain SGX would do). *)

val max_batch : int
(** Ring capacity: the most requests one batched world switch carries. *)

val ecall_batch : t -> reqs:(int * bytes) list -> unit -> bytes list
(** Switchless call ring: stage up to {!max_batch} ECALL requests in the
    marshalling buffer and serve them all under a single world switch —
    one SDK soft path + one EENTER/EEXIT pair, with each slot past the
    first paying only the in-enclave ring dispatch cost.  Replies come
    back in request order.  All slots use [In_out] marshalling
    semantics.
    @raise Enclave_error on unknown id, oversized batch, or ring frames
    exceeding their marshalling region. *)

(** {2 Arena ring: sharded switchless dispatch of an attested channel}

    A fixed-stride slot ring per (tenant, shard) in the pinned
    marshalling buffer that carries channel traffic in ciphertext end to
    end.  The caller stages each request's ciphertext behind a slot
    header naming its ECALL, session, sequence number and tag; the
    persistent in-enclave worker has the ring's {!channel} check the tag
    and open every slot into enclave memory, runs the handler, and has
    the channel seal the reply in place with its tag beside it.  A slot
    whose tag fails is refused ({!ring_reply_refused}): its handler never
    runs and the ring's other slots are served.  The marshalling buffer and
    the staging images only ever hold ciphertext and tags.  The images
    are recycled across flushes and grow by doubling from 8 slots to the
    deepest flush staged.  The dispatch is switchless: no TCS take, no
    EENTER/EEXIT, no SDK soft path; one post fence plus
    [ring_slot_dispatch] cycles per slot.  Consequences: ring handlers
    must not OCALL (typed "OCALL outside an ECALL" refusal) and the AEX
    preemption timer never fires inside a ring dispatch. *)

type channel = {
  open_slot :
    nth:int -> session:int -> seq:int -> ecall:int -> tag:bytes -> bytes -> bool;
      (** Check [tag] over the enclave's copy of a sealed slot's
          ciphertext, request [seq] of [session] for [ecall], and
          decrypt it in place; [nth] slots of this dispatch were opened
          before it.  [false] when the tag fails: the slot is refused
          and the buffer stays ciphertext. *)
  seal_slot :
    nth:int -> session:int -> seq:int -> bytes -> bytes -> off:int -> unit;
      (** [seal_slot ~nth ~session ~seq reply buf ~off] encrypts [reply]
          to [buf] at [off + 32] and writes its 32-byte tag at [off]. *)
}
(** The tenant's trusted channel code, run by the worker inside the
    enclave around the handler of every sealed slot.  It owns the
    enclave's session keys; for a session it holds no key for, or an
    authentic sequence number the host replays, it raises
    {!Enclave_error}, which fails the ring. *)

type slot_header = {
  h_ecall : int;
  h_len : int;  (** ciphertext bytes, at most [slot_bytes] *)
  h_session : int;
  h_seq : int;
  h_tag : bytes;  (** 32 bytes: the request envelope's tag *)
  h_clear : bool;
      (** a plain switchless call: payload and reply in the clear *)
}
(** A request slot's header: 72 bytes,
    [[ecall:8][len:8][session:8][seq:8][tag:32][clear:1][0:7]],
    little-endian words. *)

val slot_header_bytes : int
(** 72: a slot's stride is this plus its payload capacity. *)

val encode_slot_header : slot_header -> bytes

val decode_slot_header :
  slot_bytes:int -> bytes -> (slot_header, string) result
(** The worker's header reader, through {!Hyperenclave_hw.Codec}: total,
    and canonical (non-negative session and sequence words, a length of
    at most [slot_bytes], a clear flag of 0 or 1, zero padding). *)

type ring

val create_ring :
  t -> shard:int -> shards:int -> slots:int -> slot_bytes:int -> channel -> ring
(** Carve shard [shard] of [shards] equal segments out of the input and
    output marshalling regions and build 8-slot staging images.
    [slot_bytes] must be a positive multiple of 8.
    @raise Enclave_error when [slots * (72 + slot_bytes) + 8] exceeds the
    per-shard segment — the fix is a larger [ms_bytes]. *)

val ring_stage :
  ring ->
  ecall_id:int ->
  session:int ->
  seq:int ->
  tag:bytes ->
  src:bytes ->
  src_off:int ->
  len:int ->
  unit
(** Claim the next slot: write its header and copy the [len] ciphertext
    bytes of [src] at [src_off] into {!ring_buf}, doubling the images
    first if the slot does not fit.
    @raise Enclave_error when the ring is full, [len > slot_bytes] or the
    tag is not 32 bytes. *)

val ring_call : ring -> ecall_id:int -> bytes -> unit
(** Claim the next slot for a clear switchless call of ECALL [ecall_id]:
    the worker runs its handler on the argument as it is and stores the
    reply in the clear.  The channel uses it to hand the enclave session
    keys ahead of the sealed slots that need them.
    @raise Enclave_error when the ring is full or the argument exceeds
    [slot_bytes]. *)

val ring_publish : ring -> unit
(** Untrusted request half: publish the staged image into the shard's
    pinned request segment (fires the marshalling-in fault site, pays the
    marshalling-in rate) on the caller's clock. *)

val ring_dispatch : ring -> unit
(** Trusted half: the persistent in-enclave worker reads the published
    image with one bounded reader and serves every slot in order,
    sealing replies at the same stride in the shard's reply segment.
    Charged to the calling (core) clock.  Wrapped in the standard
    transient-fault retry loop.
    @raise Enclave_error on a corrupt image, an unknown ECALL, a session
    the channel holds no key for, or an oversized reply. *)

val ring_read_replies : ring -> unit
(** Untrusted reply half: pull the reply image back into
    {!ring_reply_buf} (fires the marshalling-out fault site, pays the
    marshalling-out rate) on the caller's clock, and read its served
    count and slot length words through {!Hyperenclave_hw.Codec}.
    Callers that must absorb injected faults wrap this in
    [Fault.with_retries].
    @raise Enclave_error if the reply count disagrees with the staged
    count or a length word is neither the refusal marker nor within
    [slot_bytes]. *)

val ring_reply_refused : ring -> slot:int -> bool
(** The worker refused the slot: its request failed its tag, so no
    handler ran and it has no reply.
    @raise Enclave_error on an out-of-range slot. *)

val ring_reply_slot : ring -> slot:int -> int * int
(** [(offset, length)] of a served slot's reply ciphertext inside
    {!ring_reply_buf}.
    @raise Enclave_error on an out-of-range or refused slot. *)

val ring_reply_tag : ring -> slot:int -> bytes
(** A copy of a served slot's 32-byte reply tag.
    @raise Enclave_error on an out-of-range slot. *)

val ring_staged : ring -> int
(** Slots staged, clear calls included. *)

val ring_requests : ring -> int
(** Sealed slots staged: the requests a dispatch serves. *)

val ring_capacity : ring -> int

val ring_buf : ring -> bytes
(** The staged-request image (count word + slots), sized to the deepest
    flush staged so far. *)

val ring_reply_buf : ring -> bytes
(** The reusable reply image, valid after {!ring_read_replies}. *)

val ring_reset : ring -> unit
(** Forget the staged slots; the images are reused as-is. *)

val frame_requests : (int * bytes) list -> bytes
(** Ring frame layout shared by the ECALL and OCALL rings:
    [[count][id, len, payload]*] with 8-byte little-endian words,
    assembled with one exact-size allocation and one blit per slot. *)

val parse_frames : what:string -> bytes -> (int * bytes) list
(** Parse a ring frame back into [(id, payload)] slots through
    {!Hyperenclave_hw.Codec}.
    @raise Enclave_error (tagged [what]) on a truncated frame, an
    out-of-range slot count, a corrupt length word (negative, near
    [max_int], or with bit 63 set) or trailing bytes. *)

val arm_timer : t -> quantum:int -> ?on_preempt:(unit -> unit) -> unit -> unit
(** Arm the scheduler's AEX preemption timer: once the clock passes the
    armed deadline mid-ECALL, the next trusted compute step takes a full
    AEX (SSA spill) + ERESUME round trip through the monitor, invokes
    [on_preempt] (after the ERESUME, with the enclave re-entered), and
    re-arms one quantum later.  Disarmed runs pay one field read per
    compute call, keeping unscheduled executions cycle-identical. *)

val disarm_timer : t -> unit

val free_tcs_count : t -> int
(** TCSs currently available for entry (neither busy nor parked on an
    in-flight OCALL awaiting ORET). *)

val destroy : t -> unit
(** EREMOVE via the kernel module, which also releases the
    marshalling-buffer pins it took at creation. *)

val enclave : t -> Enclave.t
val mrenclave : t -> bytes
val mode : t -> Sgx_types.operation_mode
val stats : t -> Enclave.stats
val config : t -> config
val monitor : t -> Monitor.t

val gen_quote : t -> report_data:bytes -> nonce:bytes -> Monitor.quote
(** Sec. 3.3 remote attestation: quote for this enclave. *)

val ms_ocall_off : t -> int
(** Byte offset of the ocalloc arena within the marshalling buffer. *)

val ms_raw_write : t -> off:int -> bytes -> unit
(** Raw app-side write into the pinned marshalling buffer (fires the
    marshalling-in fault site; cycle cost is the caller's to charge). *)

val oret_batch : t -> arg_off:int -> staged_len:int -> int
(** Untrusted half of the OCALL reply ring: drain every staged slot at
    [arg_off] through its registered handler and write the reply frame
    back in place, returning its length.  Exposed for direct testing of
    the drain loop's refusals.
    @raise Enclave_error on a corrupt frame or an unregistered OCALL id
    in a drained slot. *)

val aep : int
(** The asynchronous exit pointer / ECALL return site the monitor's EEXIT
    validation is checked against. *)
