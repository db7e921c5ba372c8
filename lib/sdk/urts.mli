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

(** {2 Arena ring: sharded, allocation-free switchless ECALL dispatch}

    A fixed-stride slot ring per (tenant, shard) in the pinned
    marshalling buffer.  Every slot is [16 + slot_bytes] wide, so callers
    seal/decrypt AEAD payloads in place — the ring slot {e is} the
    envelope — and the staging images are recycled across flushes.  The
    dispatch is switchless: no TCS take, no EENTER/EEXIT, no SDK soft
    path; one post fence plus [ring_slot_dispatch] cycles per slot.
    Consequences: ring handlers must not OCALL (typed "OCALL outside an
    ECALL" refusal) and the AEX preemption timer never fires inside a
    ring dispatch. *)

type ring

val create_ring :
  t -> shard:int -> shards:int -> slots:int -> slot_bytes:int -> ring
(** Carve shard [shard] of [shards] equal segments out of the input and
    output marshalling regions and build its reusable staging images.
    [slot_bytes] must be a positive multiple of 8.
    @raise Enclave_error when [slots * (16 + slot_bytes) + 8] exceeds the
    per-shard segment — the fix is a larger [ms_bytes]. *)

val ring_stage : ring -> ecall_id:int -> len:int -> int
(** Claim the next slot for a [len]-byte payload of ECALL [ecall_id] and
    return the payload's byte offset into {!ring_buf}: the caller writes
    (or decrypts) the payload directly there.
    @raise Enclave_error when the ring is full or [len > slot_bytes]. *)

val ring_publish : ring -> unit
(** Untrusted request half: publish the staged image into the shard's
    pinned request segment (fires the marshalling-in fault site, pays the
    marshalling-in rate) on the caller's clock. *)

val ring_dispatch : ring -> unit
(** Trusted half: the persistent in-enclave worker serves every staged
    slot in order, framing replies at the same stride in the shard's
    reply segment.  Charged to the calling (core) clock.  Wrapped in the
    standard transient-fault retry loop. *)

val ring_read_replies : ring -> unit
(** Untrusted reply half: pull the reply image back into
    {!ring_reply_buf} (fires the marshalling-out fault site, pays the
    marshalling-out rate) on the caller's clock.  Callers that must
    absorb injected faults wrap this in [Fault.with_retries].
    @raise Enclave_error if the reply count disagrees with the staged
    count. *)

val ring_reply_slot : ring -> slot:int -> int * int
(** [(payload_offset, length)] of a served slot's reply inside
    {!ring_reply_buf}; sealing in place reads and writes there.
    @raise Enclave_error on an out-of-range slot or corrupt length. *)

val ring_staged : ring -> int
val ring_capacity : ring -> int

val ring_buf : ring -> bytes
(** The reusable staged-request image (header + slots). *)

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
