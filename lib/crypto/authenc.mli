(** Authenticated encryption: AES-128-CTR with an encrypt-then-MAC
    HMAC-SHA256 tag.

    Backs TPM sealing and the SDK's [sgx_seal_data] equivalent.  The key is
    any 32-byte secret; HKDF derives the 16-byte cipher key and the
    32-byte MAC key from it under two labels. *)

type sealed = {
  nonce : bytes;  (** 12 bytes *)
  ciphertext : bytes;
  tag : bytes;  (** 32 bytes *)
  aad : bytes;  (** additional authenticated data, bound but not hidden *)
}

exception Authentication_failure

val seal : key:bytes -> ?aad:bytes -> nonce:bytes -> bytes -> sealed
(** The cold path for a key used once (a TPM seal, a swap blob, a
    ticket): {!prepare} then {!seal_into} into a fresh ciphertext.
    @raise Invalid_argument if [key] is not 32 bytes or nonce not 12. *)

val unseal : key:bytes -> sealed -> bytes
(** The cold path: {!prepare}, {!verify_sealed}, then {!decrypt_into}
    a fresh plaintext.
    @raise Authentication_failure if the tag, AAD, or key is wrong. *)

(** {2 Prepared keys and the zero-copy path}

    [prepare] pays the HKDF key split, the AES key schedule and the
    HMAC pad blocks once, so a key used for many messages (both ends of
    a session) should be prepared once and kept.  The operations below
    then run the cipher over caller-provided buffer slices (e.g.
    ring-resident frames) and compute the tag without copying the
    message; a seal allocates only its 32-byte tag and a tag check
    nothing (it computes into a scratch in [keys]).  The MAC input is
    nonce, AAD and ciphertext, each prefixed by its 32-bit big-endian
    length, and every operation is byte-compatible with {!seal} /
    {!unseal} on the same key. *)

type keys
(** Prepared key material for one 32-byte key.  It carries the MAC's
    running state, so one [keys] value must not be used by two tag
    computations at once (from two domains, or re-entrantly).  The
    library runs on one domain and no callback runs mid-tag, so
    sequential use from anywhere is fine. *)

val prepare : bytes -> keys
(** @raise Invalid_argument if the key is not 32 bytes. *)

val seal_into :
  keys ->
  ?aad:bytes ->
  nonce:bytes ->
  src:bytes ->
  src_off:int ->
  dst:bytes ->
  dst_off:int ->
  len:int ->
  unit ->
  bytes
(** Encrypt [src[src_off, src_off+len)] into [dst[dst_off, ...)] ([src]
    and [dst] may alias for a true in-place seal) and return the 32-byte
    tag over the ciphertext slice.  @raise Invalid_argument on bad
    slices or a nonce that is not 12 bytes. *)

val verify_slice :
  keys ->
  aad:bytes ->
  nonce:bytes ->
  tag:bytes ->
  buf:bytes ->
  off:int ->
  len:int ->
  bool
(** Tag check over a ciphertext slice without decrypting; allocates
    nothing. *)

val verify_sealed : keys -> sealed -> bool
(** Tag check of a {!sealed} record without producing plaintext. *)

val unseal_in_place :
  keys -> ?aad:bytes -> nonce:bytes -> tag:bytes -> bytes -> off:int -> len:int -> unit
(** Authenticate then decrypt [buf[off, off+len)] in place.
    @raise Authentication_failure if the tag, AAD, or key is wrong (the
    buffer is untouched in that case). *)

val decrypt_into :
  keys ->
  nonce:bytes ->
  src:bytes ->
  src_off:int ->
  dst:bytes ->
  dst_off:int ->
  len:int ->
  unit
(** Decrypt WITHOUT authenticating: the completion half of an unseal
    whose tag was already checked with {!verify_slice} /
    {!verify_sealed}.  Never call this on unauthenticated bytes. *)

val encode : sealed -> bytes
(** Length-prefixed wire form (for writing sealed blobs to "disk"). *)

val decode : bytes -> (sealed, string) result
(** Total: a malformed blob is an [Error] naming the field. *)
