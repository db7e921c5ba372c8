(** SHA-256 (FIPS 180-4), implemented from scratch.

    Used for all measurements in the system: TPM PCR extends, the enclave
    measurement computed page-by-page at EADD/EINIT, and MAC/KDF
    construction.  Digests are 32 raw bytes; [to_hex] renders them. *)

type ctx

val init : unit -> ctx
val update : ctx -> bytes -> unit

val update_sub : ctx -> bytes -> off:int -> len:int -> unit
(** Absorb [data[off, off+len)] without slicing a fresh buffer — the
    zero-copy MAC path hashes ciphertext straight out of the ring.
    @raise Invalid_argument on an out-of-bounds slice. *)

val update_string : ctx -> string -> unit
val finalize : ctx -> bytes
(** Finalizing consumes the context; further [update]s raise
    [Invalid_argument]. *)

val finalize_into : ctx -> bytes -> unit
(** {!finalize} writing the digest into the first 32 bytes of the given
    buffer instead of a fresh one; the padding is built inside the
    context, so this allocates nothing.
    @raise Invalid_argument if the buffer is shorter than 32 bytes. *)

val chain : ctx -> int array
(** The 8-word chaining state of a context that has absorbed exactly one
    64-byte block (a copy).
    @raise Invalid_argument otherwise. *)

val restart : ctx -> int array -> unit
(** [restart ctx h] discards [ctx]'s contents and continues a hash whose
    first 64 bytes left chaining state [h] (from {!chain}): a context
    reused this way computes the same digests as a fresh one that
    absorbed that block. *)

val copy : ctx -> ctx
(** Independent clone of a running context.  Lets a caller peek at the
    digest-so-far (finalize the copy) without consuming the original —
    the monitor uses this so a failed EINIT cannot brick the enclave's
    measurement, and lib/mc uses it to snapshot in-build enclaves. *)

val digest_bytes : bytes -> bytes
val digest_string : string -> bytes

val to_int : bytes -> int
(** The low 62 bits of a digest's first little-endian word: a hash point. *)

val transcript : string -> bytes list -> bytes
(** [transcript label fields] hashes [label], then each field behind its
    u64 little-endian length word ({!Hyperenclave_hw.Codec.put_framed64}),
    so distinct field lists never collide by concatenation. *)

val digest_size : int
(** 32. *)

val to_hex : bytes -> string
val equal : bytes -> bytes -> bool
(** Constant-time-style comparison (full scan regardless of mismatch). *)
