(** HMAC-SHA256 (RFC 2104) and HKDF (RFC 5869).

    The key-derivation chain of Sec. 3.3 ("all other key materials,
    including the enclave's sealing key and report key, are derived from
    K_root and the enclave's measurement") is built on these. *)

val hmac : key:bytes -> bytes -> bytes
(** HMAC-SHA256; 32-byte tag.  The cold path: it prepares the key for
    this one message. *)

(** {2 Prepared keys}

    A key used for many tags (a session's MAC key) is prepared once:
    the inner and outer pad blocks are hashed at {!prepare}, so a tag
    costs two compressions fewer than {!hmac} and allocates only its
    result.  A tag is [start], any number of [absorb]s (the message is
    their concatenation, taken in place from caller buffers), then
    [finish].  A prepared key holds one running tag: do not interleave
    two tag computations on it. *)

type prepared

val prepare : bytes -> prepared
val start : prepared -> unit

val absorb : prepared -> bytes -> off:int -> len:int -> unit
(** @raise Invalid_argument on an out-of-bounds slice. *)

val finish : prepared -> bytes
(** The 32-byte tag over everything absorbed since {!start}: equal to
    {!hmac} with the same key over the concatenated message. *)

val finish_into : prepared -> bytes -> unit
(** {!finish} written into the first 32 bytes of a caller buffer, with
    no allocation.  @raise Invalid_argument if it is shorter. *)

val hmac_string : key:bytes -> string -> bytes
val verify : key:bytes -> bytes -> tag:bytes -> bool

val hkdf_extract : ?salt:bytes -> ikm:bytes -> unit -> bytes
val hkdf_expand : prk:bytes -> info:string -> len:int -> bytes

val derive : key:bytes -> info:string -> bytes
(** [derive ~key ~info] is a 32-byte subkey: extract-then-expand with
    [info] as the context label. *)
