(** SGX-compatible data structures (Sec. 3.4).

    "To be compatible with the official Intel SGX SDK, most data structures
    involved in HyperEnclave (such as the SIGSTRUCT structure, the SECS
    page, and the TCS page) are similar to that of SGX."  These are the
    shared vocabulary between the monitor (which emulates the privileged
    SGX instructions) and the SDK (which emulates the user leaf
    functions). *)

(** Enclave operation mode (Sec. 4): the paper's headline flexibility. *)
type operation_mode =
  | GU  (** guest user: guest ring-3 under nested paging *)
  | HU  (** host user: host ring-3, 1-level paging, syscall transitions *)
  | P  (** privileged: guest ring-0, owns IDT and level-1 page table *)

val mode_name : operation_mode -> string
val all_modes : operation_mode list

(** EPCM-style page types. *)
type page_type = Pt_secs | Pt_tcs | Pt_reg | Pt_ssa

val page_type_name : page_type -> string

type attributes = {
  debug : bool;
  mode : operation_mode;
  xfrm : int;  (** XSAVE feature mask; opaque, measured *)
}

(** SECS: per-enclave control structure. *)
type secs = {
  base_va : int;  (** ELRANGE base (page aligned) *)
  size : int;  (** ELRANGE size in bytes (page multiple) *)
  attributes : attributes;
  ssa_frame_pages : int;  (** SSA pages per frame (>1 enables nested
                              exception handling, Sec. 3.4) *)
}

(** TCS: one per enclave thread. *)
type tcs = {
  tcs_vpn : int;
  entry_va : int;  (** enclave entry point for this thread *)
  nssa : int;  (** number of SSA frames *)
  ssa_base_vpn : int;  (** first SSA page (OSSA); AEX state spills here *)
  mutable busy : bool;  (** an enclave thread is bound to one TCS at a time *)
  mutable current_ssa : int;  (** SSA index; bumped on AEX *)
}

(** SIGSTRUCT: the vendor's signature over the enclave measurement. *)
type sigstruct = {
  enclave_hash : bytes;  (** expected MRENCLAVE *)
  vendor_public : Hyperenclave_crypto.Signature.public_key;
  signature : bytes;
  isv_prod_id : int;
  isv_svn : int;
}

val make_sigstruct :
  vendor:Hyperenclave_crypto.Signature.private_key ->
  enclave_hash:bytes ->
  isv_prod_id:int ->
  isv_svn:int ->
  sigstruct

val sigstruct_valid : sigstruct -> bool
val mrsigner_of : sigstruct -> bytes
(** SHA-256 of the vendor public key, as in SGX. *)

(** EREPORT output: locally-verifiable attestation structure. *)
type report = {
  mrenclave : bytes;
  mrsigner : bytes;
  attributes : attributes;
  isv_prod_id : int;
  isv_svn : int;
  report_data : bytes;  (** 64 user bytes *)
  key_id : bytes;
  mac : bytes;  (** under the platform report key *)
}

val report_body : report -> bytes
(** Serialization covered by the MAC / the quote signature. *)

(** EGETKEY key requests. *)
type key_name = Seal_key_mrenclave | Seal_key_mrsigner | Report_key

val key_name_label : key_name -> string

(** Hardware exception vectors the reproduction exercises. *)
type exception_vector = Ud | Pf of { va : int; write : bool } | Gp | De

val vector_name : exception_vector -> string
