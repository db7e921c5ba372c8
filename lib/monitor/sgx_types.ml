open Hyperenclave_crypto

type operation_mode = GU | HU | P

let mode_name = function
  | GU -> "GU-Enclave"
  | HU -> "HU-Enclave"
  | P -> "P-Enclave"

let all_modes = [ GU; HU; P ]

type page_type = Pt_secs | Pt_tcs | Pt_reg | Pt_ssa

let page_type_name = function
  | Pt_secs -> "SECS"
  | Pt_tcs -> "TCS"
  | Pt_reg -> "REG"
  | Pt_ssa -> "SSA"

type attributes = { debug : bool; mode : operation_mode; xfrm : int }

type secs = {
  base_va : int;
  size : int;
  attributes : attributes;
  ssa_frame_pages : int;
}

type tcs = {
  tcs_vpn : int;
  entry_va : int;
  nssa : int;
  ssa_base_vpn : int;
  mutable busy : bool;
  mutable current_ssa : int;
}

type sigstruct = {
  enclave_hash : bytes;
  vendor_public : Signature.public_key;
  signature : bytes;
  isv_prod_id : int;
  isv_svn : int;
}

let sigstruct_body ~enclave_hash ~isv_prod_id ~isv_svn =
  let buf = Buffer.create 64 in
  Buffer.add_string buf "sigstruct:";
  Buffer.add_bytes buf enclave_hash;
  Buffer.add_string buf (Printf.sprintf "%d:%d" isv_prod_id isv_svn);
  Buffer.to_bytes buf

let make_sigstruct ~vendor ~enclave_hash ~isv_prod_id ~isv_svn =
  let body = sigstruct_body ~enclave_hash ~isv_prod_id ~isv_svn in
  {
    enclave_hash;
    vendor_public = Signature.public_of_private vendor;
    signature = Signature.sign vendor body;
    isv_prod_id;
    isv_svn;
  }

let sigstruct_valid s =
  Signature.verify s.vendor_public
    (sigstruct_body ~enclave_hash:s.enclave_hash ~isv_prod_id:s.isv_prod_id
       ~isv_svn:s.isv_svn)
    ~signature:s.signature

let mrsigner_of s = Sha256.digest_bytes s.vendor_public

type report = {
  mrenclave : bytes;
  mrsigner : bytes;
  attributes : attributes;
  isv_prod_id : int;
  isv_svn : int;
  report_data : bytes;
  key_id : bytes;
  mac : bytes;
}

let report_body r =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "report:";
  Buffer.add_bytes buf r.mrenclave;
  Buffer.add_bytes buf r.mrsigner;
  Buffer.add_string buf
    (Printf.sprintf "%b:%s:%d:%d:%d" r.attributes.debug
       (mode_name r.attributes.mode)
       r.attributes.xfrm r.isv_prod_id r.isv_svn);
  Buffer.add_bytes buf r.report_data;
  Buffer.add_bytes buf r.key_id;
  Buffer.to_bytes buf

type key_name = Seal_key_mrenclave | Seal_key_mrsigner | Report_key

let key_name_label = function
  | Seal_key_mrenclave -> "seal-mrenclave"
  | Seal_key_mrsigner -> "seal-mrsigner"
  | Report_key -> "report"

type exception_vector = Ud | Pf of { va : int; write : bool } | Gp | De

let vector_name = function
  | Ud -> "#UD"
  | Pf _ -> "#PF"
  | Gp -> "#GP"
  | De -> "#DE"
