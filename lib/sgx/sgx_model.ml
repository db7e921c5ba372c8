open Hyperenclave_hw
open Hyperenclave_crypto
open Hyperenclave_monitor

exception Sgx_error of string
exception Unsupported of string

let fail fmt = Printf.ksprintf (fun m -> raise (Sgx_error m)) fmt

type platform = {
  clock : Cycles.t;
  cost : Cost_model.t;
  rng : Rng.t;
  epc_pages : int;
  resident : (int * int, unit) Hashtbl.t; (* (enclave, vpn) in EPC *)
  fifo : (int * int) Queue.t; (* eviction order *)
  unmapped : (int * int, unit) Hashtbl.t; (* OS-cleared present bits *)
  sealing_root : bytes;
  mutable fault_trace : int list;
  mutable swaps : int;
  mutable next_id : int;
}

let create_platform ~clock ~cost ~rng ~epc_bytes =
  {
    clock;
    cost;
    rng;
    epc_pages = epc_bytes / Addr.page_size;
    resident = Hashtbl.create 4096;
    fifo = Queue.create ();
    unmapped = Hashtbl.create 64;
    sealing_root = Rng.bytes rng 32;
    fault_trace = [];
    swaps = 0;
    next_id = 1;
  }

type enclave = {
  platform : platform;
  id : int;
  mrenclave : bytes;
  mrsigner : bytes;
  ecalls : (int, handler) Hashtbl.t;
  ocalls : (int, bytes -> bytes) Hashtbl.t;
  handlers : (string, Sgx_types.exception_vector -> bool) Hashtbl.t;
  mutable entered : bool;
}

and handler = enclave -> bytes -> bytes

let create_enclave platform ~code_seed ~signer ~ecalls ~ocalls =
  let id = platform.next_id in
  platform.next_id <- id + 1;
  let mrenclave = Sha256.digest_string ("sgx-enclave:" ^ code_seed) in
  let enclave =
    {
      platform;
      id;
      mrenclave;
      mrsigner = Sha256.digest_bytes (Signature.public_of_private signer);
      ecalls = Hashtbl.create 16;
      ocalls = Hashtbl.create 16;
      handlers = Hashtbl.create 4;
      entered = false;
    }
  in
  List.iter (fun (i, h) -> Hashtbl.replace enclave.ecalls i h) ecalls;
  List.iter (fun (i, h) -> Hashtbl.replace enclave.ocalls i h) ocalls;
  enclave

let mrenclave e = e.mrenclave
let platform_of e = e.platform
let clock p = p.clock
let tick e n = Cycles.tick e.platform.clock n
let compute e n = tick e n

let ecall e ~id ?(data = Bytes.empty) () =
  if e.entered then fail "ecall: already inside the enclave";
  let handler =
    match Hashtbl.find_opt e.ecalls id with
    | Some h -> h
    | None -> fail "unknown ECALL %d" id
  in
  tick e e.platform.cost.sgx_ecall;
  (* Trusted edge code copies the payload across the boundary. *)
  tick e (Cost_model.copy_cost e.platform.cost (Bytes.length data));
  e.entered <- true;
  let result =
    match handler e data with
    | result -> result
    | exception exn ->
        e.entered <- false;
        raise exn
  in
  e.entered <- false;
  tick e (Cost_model.copy_cost e.platform.cost (Bytes.length result));
  result

let ocall e ~id ?(data = Bytes.empty) () =
  if not e.entered then fail "ocall: not inside the enclave";
  let handler =
    match Hashtbl.find_opt e.ocalls id with
    | Some h -> h
    | None -> fail "unknown OCALL %d" id
  in
  tick e e.platform.cost.sgx_ocall;
  tick e (Cost_model.copy_cost e.platform.cost (Bytes.length data));
  e.entered <- false;
  let reply = handler data in
  e.entered <- true;
  tick e (Cost_model.copy_cost e.platform.cost (Bytes.length reply));
  reply

(* --- EPC paging ------------------------------------------------------------ *)

let record_fault p vpn = p.fault_trace <- vpn :: p.fault_trace

let touch_page e ~vpn =
  let p = e.platform in
  let key = (e.id, vpn) in
  if Hashtbl.mem p.unmapped key then begin
    (* Controlled-channel probe: the OS sees this fault and re-maps. *)
    record_fault p vpn;
    Hashtbl.remove p.unmapped key;
    tick e p.cost.os_page_fault;
    tick e p.cost.sgx_aex;
    tick e p.cost.sgx_eresume
  end;
  if not (Hashtbl.mem p.resident key) then begin
    if Hashtbl.length p.resident >= p.epc_pages then begin
      (* EWB the coldest page, ELDU ours: both through the kernel. *)
      (match Queue.take_opt p.fifo with
      | Some victim -> Hashtbl.remove p.resident victim
      | None -> ());
      p.swaps <- p.swaps + 1;
      record_fault p vpn;
      tick e (2 * p.cost.epc_swap_page)
    end;
    Hashtbl.replace p.resident key ();
    Queue.add key p.fifo
  end

(* --- exceptions ------------------------------------------------------------ *)

let register_exception_handler e ~vector h = Hashtbl.replace e.handlers vector h

let raise_exception e vector =
  if not e.entered then fail "raise_exception: not inside the enclave";
  let p = e.platform in
  let name = Sgx_types.vector_name vector in
  match Hashtbl.find_opt e.handlers name with
  | None -> fail "unhandled %s in SGX enclave %d" name e.id
  | Some handler ->
      (* AEX, kernel signal, internal-handler ECALL, ERESUME: the
         two-phase flow SGX cannot shortcut (Table 2). *)
      tick e p.cost.sgx_aex;
      tick e p.cost.os_signal_delivery;
      tick e p.cost.sgx_ecall;
      if not (handler vector) then fail "in-enclave handler refused %s" name;
      tick e p.cost.sgx_eresume

let interrupt e =
  if not e.entered then fail "interrupt: not inside the enclave";
  let p = e.platform in
  tick e p.cost.sgx_aex;
  tick e (1_800 + p.cost.os_ctxsw);
  tick e p.cost.sgx_eresume

let emodpr _e ~vpn:_ =
  raise
    (Unsupported
       "SGX1 does not support changing page permissions after EINIT (EDMM)")

(* --- keys ------------------------------------------------------------------ *)

let getkey e name =
  let identity =
    match name with
    | Sgx_types.Seal_key_mrenclave -> e.mrenclave
    | Sgx_types.Seal_key_mrsigner -> e.mrsigner
    | Sgx_types.Report_key -> Bytes.empty
  in
  Hmac.derive ~key:e.platform.sealing_root
    ~info:(Sgx_types.key_name_label name ^ ":" ^ Sha256.to_hex identity)

let seal e ?aad data =
  let key = getkey e Sgx_types.Seal_key_mrenclave in
  let nonce = Rng.bytes e.platform.rng 12 in
  Authenc.encode (Authenc.seal ~key ?aad ~nonce data)

let unseal e blob =
  let key = getkey e Sgx_types.Seal_key_mrenclave in
  match Authenc.decode blob with
  | Ok sealed -> Authenc.unseal ~key sealed
  | Error _ -> raise Authenc.Authentication_failure

(* --- the OS's controlled channel ------------------------------------------ *)

let os_unmap_page e ~vpn = Hashtbl.replace e.platform.unmapped (e.id, vpn) ()
let fault_trace p = p.fault_trace
let resident_pages p = Hashtbl.length p.resident
let swap_count p = p.swaps
