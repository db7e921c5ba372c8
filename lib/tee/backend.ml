open Hyperenclave_hw
open Hyperenclave_monitor
open Hyperenclave_sdk
module Sgx_model = Hyperenclave_sgx.Sgx_model

type env = {
  clock : Cycles.t;
  compute : int -> unit;
  mem : Mem_sim.t;
  ocall : id:int -> ?data:bytes -> unit -> bytes;
  ocall_ring : reqs:(int * bytes) list -> unit -> bytes list;
      (** Batched OCALLs through the backend's reply ring where it has
          one (HyperEnclave's OBATCH path); ring-less backends dispatch
          sequentially — the baseline the amortization is measured
          against. *)
  interrupt : unit -> unit;
  heap_write : off:int -> bytes -> unit;
  heap_read : off:int -> len:int -> bytes;
  backend_name : string;
}

type handler = env -> bytes -> bytes

type kind = Native | Hyperenclave of Sgx_types.operation_mode | Sgx

let kind_name = function
  | Native -> "native"
  | Hyperenclave mode -> Sgx_types.mode_name mode
  | Sgx -> "Intel SGX"

type t = {
  name : string;
  kind : kind;
  clock : Cycles.t;
  mem : Mem_sim.t;
  call : id:int -> ?data:bytes -> direction:Edge.direction -> unit -> bytes;
  call_batch : reqs:(int * bytes) list -> unit -> bytes list;
      (** Serve several ECALLs under one boundary crossing where the
          backend supports it (the HyperEnclave call ring); backends
          without a ring dispatch sequentially. *)
  urts : Urts.t option;
      (** The SDK handle behind a HyperEnclave backend ([None] for native
          and the SGX model): what a scheduler submits jobs against. *)
  identity : bytes option;
      (** MRENCLAVE where the backend has one ([None] for native). *)
  destroy : unit -> unit;
}

(* Backends without a demand-paged enclave heap (native, the SGX model)
   still expose [heap_write]/[heap_read] so heap-walking workloads run
   unmodified everywhere; a growable scratch buffer stands in for it. *)
let scratch_heap () =
  let buf = ref (Bytes.create 4096) in
  let ensure n =
    if Bytes.length !buf < n then begin
      let grown = Bytes.make (max n (2 * Bytes.length !buf)) '\000' in
      Bytes.blit !buf 0 grown 0 (Bytes.length !buf);
      buf := grown
    end
  in
  let write ~off data =
    if off < 0 then invalid_arg "heap_write: negative offset";
    ensure (off + Bytes.length data);
    Bytes.blit data 0 !buf off (Bytes.length data)
  in
  let read ~off ~len =
    if off < 0 || len < 0 then invalid_arg "heap_read: negative range";
    ensure (off + len);
    Bytes.sub !buf off len
  in
  (write, read)

let native ~clock ~cost ~rng ~handlers ~ocalls =
  let mem =
    Mem_sim.create ~clock ~cost ~rng:(Rng.split rng) ~engine:Mem_crypto.Plain ()
  in
  let ocall_tbl = Hashtbl.create 16 in
  List.iter (fun (id, h) -> Hashtbl.replace ocall_tbl id h) ocalls;
  let heap = scratch_heap () in
  let env =
    {
      clock;
      compute = (fun n -> Cycles.tick clock n);
      mem;
      ocall =
        (fun ~id ?(data = Bytes.empty) () ->
          match Hashtbl.find_opt ocall_tbl id with
          | Some h -> h data
          | None -> invalid_arg (Printf.sprintf "native: unknown OCALL %d" id));
      ocall_ring =
        (fun ~reqs () ->
          List.map
            (fun (id, data) ->
              match Hashtbl.find_opt ocall_tbl id with
              | Some h -> h data
              | None ->
                  invalid_arg (Printf.sprintf "native: unknown OCALL %d" id))
            reqs);
      (* Native code takes timer interrupts too: handler plus scheduler
         work, without any enclave exit on top. *)
      interrupt = (fun () -> Cycles.tick clock (1_800 + cost.Cost_model.os_ctxsw));
      heap_write = (let w, _ = heap in w);
      heap_read = (let _, r = heap in r);
      backend_name = "native";
    }
  in
  let ecall_tbl = Hashtbl.create 16 in
  List.iter (fun (id, h) -> Hashtbl.replace ecall_tbl id h) handlers;
  {
    name = "native";
    kind = Native;
    clock;
    mem;
    call =
      (fun ~id ?(data = Bytes.empty) ~direction:_ () ->
        match Hashtbl.find_opt ecall_tbl id with
        | Some h -> h env data
        | None -> invalid_arg (Printf.sprintf "native: unknown ECALL %d" id));
    call_batch =
      (fun ~reqs () ->
        List.map
          (fun (id, data) ->
            match Hashtbl.find_opt ecall_tbl id with
            | Some h -> h env data
            | None -> invalid_arg (Printf.sprintf "native: unknown ECALL %d" id))
          reqs);
    urts = None;
    identity = None;
    destroy = (fun () -> ());
  }

let hyperenclave (platform : Platform.t) ~mode ?(tweak = fun c -> c) ~handlers
    ~ocalls () =
  let translation =
    match mode with
    | Sgx_types.HU -> Mem_sim.One_level
    | Sgx_types.GU | Sgx_types.P -> Mem_sim.Nested
  in
  let mem =
    Mem_sim.create ~clock:platform.Platform.clock ~cost:platform.Platform.cost
      ~rng:(Rng.split platform.Platform.rng)
      ~engine:Mem_crypto.Sme ~translation ()
  in
  let env_of_tenv (tenv : Tenv.t) =
    {
      clock = tenv.Tenv.clock;
      compute = tenv.Tenv.compute;
      mem;
      ocall =
        (fun ~id ?data () ->
          (* EEXIT/EENTER around the OCALL flush the enclave's TLB. *)
          let reply = tenv.Tenv.ocall ~id ?data Edge.In_out in
          Mem_sim.tlb_flush mem;
          reply);
      ocall_ring =
        (fun ~reqs () ->
          (* One EEXIT/ORET pair for the whole ring — and one TLB flush,
             where the sequential path pays one per OCALL. *)
          let replies = tenv.Tenv.ocall_ring ~reqs () in
          Mem_sim.tlb_flush mem;
          replies);
      interrupt = tenv.Tenv.interrupt_now;
      (* Real demand-paged enclave heap: touching a wide offset range
         commits EPC frames and, on small platforms, forces EWB/ELDU —
         which is how the chaos suite creates EPC pressure through the
         backend-neutral interface. *)
      heap_write =
        (fun ~off data -> tenv.Tenv.write ~va:(tenv.Tenv.heap_base + off) data);
      heap_read =
        (fun ~off ~len -> tenv.Tenv.read ~va:(tenv.Tenv.heap_base + off) ~len);
      backend_name = Sgx_types.mode_name mode;
    }
  in
  (* The SDK hands every entry the one trusted environment it keeps per
     enclave, so the workload view over it is built at the first entry. *)
  let env = ref None in
  let env_of tenv =
    match !env with
    | Some e -> e
    | None ->
        let e = env_of_tenv tenv in
        env := Some e;
        e
  in
  let ecalls =
    List.map (fun (id, h) -> (id, fun tenv input -> h (env_of tenv) input)) handlers
  in
  let config = tweak (Urts.default_config mode) in
  let urts =
    Urts.create ~kmod:platform.Platform.kmod ~proc:platform.Platform.proc
      ~rng:platform.Platform.rng ~signer:platform.Platform.signer ~config
      ~ecalls ~ocalls
  in
  {
    name = Sgx_types.mode_name mode;
    kind = Hyperenclave mode;
    clock = platform.Platform.clock;
    mem;
    call =
      (fun ~id ?(data = Bytes.empty) ~direction () ->
        Mem_sim.tlb_flush mem;
        Urts.ecall urts ~id ~data ~direction ());
    call_batch =
      (fun ~reqs () ->
        (* One crossing, one TLB flush — K requests through the ring. *)
        Mem_sim.tlb_flush mem;
        Urts.ecall_batch urts ~reqs ());
    urts = Some urts;
    identity = Some (Urts.mrenclave urts);
    destroy = (fun () -> Urts.destroy urts);
  }

let sgx ~clock ~cost ~rng ?(epc_bytes = Platform.sgx_epc_bytes)
    ?(code_seed = "tee-backend-sgx") ~handlers ~ocalls () =
  let mem =
    Mem_sim.create ~clock ~cost ~rng:(Rng.split rng)
      ~engine:(Mem_crypto.Mee { epc_bytes })
      ()
  in
  let sgx_platform =
    Sgx_model.create_platform ~clock ~cost ~rng:(Rng.split rng) ~epc_bytes
  in
  let heap = scratch_heap () in
  let env_of_enclave enclave =
    {
      clock;
      compute = (fun n -> Sgx_model.compute enclave n);
      mem;
      ocall =
        (fun ~id ?data () ->
          let reply = Sgx_model.ocall enclave ~id ?data () in
          Mem_sim.tlb_flush mem;
          reply);
      ocall_ring =
        (fun ~reqs () ->
          (* No reply ring in the SGX model: each OCALL pays its own
             world switch and TLB flush. *)
          List.map
            (fun (id, data) ->
              let reply = Sgx_model.ocall enclave ~id ~data () in
              Mem_sim.tlb_flush mem;
              reply)
            reqs);
      interrupt = (fun () -> Sgx_model.interrupt enclave);
      heap_write = (let w, _ = heap in w);
      heap_read = (let _, r = heap in r);
      backend_name = "Intel SGX";
    }
  in
  let ecalls =
    List.map
      (fun (id, h) -> (id, fun enclave input -> h (env_of_enclave enclave) input))
      handlers
  in
  let signer, _ = Hyperenclave_crypto.Signature.generate rng in
  let enclave =
    Sgx_model.create_enclave sgx_platform ~code_seed ~signer ~ecalls ~ocalls
  in
  {
    name = "Intel SGX";
    kind = Sgx;
    clock;
    mem;
    call =
      (fun ~id ?(data = Bytes.empty) ~direction:_ () ->
        Mem_sim.tlb_flush mem;
        Sgx_model.ecall enclave ~id ~data ());
    call_batch =
      (fun ~reqs () ->
        (* The SGX model has no call ring: every request pays its own
           world switch, which is exactly the baseline the batched path
           is measured against. *)
        List.map
          (fun (id, data) ->
            Mem_sim.tlb_flush mem;
            Sgx_model.ecall enclave ~id ~data ())
          reqs);
    urts = None;
    identity = Some (Sgx_model.mrenclave enclave);
    destroy = (fun () -> ());
  }

(* -------------------------------------------------------------------- *)
(* Unified construction (API v2)                                        *)

type config = {
  kind : kind;
  ms_bytes : int option;
  epc_frames : int option;
  fault_plan : Hyperenclave_fault.Fault.plan option;
  code_seed : string option;
  tweak : (Urts.config -> Urts.config) option;
  handlers : (int * handler) list;
  ocalls : (int * (bytes -> bytes)) list;
}

let config kind =
  {
    kind;
    ms_bytes = None;
    epc_frames = None;
    fault_plan = None;
    code_seed = None;
    tweak = None;
    handlers = [];
    ocalls = [];
  }

let create (platform : Platform.t) (c : config) =
  let reject_field field =
    invalid_arg
      (Printf.sprintf "Backend.create: %s is meaningless for the %s backend"
         field (kind_name c.kind))
  in
  (match (c.kind, c.ms_bytes) with
  | (Native | Sgx), Some _ -> reject_field "ms_bytes"
  | _ -> ());
  (match (c.kind, c.epc_frames) with
  | (Native | Hyperenclave _), Some _ -> reject_field "epc_frames"
  | _ -> ());
  (match (c.kind, c.tweak) with
  | (Native | Sgx), Some _ -> reject_field "tweak"
  | _ -> ());
  (match (c.kind, c.code_seed) with
  | Native, Some _ -> reject_field "code_seed"
  | _ -> ());
  (* Arm the plan before building so build-time injection sites (EPC
     allocation, ioctls, TPM commands) are already live. *)
  (match c.fault_plan with
  | Some plan ->
      Hyperenclave_fault.Fault.install
        ~telemetry:(Monitor.telemetry platform.Platform.monitor)
        plan
  | None -> ());
  match c.kind with
  | Native ->
      native ~clock:platform.Platform.clock ~cost:platform.Platform.cost
        ~rng:platform.Platform.rng ~handlers:c.handlers ~ocalls:c.ocalls
  | Hyperenclave mode ->
      let tweak urts_config =
        let urts_config =
          match c.ms_bytes with
          | Some ms_bytes -> { urts_config with Urts.ms_bytes }
          | None -> urts_config
        in
        let urts_config =
          match c.code_seed with
          | Some code_seed -> { urts_config with Urts.code_seed }
          | None -> urts_config
        in
        match c.tweak with Some f -> f urts_config | None -> urts_config
      in
      hyperenclave platform ~mode ~tweak ~handlers:c.handlers ~ocalls:c.ocalls
        ()
  | Sgx ->
      sgx ~clock:platform.Platform.clock ~cost:platform.Platform.cost
        ~rng:platform.Platform.rng
        ?epc_bytes:
          (Option.map (fun frames -> frames * Hyperenclave_hw.Addr.page_size)
             c.epc_frames)
        ?code_seed:c.code_seed ~handlers:c.handlers ~ocalls:c.ocalls ()

(* -------------------------------------------------------------------- *)
(* Trichotomy oracle                                                    *)

type outcome =
  | Success of bytes
  | Typed_error of string
  | Violation of string

let outcome_name = function
  | Success _ -> "success"
  | Typed_error _ -> "typed-error"
  | Violation _ -> "violation"

(* The only acceptable endings of a call under fault injection.  A clean
   reply, a typed refusal the application can act on, or the monitor
   detecting tampering — anything else (an unexpected exception, silent
   corruption checked by the caller against the reply) is a bug in the
   fault handling, not in the workload.

   The audit of what each backend's edge can raise for malformed or
   unlucky inputs: the SDK's [Enclave_error] (unknown id, ring overflow,
   oversized payloads, TCS exhaustion), [Fault.Injected] (exhausted
   retries or a permanent plan entry), [Invalid_argument] (the native
   dispatch tables and argument validation), the SGX model's [Sgx_error]
   (its own typed refusals) and [Unsupported] (SGX1 restrictions such as
   EDMM), and the monitor's deliberate [Security_violation].  All of the
   first five are typed refusals; nothing else may cross the API. *)
let classify ~on_typed ~on_violation f ~on_success =
  match f () with
  | v -> on_success v
  | exception Monitor.Security_violation msg -> on_violation msg
  | exception Hyperenclave_fault.Fault.Injected { site; kind } ->
      on_typed
        (Printf.sprintf "injected %s fault at %s"
           (Hyperenclave_fault.Fault.kind_name kind)
           site)
  | exception Urts.Enclave_error msg -> on_typed ("enclave: " ^ msg)
  | exception Invalid_argument msg -> on_typed ("invalid-argument: " ^ msg)
  | exception Sgx_model.Sgx_error msg -> on_typed ("sgx: " ^ msg)
  | exception Sgx_model.Unsupported msg -> on_typed ("unsupported: " ^ msg)

let protected_call t ~id ?(data = Bytes.empty) ~direction () =
  classify
    (fun () -> t.call ~id ~data ~direction ())
    ~on_success:(fun reply -> Success reply)
    ~on_typed:(fun msg -> Typed_error msg)
    ~on_violation:(fun msg -> Violation msg)

let protected_batch t ~reqs () =
  classify
    (fun () -> t.call_batch ~reqs ())
    ~on_success:(List.map (fun reply -> Success reply))
    ~on_typed:(fun msg -> List.map (fun _ -> Typed_error msg) reqs)
    ~on_violation:(fun msg -> List.map (fun _ -> Violation msg) reqs)
