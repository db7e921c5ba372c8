open Hyperenclave_hw
open Hyperenclave_crypto
open Hyperenclave_monitor
open Hyperenclave_os

type config = {
  mode : Sgx_types.operation_mode;
  debug : bool;
  elrange_pages : int;
  code_pages : int;
  data_pages : int;
  tcs_count : int;
  nssa : int;
  ms_bytes : int;
  code_seed : string;
  isv_prod_id : int;
  isv_svn : int;
}

let default_config mode =
  {
    mode;
    debug = false;
    elrange_pages = 4096; (* 16 MiB of enclave virtual range *)
    code_pages = 8;
    data_pages = 8;
    tcs_count = 2;
    nssa = 2;
    ms_bytes = 256 * 1024;
    code_seed = "hyperenclave-default-app";
    isv_prod_id = 1;
    isv_svn = 1;
  }

exception Enclave_error of string

let fail fmt = Printf.ksprintf (fun m -> raise (Enclave_error m)) fmt
let elbase = 0x1_0000_0000
let aep = 0x40_1000

(* AEX preemption timer, armed by the scheduler for the duration of a
   slice: once the shared clock passes [deadline] mid-ECALL, the next
   compute step AEXes out (SSA spill), lets the OS run, and ERESUMEs. *)
type timer = {
  quantum : int;
  mutable deadline : int;
  on_preempt : (unit -> unit) option;
}

type t = {
  kmod : Kmod.t;
  proc : Process.t;
  rng : Rng.t;
  enclave : Enclave.t;
  config : config;
  ms_base : int;
  ms_size : int;
  ms_out_region : int;  (** page-aligned start of the ECALL-output region *)
  ms_ocall_region : int;  (** page-aligned start of the ocalloc arena *)
  ecalls : (int, Tenv.handler) Hashtbl.t;
  ocalls : (int, bytes -> bytes) Hashtbl.t;
  heap_base_va : int;
  mutable heap_cursor : int;
  mutable ocalloc_cursor : int;
  mutable active_tcs : Sgx_types.tcs option;
  reserved_tcs : (int, unit) Hashtbl.t;
      (** TCSs parked on an in-flight OCALL, keyed by [tcs_vpn]: not busy
          monitor-side (the thread EEXITed) but owed an ORET re-entry, so
          no other entry may take them. *)
  mutable timer : timer option;
  mutable tenv : Tenv.t option;  (** built at the first entry, then reused *)
}

let monitor t = Kmod.monitor t.kmod
let kernel t = Kmod.kernel t.kmod
let clock t = Kernel.clock (kernel t)
let cost t = Kernel.cost (kernel t)

let count t name =
  Hyperenclave_obs.Telemetry.incr (Monitor.telemetry (monitor t)) name

module Fault = Hyperenclave_fault.Fault

let backoff t attempt =
  Cycles.tick (clock t) (World_switch.retry_backoff_cost (cost t) ~attempt)

(* Marshalling-buffer regions: [0, 1/2) ECALL inputs, [1/2, 3/4) ECALL
   outputs, [3/4, 1) OCALL allocations (sgx_ocalloc arena).  The splits
   are fixed at build time, rounded UP to page boundaries — computing
   them per call with truncating division let odd sizes overlap the
   output region with the ocalloc arena's boundary check. *)
let ms_out_off t = t.ms_out_region
let ms_ocall_off t = t.ms_ocall_region

(* Raw app-side access to the pinned marshalling buffer through the
   process mapping; cycle cost is charged explicitly by the Edge rates. *)
let ms_raw rw t ~off data_or_len =
  (* Fault site before the copy touches the buffer: a fault here is a
     transfer that never started, so re-running the edge call re-stages
     the same bytes. *)
  Fault.point
    (match rw with `Write -> Edge.fault_site_in | `Read -> Edge.fault_site_out);
  let mem = Kernel.mem (kernel t) in
  let run ~va ~len ~f =
    let pos = ref 0 in
    while !pos < len do
      let a = va + !pos in
      let chunk = min (len - !pos) (Addr.page_size - Addr.offset a) in
      let frame =
        match Kernel.resolve_frame (kernel t) t.proc ~vpn:(Addr.page_of a) with
        | Some frame -> frame
        | None -> fail "marshalling page 0x%x not resident" (Addr.page_of a)
      in
      f (Addr.base_of_page frame lor Addr.offset a) !pos chunk;
      pos := !pos + chunk
    done
  in
  match (rw, data_or_len) with
  | `Write, `Data data ->
      run ~va:(t.ms_base + off) ~len:(Bytes.length data) ~f:(fun pa pos chunk ->
          Phys_mem.write_bytes mem pa (Bytes.sub data pos chunk));
      Bytes.empty
  | `Read, `Len len ->
      let out = Bytes.create len in
      run ~va:(t.ms_base + off) ~len ~f:(fun pa pos chunk ->
          Bytes.blit (Phys_mem.read_bytes mem pa chunk) 0 out pos chunk);
      out
  | `Write, `Len _ | `Read, `Data _ -> assert false

let ms_raw_write t ~off data = ignore (ms_raw `Write t ~off (`Data data))
let ms_raw_read t ~off ~len = ms_raw `Read t ~off (`Len len)

(* Slice variants over caller-owned buffers: the same per-page walk as
   [ms_raw], but the bytes land in (or come from) a reusable image — the
   arena rings recycle theirs across flushes, so the steady-state flush
   path moves payloads without allocating.  [ms_slice_nofault] is the
   bare walk; the [ms_raw_*] wrappers add the edge fault site the
   marshalling copies fire. *)
let ms_slice_nofault rw t ~off buf ~pos ~len =
  let mem = Kernel.mem (kernel t) in
  let va = t.ms_base + off in
  let p = ref 0 in
  while !p < len do
    let a = va + !p in
    let chunk = min (len - !p) (Addr.page_size - Addr.offset a) in
    let frame =
      match Kernel.resolve_frame (kernel t) t.proc ~vpn:(Addr.page_of a) with
      | Some frame -> frame
      | None -> fail "marshalling page 0x%x not resident" (Addr.page_of a)
    in
    let pa = Addr.base_of_page frame lor Addr.offset a in
    (match rw with
    | `Write -> Phys_mem.write_sub mem pa buf ~pos:(pos + !p) ~len:chunk
    | `Read -> Phys_mem.read_into mem pa buf ~pos:(pos + !p) ~len:chunk);
    p := !p + chunk
  done

let ms_raw_write_slice t ~off buf ~pos ~len =
  Fault.point Edge.fault_site_in;
  ms_slice_nofault `Write t ~off buf ~pos ~len

let ms_raw_read_into t ~off buf ~pos ~len =
  Fault.point Edge.fault_site_out;
  ms_slice_nofault `Read t ~off buf ~pos ~len

(* --- switchless ring framing ------------------------------------------------ *)

(* Ring slot framing in the marshalling buffer.  Requests are staged
   back-to-back as [count][id, len, payload]*; replies reuse the same
   layout, echoing each request id.  Everything is length-prefixed with
   8-byte little-endian words so the reader can validate bounds before
   touching a slot.  The ECALL ring stages in the input region and
   drains from the output region; the OCALL reply ring lives in the
   ocalloc arena. *)
let max_batch = 16

(* The frame is assembled with one exact-size allocation and one blit
   per slot — the payload travels straight from the caller's buffer into
   the frame that lands in the pinned region. *)
let frame_requests reqs =
  let total =
    List.fold_left (fun acc (_, d) -> acc + 16 + Bytes.length d) 8 reqs
  in
  let out = Bytes.create total in
  Bytes.set_int64_le out 0 (Int64.of_int (List.length reqs));
  let off = ref 8 in
  List.iter
    (fun (id, data) ->
      let len = Bytes.length data in
      Bytes.set_int64_le out !off (Int64.of_int id);
      Bytes.set_int64_le out (!off + 8) (Int64.of_int len);
      Bytes.blit data 0 out (!off + 16) len;
      off := !off + 16 + len)
    reqs;
  out

let frame_replies = frame_requests

let parse_frames ~what raw =
  let slots =
    Codec.decode what (fun r ->
        List.init (Codec.len64_le ~max:max_batch r "ring frame count")
          (fun _ ->
            let id = Codec.int64_le r "slot id" in
            (id, Codec.framed64 r "slot")))
  in
  match slots raw with Ok slots -> slots | Error m -> fail "%s" m

(* --- loader ---------------------------------------------------------------- *)

let code_page_content config index =
  (* Deterministic "text section" derived from the code identity; the
     ecall table participates through the seed the caller chooses. *)
  let block = Sha256.digest_string (Printf.sprintf "%s:code:%d" config.code_seed index) in
  let page = Bytes.create Addr.page_size in
  for i = 0 to (Addr.page_size / 32) - 1 do
    Bytes.blit block 0 page (i * 32) 32
  done;
  page

let layout config =
  (* Page indices within ELRANGE. *)
  let code_first = 0 in
  let data_first = code_first + config.code_pages in
  let tcs_first = data_first + config.data_pages in
  let ssa_first = tcs_first + config.tcs_count in
  let heap_first = ssa_first + (config.tcs_count * config.nssa) in
  (code_first, data_first, tcs_first, ssa_first, heap_first)

let create ~kmod ~proc ~rng ~signer ~config ~ecalls ~ocalls =
  let code_first, data_first, tcs_first, ssa_first, heap_first = layout config in
  if heap_first >= config.elrange_pages then fail "create: ELRANGE too small";
  let secs =
    {
      Sgx_types.base_va = elbase;
      size = config.elrange_pages * Addr.page_size;
      attributes = { Sgx_types.debug = config.debug; mode = config.mode; xfrm = 3 };
      ssa_frame_pages = 1;
    }
  in
  let enclave = Kmod.ioctl_create_enclave kmod secs in
  let base_vpn = Addr.page_of elbase in
  let pages = ref [] in
  let add ~idx ~content ~perms ~page_type =
    let vpn = base_vpn + idx in
    Kmod.ioctl_add_page kmod enclave ~vpn ~content ~perms ~page_type;
    pages :=
      { Measure.vpn; perms; page_type; content = Measure.page_padded content }
      :: !pages
  in
  for i = 0 to config.code_pages - 1 do
    add ~idx:(code_first + i)
      ~content:(code_page_content config i)
      ~perms:Page_table.rx ~page_type:Sgx_types.Pt_reg
  done;
  for i = 0 to config.data_pages - 1 do
    add ~idx:(data_first + i) ~content:Bytes.empty ~perms:Page_table.rw
      ~page_type:Sgx_types.Pt_reg
  done;
  for i = 0 to config.tcs_count - 1 do
    let vpn = base_vpn + tcs_first + i in
    let entry_va = elbase in
    let ssa_base_vpn = base_vpn + ssa_first + (i * config.nssa) in
    Kmod.ioctl_add_tcs kmod enclave ~vpn ~entry_va ~nssa:config.nssa
      ~ssa_base_vpn;
    pages :=
      {
        Measure.vpn;
        perms = Page_table.rw;
        page_type = Sgx_types.Pt_tcs;
        content =
          Measure.page_padded
            (Bytes.of_string
               (Printf.sprintf "tcs:%x:%d:%x" entry_va config.nssa ssa_base_vpn));
      }
      :: !pages;
    for s = 0 to config.nssa - 1 do
      add
        ~idx:(ssa_first + (i * config.nssa) + s)
        ~content:Bytes.empty ~perms:Page_table.rw ~page_type:Sgx_types.Pt_ssa
    done
  done;
  (* sgx_sign: predict the measurement offline and sign it. *)
  let expected = Measure.expected secs (List.rev !pages) in
  let sigstruct =
    Sgx_types.make_sigstruct ~vendor:signer ~enclave_hash:expected
      ~isv_prod_id:config.isv_prod_id ~isv_svn:config.isv_svn
  in
  (* Marshalling buffer: mmap + MAP_POPULATE, then the pin ioctl.  The
     size must be page-aligned and large enough to split into the three
     page-rounded regions (inputs / outputs / ocalloc arena). *)
  if config.ms_bytes <= 0 || not (Addr.is_aligned config.ms_bytes) then
    fail "create: ms_bytes (%d) must be a positive multiple of the page size"
      config.ms_bytes;
  if config.ms_bytes < 4 * Addr.page_size then
    fail "create: ms_bytes (%d) too small to split into regions (< 4 pages)"
      config.ms_bytes;
  let ms_size = config.ms_bytes in
  let ms_base = Kernel.mmap (Kmod.kernel kmod) proc ~len:ms_size ~populate:true in
  Kmod.ioctl_pin_range kmod proc ~va:ms_base ~len:ms_size;
  Kmod.ioctl_init_enclave kmod proc enclave ~sigstruct ~ms_base ~ms_size;
  let t =
    {
      kmod;
      proc;
      rng;
      enclave;
      config;
      ms_base;
      ms_size;
      ms_out_region = Addr.align_up (ms_size / 2);
      ms_ocall_region = Addr.align_up (ms_size * 3 / 4);
      ecalls = Hashtbl.create 16;
      ocalls = Hashtbl.create 16;
      heap_base_va = elbase + (heap_first * Addr.page_size);
      heap_cursor = elbase + (heap_first * Addr.page_size);
      ocalloc_cursor = 0;
      active_tcs = None;
      reserved_tcs = Hashtbl.create 4;
      timer = None;
      tenv = None;
    }
  in
  List.iter (fun (id, h) -> Hashtbl.replace t.ecalls id h) ecalls;
  List.iter (fun (id, h) -> Hashtbl.replace t.ocalls id h) ocalls;
  t

(* --- trusted environment --------------------------------------------------- *)

(* SGX "TCS busy" semantics: an entry may only take a TCS that is
   neither entered (busy monitor-side) nor parked on an in-flight OCALL
   awaiting its ORET.  When the pool is exhausted the entry is refused
   with a typed error — silently reusing a busy TCS would clobber its
   SSA state.  The pool walk is deterministic (creation order). *)
let tcs_available t (tcs : Sgx_types.tcs) =
  (not tcs.Sgx_types.busy) && not (Hashtbl.mem t.reserved_tcs tcs.Sgx_types.tcs_vpn)

let free_tcs_count t =
  List.length (List.filter (tcs_available t) t.enclave.Enclave.tcs_list)

let take_tcs t =
  match List.find_opt (tcs_available t) t.enclave.Enclave.tcs_list with
  | Some tcs -> tcs
  | None ->
      fail "TCS busy: no free TCS in enclave %d (%d total, all entered or parked on an OCALL)"
        t.enclave.Enclave.id (List.length t.enclave.Enclave.tcs_list)

let rec make_tenv t : Tenv.t =
  let m = monitor t in
  let enc = t.enclave in
  {
    Tenv.mode = t.config.mode;
    clock = clock t;
    cost = cost t;
    read = (fun ~va ~len -> Monitor.enclave_read m enc ~va ~len);
    write = (fun ~va data -> Monitor.enclave_write m enc ~va data);
    touch = (fun ~va ~write -> Monitor.touch m enc ~va ~write);
    malloc =
      (fun size ->
        let aligned = (size + 15) land lnot 15 in
        let va = t.heap_cursor in
        if va + aligned > elbase + enc.Enclave.secs.Sgx_types.size then
          fail "enclave heap exhausted";
        t.heap_cursor <- t.heap_cursor + aligned;
        va);
    heap_base = t.heap_base_va;
    ocall = (fun ~id ?data direction -> do_ocall t ~id ?data direction);
    ocall_switchless = (fun ~id ?data () -> do_ocall_switchless t ~id ?data ());
    ocall_ring = (fun ~reqs () -> do_ocall_ring t ~reqs ());
    compute =
      (fun cycles ->
        Cycles.tick (clock t) cycles;
        poll_timer t);
    getkey = (fun name -> Monitor.egetkey m enc name);
    report = (fun ~report_data -> Monitor.ereport m enc ~report_data);
    verify_report = (fun report -> Monitor.verify_report m report);
    seal =
      (fun ?aad data ->
        let key = Monitor.egetkey m enc Sgx_types.Seal_key_mrenclave in
        let nonce = Rng.bytes t.rng 12 in
        Authenc.encode (Authenc.seal ~key ?aad ~nonce data));
    unseal =
      (fun blob ->
        let key = Monitor.egetkey m enc Sgx_types.Seal_key_mrenclave in
        match Authenc.decode blob with
        | Ok sealed -> Authenc.unseal ~key sealed
        | Error _ -> raise Authenc.Authentication_failure);
    seal_versioned =
      (fun data ->
        (* Bind the blob to a fresh counter value: all older blobs die. *)
        let version = Monitor.counter_increment_for m enc in
        let key = Monitor.egetkey m enc Sgx_types.Seal_key_mrenclave in
        let aad = Bytes.of_string (Printf.sprintf "version:%d" version) in
        Authenc.encode
          (Authenc.seal ~key ~aad ~nonce:(Rng.bytes t.rng 12) data));
    unseal_versioned =
      (fun blob ->
        let key = Monitor.egetkey m enc Sgx_types.Seal_key_mrenclave in
        let sealed =
          match Authenc.decode blob with
          | Ok sealed -> sealed
          | Error _ -> raise Authenc.Authentication_failure
        in
        let current = Monitor.counter_read_for m enc in
        let expected = Bytes.of_string (Printf.sprintf "version:%d" current) in
        if not (Bytes.equal sealed.Authenc.aad expected) then
          failwith "stale sealed data";
        Authenc.unseal ~key sealed);
    set_page_perms =
      (fun ~vpn ~perms ~grant ->
        match t.config.mode with
        | Sgx_types.P -> Monitor.penclave_set_perms m enc ~vpn ~perms
        | Sgx_types.GU | Sgx_types.HU ->
            if grant then Monitor.emodpe m enc ~vpn ~perms
            else Monitor.emodpr m enc ~vpn ~perms);
    register_exception_handler =
      (fun ~vector handler -> Monitor.register_handler m enc ~vector handler);
    raise_exception = (fun vector -> simulate_exception t vector);
    interrupt_now = (fun () -> simulate_interrupt t);
    arm_interrupt_guard =
      (fun ~window_cycles ~threshold ->
        Monitor.arm_interrupt_guard m enc ~window_cycles ~threshold);
    interrupt_alarms = (fun () -> Monitor.interrupt_alarms enc);
    ms_read =
      (fun ~off ~len -> Monitor.enclave_read m enc ~va:(t.ms_base + off) ~len);
    ms_write =
      (fun ~off data -> Monitor.enclave_write m enc ~va:(t.ms_base + off) data);
    ms_base = t.ms_base;
    ms_size = t.ms_size;
    enclave_id = enc.Enclave.id;
  }

(* --- OCALL: exit, run untrusted handler, re-enter ------------------------- *)

and do_ocall t ~id ?(data = Bytes.empty) direction =
  let m = monitor t in
  let c = cost t in
  count t "sdk.ocall";
  Cycles.tick (clock t) (World_switch.sdk_ocall_soft c t.config.mode);
  let handler =
    match Hashtbl.find_opt t.ocalls id with
    | Some h -> h
    | None -> fail "unknown OCALL %d" id
  in
  (* sgx_ocalloc redirected into the marshalling buffer: the enclave
     writes the arguments straight there — no extra copy (Sec. 5.3). *)
  let arg_off = ms_ocall_off t + t.ocalloc_cursor in
  let len = Bytes.length data in
  if len > 0 then begin
    if arg_off + len > t.ms_size then fail "ocalloc arena exhausted";
    Monitor.enclave_write m t.enclave ~va:(t.ms_base + arg_off) data
  end;
  t.ocalloc_cursor <- t.ocalloc_cursor + ((len + 15) land lnot 15);
  (* The OCALL parks its TCS: sgx_ocall keeps the thread bound to the
     TCS across the exit, and ORET must re-enter on that same one.
     Reserving it for the duration of the untrusted handler is what
     gives a re-entrant ECALL issued from the handler the SGX "TCS
     busy" semantics (it must take a different TCS or fail typed)
     instead of silently clobbering the parked SSA state. *)
  let parked_tcs =
    match t.active_tcs with
    | Some tcs -> tcs
    | None -> fail "OCALL outside an ECALL"
  in
  Monitor.eexit m t.enclave ~target_va:aep;
  t.active_tcs <- None;
  Hashtbl.replace t.reserved_tcs parked_tcs.Sgx_types.tcs_vpn ();
  let unpark () = Hashtbl.remove t.reserved_tcs parked_tcs.Sgx_types.tcs_vpn in
  t.enclave.Enclave.stats.Enclave.ocalls <-
    t.enclave.Enclave.stats.Enclave.ocalls + 1;
  let args = if len > 0 then ms_raw_read t ~off:arg_off ~len else Bytes.empty in
  let reply = try handler args with exn -> unpark (); raise exn in
  let reply_off = arg_off in
  (* The reply reuses the request's ocalloc slot but may be larger than
     the request was: bound it against the arena too, or an untrusted
     handler's oversized reply runs off the end of the pinned buffer. *)
  if reply_off + Bytes.length reply > t.ms_size then begin
    unpark ();
    fail "OCALL %d reply (%d bytes) overflows the ocalloc arena" id
      (Bytes.length reply)
  end;
  if Bytes.length reply > 0 then ms_raw_write t ~off:reply_off reply;
  (* ORET: re-enter at the OCALL return stub on the parked TCS. *)
  unpark ();
  Monitor.eenter m t.enclave ~tcs:parked_tcs ~return_va:aep;
  t.enclave.Enclave.stats.Enclave.ecalls <-
    t.enclave.Enclave.stats.Enclave.ecalls - 1;
  t.active_tcs <- Some parked_tcs;
  let out =
    if Bytes.length reply > 0 then
      Monitor.enclave_read m t.enclave ~va:(t.ms_base + reply_off)
        ~len:(Bytes.length reply)
    else Bytes.empty
  in
  t.ocalloc_cursor <- max 0 (t.ocalloc_cursor - ((len + 15) land lnot 15));
  ignore direction;
  out

(* OCALL reply ring: the batched mirror of the ECALL ring.  K replies
   are framed in the ocalloc arena under one SDK soft path and one
   EEXIT; the untrusted side drains every slot, and a single batched
   ORET ([Kmod.ioctl_obatch] -> OBATCH hypercall) re-enters the parked
   TCS — the per-reply EENTER of [do_ocall] is paid once for the whole
   ring. *)
and do_ocall_ring t ~reqs () =
  let m = monitor t in
  let c = cost t in
  let k = List.length reqs in
  if k = 0 then []
  else if k > max_batch then
    fail "ocall_ring: %d requests exceed the ring capacity (%d)" k max_batch
  else begin
    List.iter
      (fun (id, _) ->
        if not (Hashtbl.mem t.ocalls id) then fail "unknown OCALL %d" id)
      reqs;
    count t "sdk.ocall_ring";
    Hyperenclave_obs.Telemetry.add (Monitor.telemetry m) "sdk.ocall_ringed" k;
    Hyperenclave_obs.Telemetry.observe
      (Monitor.telemetry m)
      "ring.oret_occupancy" k;
    Cycles.tick (clock t)
      (World_switch.sdk_ocall_soft c t.config.mode
      + World_switch.batch_dispatch_cost c ~k);
    (* sgx_ocalloc-style: the framed ring is written straight into the
       pinned arena — the enclave-side staging is the frame. *)
    let staged = frame_requests reqs in
    let arg_off = ms_ocall_off t + t.ocalloc_cursor in
    if arg_off + Bytes.length staged > t.ms_size then
      fail "ocall_ring: %d bytes of requests exhaust the ocalloc arena"
        (Bytes.length staged);
    Monitor.enclave_write m t.enclave ~va:(t.ms_base + arg_off) staged;
    let reserve = (Bytes.length staged + 15) land lnot 15 in
    t.ocalloc_cursor <- t.ocalloc_cursor + reserve;
    let release () = t.ocalloc_cursor <- max 0 (t.ocalloc_cursor - reserve) in
    let parked_tcs =
      match t.active_tcs with
      | Some tcs -> tcs
      | None ->
          release ();
          fail "OCALL outside an ECALL"
    in
    Monitor.eexit m t.enclave ~target_va:aep;
    t.active_tcs <- None;
    Hashtbl.replace t.reserved_tcs parked_tcs.Sgx_types.tcs_vpn ();
    let unpark () = Hashtbl.remove t.reserved_tcs parked_tcs.Sgx_types.tcs_vpn in
    t.enclave.Enclave.stats.Enclave.ocalls <-
      t.enclave.Enclave.stats.Enclave.ocalls + k;
    let framed_len =
      try oret_batch t ~arg_off ~staged_len:(Bytes.length staged)
      with exn ->
        unpark ();
        release ();
        raise exn
    in
    (* Batched ORET crossing: one ioctl + OBATCH hypercall re-enters the
       parked TCS for all K replies. *)
    unpark ();
    Kmod.ioctl_obatch t.kmod ~enclave:t.enclave ~tcs:parked_tcs ~return_va:aep
      ~slots:k;
    t.enclave.Enclave.stats.Enclave.ecalls <-
      t.enclave.Enclave.stats.Enclave.ecalls - 1;
    t.active_tcs <- Some parked_tcs;
    let drained =
      parse_frames ~what:"ocall_ring(trusted)"
        (Monitor.enclave_read m t.enclave ~va:(t.ms_base + arg_off)
           ~len:framed_len)
    in
    release ();
    List.map snd drained
  end

(* Untrusted half of the reply ring: drain every staged slot through its
   handler and write the reply frame back over the request frame in
   place.  Runs entirely outside the enclave (the TCS is parked), so a
   handler exception propagates to [do_ocall_ring]'s cleanup.  Returns
   the reply frame length for the trusted side to read back. *)
and oret_batch t ~arg_off ~staged_len =
  let slots =
    parse_frames ~what:"ocall_ring(untrusted)"
      (ms_raw_read t ~off:arg_off ~len:staged_len)
  in
  let replies =
    List.map
      (fun (id, body) ->
        (* An unregistered id in a drained slot must surface as the typed
           refusal, not a bare [Not_found]: the frame came back from the
           shared region, so its ids are untrusted input. *)
        match Hashtbl.find_opt t.ocalls id with
        | Some handler -> (id, handler body)
        | None -> fail "unknown OCALL %d" id)
      slots
  in
  let framed = frame_replies replies in
  if arg_off + Bytes.length framed > t.ms_size then
    fail "ocall_ring: %d bytes of replies overflow the ocalloc arena"
      (Bytes.length framed);
  ms_raw_write t ~off:arg_off framed;
  Bytes.length framed

(* Switchless OCALL: the request and reply travel through the ocalloc
   arena like a regular OCALL's arguments, but no world switch happens —
   the enclave posts to the ring and an untrusted worker thread picks the
   request up.  We charge the enclave the post + expected wait and run the
   handler inline on the worker's behalf. *)
and do_ocall_switchless t ~id ?(data = Bytes.empty) () =
  let m = monitor t in
  let c = cost t in
  count t "sdk.ocall_switchless";
  let handler =
    match Hashtbl.find_opt t.ocalls id with
    | Some h -> h
    | None -> fail "unknown OCALL %d" id
  in
  let arg_off = ms_ocall_off t + t.ocalloc_cursor in
  let len = Bytes.length data in
  if len > 0 then begin
    if arg_off + len > t.ms_size then fail "ocalloc arena exhausted";
    Monitor.enclave_write m t.enclave ~va:(t.ms_base + arg_off) data
  end;
  Cycles.tick (clock t) (c.Cost_model.switchless_post + c.Cost_model.switchless_wait);
  (* Worker side: dispatch + handler, reply into the same slot. *)
  Cycles.tick (clock t) c.Cost_model.switchless_dispatch;
  let args = if len > 0 then ms_raw_read t ~off:arg_off ~len else Bytes.empty in
  let reply = handler args in
  if arg_off + Bytes.length reply > t.ms_size then
    fail "OCALL %d reply (%d bytes) overflows the ocalloc arena" id
      (Bytes.length reply);
  if Bytes.length reply > 0 then ms_raw_write t ~off:arg_off reply;
  t.enclave.Enclave.stats.Enclave.ocalls <-
    t.enclave.Enclave.stats.Enclave.ocalls + 1;
  if Bytes.length reply > 0 then
    Monitor.enclave_read m t.enclave ~va:(t.ms_base + arg_off)
      ~len:(Bytes.length reply)
  else Bytes.empty

(* --- exception simulation --------------------------------------------------- *)

and simulate_exception t vector =
  let m = monitor t in
  match Monitor.deliver_exception m t.enclave vector with
  | `Handled_in_enclave -> ()
  | `Forwarded_to_os -> (
      let interrupted_tcs =
        match t.active_tcs with
        | Some tcs -> tcs
        | None -> fail "exception outside an ECALL"
      in
      (* Phase 1: the primary OS turns the fault into a signal to the
         uRTS... *)
      Kernel.deliver_signal (kernel t);
      (* Phase 2: ...which ECALLs the in-enclave internal handler on a
         fresh TCS. *)
      let vector_name = Sgx_types.vector_name vector in
      match Enclave.find_handler t.enclave ~vector:vector_name with
      | None -> fail "unhandled %s inside enclave %d" vector_name t.enclave.Enclave.id
      | Some handler ->
          Cycles.tick (clock t) (World_switch.sdk_ecall_soft (cost t) t.config.mode);
          let tcs = take_tcs t in
          Monitor.eenter m t.enclave ~tcs ~return_va:aep;
          let handled = handler vector in
          Monitor.eexit m t.enclave ~target_va:aep;
          if not handled then fail "in-enclave handler refused %s" vector_name;
          (* ERESUME back into the interrupted computation.  A transient
             fault leaves the SSA frame intact, so the uRTS re-issues the
             ERESUME after backoff, like the AEP retry loop in the real
             runtime. *)
          Fault.with_retries ~backoff:(backoff t) (fun () ->
              Monitor.eresume m t.enclave ~tcs:interrupted_tcs))

and simulate_interrupt t =
  let m = monitor t in
  match t.active_tcs with
  | None -> fail "interrupt outside an ECALL"
  | Some tcs ->
      Monitor.deliver_interrupt m t.enclave;
      (* The primary OS services the interrupt and schedules us back. *)
      Cycles.tick (clock t) (1_800 + (cost t).Cost_model.os_ctxsw);
      Fault.with_retries ~backoff:(backoff t) (fun () ->
          Monitor.eresume m t.enclave ~tcs)

(* Scheduler preemption: when the armed quantum expires mid-ECALL, the
   next trusted compute step takes a timer interrupt — a genuine AEX
   (SSA spill) + OS service + ERESUME through the monitor — and the
   deadline advances by one quantum.  Disarmed, this is one field read
   per compute call, so non-scheduled runs stay cycle-identical. *)
and poll_timer t =
  match t.timer with
  | None -> ()
  | Some timer ->
      if Cycles.now (clock t) >= timer.deadline && t.active_tcs <> None then begin
        count t "sched.aex_preempt";
        simulate_interrupt t;
        (match timer.on_preempt with Some f -> f () | None -> ());
        timer.deadline <- Cycles.now (clock t) + timer.quantum
      end

(* The trusted environment is a record of closures over [t] alone, so one
   serves every entry of the enclave. *)
let tenv t =
  match t.tenv with
  | Some tenv -> tenv
  | None ->
      let tenv = make_tenv t in
      t.tenv <- Some tenv;
      tenv

let arm_timer t ~quantum ?on_preempt () =
  if quantum <= 0 then fail "arm_timer: quantum must be positive";
  t.timer <- Some { quantum; deadline = Cycles.now (clock t) + quantum; on_preempt }

let disarm_timer t = t.timer <- None

(* --- ECALL ------------------------------------------------------------------ *)

(* A direct (non-marshalling) copy still translates the foreign pages it
   reads through the nested tables; charge the same per-page costs the
   marshalling path pays inside enclave_read/_write (first page cold in
   the paging-structure caches, the rest warm) so the Fig. 7 baseline is
   apples-to-apples. *)
let foreign_touch_cost (c : Cost_model.t) ~bytes =
  let pages = (bytes + Addr.page_size - 1) / Addr.page_size in
  if pages = 0 then 0
  else (12 * c.pt_level_access) + ((pages - 1) * ((4 * c.pt_level_access) + 2))

let lookup_ecall t id =
  match Hashtbl.find_opt t.ecalls id with
  | Some h -> h
  | None -> fail "unknown ECALL %d" id

let run_ecall t ~id ~data ~direction ~use_ms =
  let m = monitor t in
  let c = cost t in
  let handler = lookup_ecall t id in
  count t "sdk.ecall";
  Cycles.tick (clock t) (World_switch.sdk_ecall_soft c t.config.mode);
  let len = Bytes.length data in
  let carries_in =
    match direction with
    | Edge.In | Edge.In_out -> len > 0
    | Edge.Out | Edge.User_check -> false
  in
  (* App-side leg: stage the input in the marshalling buffer.  Inputs own
     only the [0, 1/2) region; anything larger would spill into the
     output region. *)
  if use_ms && carries_in then begin
    if len > ms_out_off t then
      fail "ECALL %d input (%d bytes) exceeds the marshalling input region" id
        len;
    ms_raw_write t ~off:0 data;
    match direction with
    | Edge.In -> Edge.charge_ms_in c (clock t) ~bytes:len
    | Edge.In_out -> Edge.charge_ms_in_out c (clock t) ~bytes:len
    | Edge.Out | Edge.User_check -> ()
  end;
  let tcs = take_tcs t in
  Monitor.eenter m t.enclave ~tcs ~return_va:aep;
  t.active_tcs <- Some tcs;
  let tenv = tenv t in
  (* Trusted-side leg: copy the staged input into enclave memory (the
     copy SGX-style direct access performs as well). *)
  let input =
    if carries_in then
      if use_ms then Monitor.enclave_read m t.enclave ~va:t.ms_base ~len
      else begin
        Cycles.tick (clock t)
          (Cost_model.copy_cost c len + foreign_touch_cost c ~bytes:len);
        data
      end
    else data
  in
  (* An exception escaping trusted code aborts the enclave call: exit
     cleanly (freeing the TCS and restoring the normal context) before
     propagating, as the real uRTS does for enclave crashes. *)
  let result =
    try
      (* Injected AEX storm: a burst of device interrupts lands right
         after EENTER; each one AEXes to the primary OS and is ERESUMEd
         before trusted code makes progress.  Nested injections at the
         switch sites unwind through the cleanup below. *)
      (match Fault.check "sdk.aex_storm" with
      | None -> ()
      | Some kind ->
          let bursts =
            match kind with Fault.Transient -> 2 | Fault.Permanent -> 6
          in
          for _ = 1 to bursts do
            simulate_interrupt t
          done;
          Fault.survived "sdk.aex_storm");
      handler tenv input
    with exn ->
      (match Monitor.current m with
      | Some running when running.Enclave.id = t.enclave.Enclave.id ->
          Monitor.eexit m t.enclave ~target_va:aep
      | Some _ | None -> ());
      t.active_tcs <- None;
      raise exn
  in
  let out_len = Bytes.length result in
  let carries_out =
    match direction with
    | Edge.Out | Edge.In_out -> out_len > 0
    | Edge.In | Edge.User_check -> false
  in
  (* The result owns only the [1/2, 3/4) output region; an oversized one
     would silently overwrite the ocalloc arena (still inside the
     marshalling buffer, so R-2 never trips).  The enclave is entered
     here, so exit cleanly before reporting the error. *)
  if carries_out && use_ms && out_len > ms_ocall_off t - ms_out_off t then begin
    Monitor.eexit m t.enclave ~target_va:aep;
    t.active_tcs <- None;
    fail "ECALL %d output (%d bytes) exceeds the marshalling output region" id
      out_len
  end;
  if carries_out then
    if use_ms then
      Monitor.enclave_write m t.enclave ~va:(t.ms_base + ms_out_off t) result
    else
      Cycles.tick (clock t)
        (Cost_model.copy_cost c out_len + foreign_touch_cost c ~bytes:out_len);
  Monitor.eexit m t.enclave ~target_va:aep;
  t.active_tcs <- None;
  if use_ms && carries_out then begin
    (match direction with
    | Edge.Out -> Edge.charge_ms_out c (clock t) ~bytes:out_len
    | Edge.In_out | Edge.In | Edge.User_check -> ());
    ms_raw_read t ~off:(ms_out_off t) ~len:out_len
  end
  else result

(* Bounded retry on transient injected faults.  Every fault site fires
   before its guarded operation mutates state and [run_ecall] exits the
   enclave cleanly on any escaping exception, so re-running the whole
   ECALL from the top is safe: inputs are re-staged, a fresh TCS is
   taken, and the EDMM/swap machinery re-faults pages on demand.
   Permanent faults and exhausted retries surface as the typed
   [Fault.Injected] error. *)
let ecall t ~id ?(data = Bytes.empty) ~direction () =
  Fault.with_retries ~backoff:(backoff t) (fun () ->
      run_ecall t ~id ~data ~direction ~use_ms:true)

let ecall_no_ms t ~id ?(data = Bytes.empty) ~direction () =
  Fault.with_retries ~backoff:(backoff t) (fun () ->
      run_ecall t ~id ~data ~direction ~use_ms:false)

(* --- switchless call ring: batched ECALLs ---------------------------------- *)

(* One world switch serves the whole batch (the paper's motivation for
   cheap HU switches, taken one step further): the SDK soft path and the
   EENTER/EEXIT pair are paid once, and each ring slot past the first
   costs only the in-enclave dispatch.  Inputs are staged before entry,
   replies drained after exit, so the enclave crosses the boundary
   exactly twice regardless of K. *)
let run_ecall_batch t reqs =
  let m = monitor t in
  let c = cost t in
  let k = List.length reqs in
  if k = 0 then []
  else if k > max_batch then
    fail "ecall_batch: %d requests exceed the ring capacity (%d)" k max_batch
  else begin
    List.iter (fun (id, _) -> ignore (lookup_ecall t id : Tenv.handler)) reqs;
    count t "sdk.ecall_batch";
    Hyperenclave_obs.Telemetry.add
      (Monitor.telemetry m)
      "sdk.ecall_batched" k;
    Hyperenclave_obs.Telemetry.observe
      (Monitor.telemetry m)
      "ring.batch_occupancy" k;
    Cycles.tick (clock t)
      (World_switch.sdk_ecall_soft c t.config.mode
      + World_switch.batch_dispatch_cost c ~k);
    let staged = frame_requests reqs in
    if Bytes.length staged > ms_out_off t then
      fail "ecall_batch: %d bytes of requests exceed the marshalling input region"
        (Bytes.length staged);
    ms_raw_write t ~off:0 staged;
    Edge.charge_ms_in c (clock t) ~bytes:(Bytes.length staged);
    let tcs = take_tcs t in
    Monitor.eenter m t.enclave ~tcs ~return_va:aep;
    t.active_tcs <- Some tcs;
    let tenv = tenv t in
    let cleanup_exit () =
      (match Monitor.current m with
      | Some running when running.Enclave.id = t.enclave.Enclave.id ->
          Monitor.eexit m t.enclave ~target_va:aep
      | Some _ | None -> ());
      t.active_tcs <- None
    in
    let replies =
      try
        (* Trusted drain loop: re-read the staged ring through the
           enclave mapping, dispatch each slot in order. *)
        let slots =
          parse_frames ~what:"ecall_batch(trusted)"
            (Monitor.enclave_read m t.enclave ~va:t.ms_base
               ~len:(Bytes.length staged))
        in
        List.map (fun (id, body) -> (id, (lookup_ecall t id) tenv body)) slots
      with exn ->
        cleanup_exit ();
        raise exn
    in
    let framed = frame_replies replies in
    if Bytes.length framed > ms_ocall_off t - ms_out_off t then begin
      cleanup_exit ();
      fail "ecall_batch: %d bytes of replies exceed the marshalling output region"
        (Bytes.length framed)
    end;
    Monitor.enclave_write m t.enclave ~va:(t.ms_base + ms_out_off t) framed;
    Monitor.eexit m t.enclave ~target_va:aep;
    t.active_tcs <- None;
    Edge.charge_ms_out c (clock t) ~bytes:(Bytes.length framed);
    let drained =
      parse_frames ~what:"ecall_batch(untrusted)"
        (ms_raw_read t ~off:(ms_out_off t) ~len:(Bytes.length framed))
    in
    List.map snd drained
  end

let ecall_batch t ~reqs () =
  Fault.with_retries ~backoff:(backoff t) (fun () -> run_ecall_batch t reqs)

(* --- arena ring: sharded switchless dispatch of an attested channel --------- *)

(* A fixed-stride slot ring per (tenant, shard) in the pinned marshalling
   buffer, carrying a tenant's attested-channel traffic in ciphertext
   end to end.  The plane stages each admitted envelope's ciphertext
   behind a slot header naming its ECALL, session, sequence number and
   tag; the persistent in-enclave worker checks the tag and opens every
   slot into enclave memory, runs the handler, and seals the reply in
   place with its tag beside it.  A slot whose tag fails gets a refusal
   marker instead of a reply, and its handler never runs.  Only
   ciphertext and tags ever reach the marshalling buffer.  The channel
   crypto is the tenant's own trusted code ([channel]): it holds the
   enclave's session keys and charges the AEAD cost, which therefore
   ticks inside the worker's scheduled slice.

   The dispatch is switchless: the plane publishes the staged image and
   the worker picks it up — no TCS take, no EENTER/EEXIT, no SDK soft
   path; the enclave pays one post fence plus the fixed-stride per-slot
   dispatch ([Cost_model.ring_slot_dispatch]).  Two restrictions follow
   from having no entered TCS: ring handlers must not OCALL (they get
   the typed "OCALL outside an ECALL" refusal), and the AEX preemption
   timer never fires inside a ring dispatch.

   Layout: the ECALL-input region [0, ms_out_region) splits into
   [shards] equal request segments and the output region [ms_out_region,
   ms_ocall_region) into [shards] reply segments; shard [i] owns segment
   [i] of each.  A segment holds [count:8][slot_0][slot_1]... at stride
   [slot_header_bytes + slot_bytes]:
     request  [ecall:8][len:8][session:8][seq:8][tag:32][clear:1][0:7][payload]
     reply    [ecall:8][len:8][tag:32][payload]
   A sealed slot's payloads are channel ciphertext, and a reply whose
   request failed its tag carries [refused] in its length word and no
   payload.  A clear slot ([clear] = 1) is a plain switchless call whose
   argument and reply travel in the clear, with no session and a zero
   tag: the channel uses it to hand the enclave its session keys.  It
   gives the host nothing an ordinary ECALL does not.
   The staging images ([rbuf]/[pbuf]) are recycled across flushes and
   grow by doubling from [initial_slots] to the deepest flush the ring
   has staged. *)
type channel = {
  open_slot :
    nth:int -> session:int -> seq:int -> ecall:int -> tag:bytes -> bytes -> bool;
  seal_slot : nth:int -> session:int -> seq:int -> bytes -> bytes -> off:int -> unit;
}

let slot_header_bytes = 72
let tag_bytes = 32
let reply_header_bytes = 16 + tag_bytes
let refused = -1
let initial_slots = 8

type slot_header = {
  h_ecall : int;
  h_len : int;
  h_session : int;
  h_seq : int;
  h_tag : bytes;
  h_clear : bool;
}

let no_tag = Bytes.make tag_bytes '\000'

let write_slot_header b ~off ~ecall ~len ~session ~seq ~tag ~clear =
  Bytes.set_int64_le b off (Int64.of_int ecall);
  Bytes.set_int64_le b (off + 8) (Int64.of_int len);
  Bytes.set_int64_le b (off + 16) (Int64.of_int session);
  Bytes.set_int64_le b (off + 24) (Int64.of_int seq);
  Bytes.blit tag 0 b (off + 32) tag_bytes;
  Bytes.fill b (off + 64) 8 '\000';
  if clear then Bytes.set b (off + 64) '\001'

let encode_slot_header h =
  let b = Bytes.create slot_header_bytes in
  write_slot_header b ~off:0 ~ecall:h.h_ecall ~len:h.h_len ~session:h.h_session
    ~seq:h.h_seq ~tag:h.h_tag ~clear:h.h_clear;
  b

(* The worker's reader for one request header: the header is
   host-written, so every word is bounded.  The tag lands in the
   caller's 32-byte [tag] scratch and the other fields go to [k] rather
   than into a record, so the worker reads a slot without allocating. *)
let read_slot_header ~slot_bytes ~tag r k =
  let ecall = Codec.int64_le r "ecall id" in
  let len = Codec.len64_le ~max:slot_bytes r "length" in
  let session = Codec.len64_le ~max:max_int r "session" in
  let seq = Codec.len64_le ~max:max_int r "sequence number" in
  Codec.take_into r tag "tag";
  let clear =
    match Codec.uint8 r "clear flag" with
    | 0 -> false
    | 1 -> true
    | _ -> Codec.fail "clear flag" "neither 0 nor 1"
  in
  Codec.literal r "\000\000\000\000\000\000\000" "padding";
  k ~ecall ~len ~session ~seq ~clear

let decode_slot_header ~slot_bytes =
  Codec.decode "ring slot header" (fun r ->
      let tag = Bytes.create tag_bytes in
      read_slot_header ~slot_bytes ~tag r (fun ~ecall ~len ~session ~seq ~clear ->
          {
            h_ecall = ecall;
            h_len = len;
            h_session = session;
            h_seq = seq;
            h_tag = tag;
            h_clear = clear;
          }))

type ring = {
  rt : t;
  channel : channel;
  shard : int;
  req_off : int;  (* segment base in the input region *)
  rep_off : int;  (* segment base in the output region *)
  slots : int;
  slot_bytes : int;
  stride : int;  (* slot_header_bytes + slot_bytes *)
  mutable rbuf : bytes;  (* reusable staged-request image, header included *)
  mutable pbuf : bytes;  (* reusable reply image, same stride *)
  mutable rlens : int array;
      (* per slot of the last reply image read: its reply length or
         [refused] *)
  tag : bytes;  (* the worker's scratch for a request's tag *)
  mutable staged : int;
  mutable calls : int;  (* clear slots among the staged *)
}

let ring_staged r = r.staged
let ring_requests r = r.staged - r.calls
let ring_capacity r = r.slots
let ring_buf r = r.rbuf
let ring_reply_buf r = r.pbuf

let ring_reset r =
  r.staged <- 0;
  r.calls <- 0

let create_ring t ~shard ~shards ~slots ~slot_bytes channel =
  if shards <= 0 then fail "create_ring: shards (%d) must be positive" shards;
  if shard < 0 || shard >= shards then
    fail "create_ring: shard %d outside [0, %d)" shard shards;
  if slots <= 0 then fail "create_ring: slots (%d) must be positive" slots;
  if slot_bytes <= 0 || slot_bytes land 7 <> 0 then
    fail "create_ring: slot_bytes (%d) must be a positive multiple of 8"
      slot_bytes;
  let stride = slot_header_bytes + slot_bytes in
  let need = 8 + (slots * stride) in
  let in_seg = (t.ms_out_region / shards) land lnot 7 in
  let out_seg = ((t.ms_ocall_region - t.ms_out_region) / shards) land lnot 7 in
  if need > in_seg || need > out_seg then
    fail
      "create_ring: %d slots x %d B need %d B per segment, but %d shards \
       leave %d B (in) / %d B (out) — raise ms_bytes"
      slots stride need shards in_seg out_seg;
  let image = 8 + (min slots initial_slots * stride) in
  {
    rt = t;
    channel;
    shard;
    req_off = shard * in_seg;
    rep_off = t.ms_out_region + (shard * out_seg);
    slots;
    slot_bytes;
    stride;
    rbuf = Bytes.make image '\000';
    pbuf = Bytes.make image '\000';
    rlens = Array.make (min slots initial_slots) 0;
    tag = Bytes.create tag_bytes;
    staged = 0;
    calls = 0;
  }

(* Staging writes the slot header and the payload into [ring_buf],
   doubling the images (keeping what is staged) when the next slot does
   not fit. *)
let stage_slot r ~ecall_id ~session ~seq ~tag ~clear ~src ~src_off ~len =
  if len < 0 || len > r.slot_bytes then
    fail "ring_stage: %d bytes exceed the %d-byte slot" len r.slot_bytes;
  if Bytes.length tag <> tag_bytes then fail "ring_stage: tag must be 32 bytes";
  if r.staged >= r.slots then fail "ring_stage: ring full (%d slots)" r.slots;
  let off = 8 + (r.staged * r.stride) in
  if off + r.stride > Bytes.length r.rbuf then begin
    let slots = min r.slots (2 * r.staged) in
    let image = 8 + (slots * r.stride) in
    let grown = Bytes.make image '\000' in
    Bytes.blit r.rbuf 0 grown 0 off;
    r.rbuf <- grown;
    r.pbuf <- Bytes.make image '\000';
    r.rlens <- Array.make slots 0
  end;
  write_slot_header r.rbuf ~off ~ecall:ecall_id ~len ~session ~seq ~tag ~clear;
  Bytes.blit src src_off r.rbuf (off + slot_header_bytes) len;
  r.staged <- r.staged + 1

let ring_stage r ~ecall_id ~session ~seq ~tag ~src ~src_off ~len =
  stage_slot r ~ecall_id ~session ~seq ~tag ~clear:false ~src ~src_off ~len

let ring_call r ~ecall_id data =
  stage_slot r ~ecall_id ~session:0 ~seq:0 ~tag:no_tag ~clear:true ~src:data
    ~src_off:0 ~len:(Bytes.length data);
  r.calls <- r.calls + 1

let check_reply_slot r ~slot =
  if slot < 0 || slot >= r.staged then
    fail "ring reply slot %d outside the %d staged" slot r.staged

let ring_reply_refused r ~slot =
  check_reply_slot r ~slot;
  r.rlens.(slot) = refused

let ring_reply_slot r ~slot =
  if ring_reply_refused r ~slot then fail "ring reply slot %d was refused" slot;
  (8 + (slot * r.stride) + reply_header_bytes, r.rlens.(slot))

let ring_reply_tag r ~slot =
  check_reply_slot r ~slot;
  Bytes.sub r.pbuf (8 + (slot * r.stride) + 16) tag_bytes

(* Untrusted half, request direction: the plane publishes the staged
   image into the shard's pinned request segment and pays the
   marshalling-in rate.  Runs on the caller's (plane) clock. *)
let ring_publish r =
  let t = r.rt in
  if r.staged > 0 then begin
    let len = 8 + (r.staged * r.stride) in
    Bytes.set_int64_le r.rbuf 0 (Int64.of_int r.staged);
    ms_raw_write_slice t ~off:r.req_off r.rbuf ~pos:0 ~len;
    Edge.charge_ms_in (cost t) (clock t) ~bytes:len
  end

(* The worker walks the segment's pages through its own mapping of the
   pinned region — one translation per page, no byte copy (User_check
   discipline).  [Monitor.touch] needs an entered TCS, which a
   switchless dispatch never has; pinned marshalling pages cannot be
   swapped out, so residency through the kernel mapping is the whole
   check. *)
let touch_segment t ~off ~len =
  let c = cost t in
  let first = Addr.page_of (t.ms_base + off) in
  let last = Addr.page_of (t.ms_base + off + len - 1) in
  for vpn = first to last do
    Cycles.tick (clock t) c.Cost_model.tlb_hit;
    match Kernel.resolve_frame (kernel t) t.proc ~vpn with
    | Some _ -> ()
    | None -> fail "ring segment page 0x%x not resident" vpn
  done

(* Trusted half: the persistent in-enclave worker.  It reads the segment
   the host published, through the pinned pages (into the ring's image,
   so what the host left in [rbuf] reaches it only through the
   marshalling buffer), and one bounded reader walks it (the count, then
   every slot's header, payload and unused tail): each payload is copied
   into enclave memory and handed to its handler — a sealed one
   authenticated and opened there by the channel first, its reply sealed
   by the channel into the slot's place in the reply image; a clear
   one's reply stored as it is.  A sealed slot whose tag fails gets the
   [refused] marker and no reply, and the ring's other slots are served.
   The worker stores the reply image through its own mapping of the
   pinned region.  A corrupt header or a session the enclave holds no
   key for fails the whole ring with [Enclave_error]. *)
let run_ring_dispatch r =
  let t = r.rt in
  let m = monitor t in
  let c = cost t in
  let k = r.staged in
  if k > 0 then begin
    count t "sdk.ring_dispatch";
    Hyperenclave_obs.Telemetry.add (Monitor.telemetry m) "sdk.ring_slots" k;
    Hyperenclave_obs.Telemetry.observe
      (Monitor.telemetry m)
      "ring.shard_occupancy" k;
    let len = 8 + (k * r.stride) in
    Cycles.tick (clock t)
      (c.Cost_model.switchless_post + (k * c.Cost_model.ring_slot_dispatch));
    touch_segment t ~off:r.req_off ~len;
    ms_slice_nofault `Read t ~off:r.req_off r.rbuf ~pos:0 ~len;
    let tenv = tenv t in
    let serve rd =
      if Codec.len64_le ~max:r.slots rd "slot count" <> k then
        Codec.fail "slot count" "differs from the staged count";
      let nth = ref 0 in
      let slot = ref 0 in
      let serve_slot ~ecall ~len ~session ~seq ~clear =
        let body = Codec.take rd len "payload" in
        Codec.skip rd (r.slot_bytes - len) "slot tail";
        let off = 8 + (!slot * r.stride) in
        Bytes.set_int64_le r.pbuf off (Int64.of_int ecall);
        if
          clear
          || r.channel.open_slot ~nth:!nth ~session ~seq ~ecall ~tag:r.tag body
        then begin
          let reply = (lookup_ecall t ecall) tenv body in
          let rlen = Bytes.length reply in
          if rlen > r.slot_bytes then
            fail
              "ring_dispatch: ECALL %d reply (%d bytes) exceeds the %d-byte slot"
              ecall rlen r.slot_bytes;
          Cycles.tick (clock t) (Cost_model.copy_cost c rlen);
          Bytes.set_int64_le r.pbuf (off + 8) (Int64.of_int rlen);
          if clear then begin
            Bytes.fill r.pbuf (off + 16) tag_bytes '\000';
            Bytes.blit reply 0 r.pbuf (off + reply_header_bytes) rlen
          end
          else begin
            r.channel.seal_slot ~nth:!nth ~session ~seq reply r.pbuf
              ~off:(off + 16);
            incr nth
          end
        end
        else begin
          Bytes.set_int64_le r.pbuf (off + 8) (Int64.of_int refused);
          Bytes.fill r.pbuf (off + 16) tag_bytes '\000'
        end
      in
      for s = 0 to k - 1 do
        slot := s;
        read_slot_header ~slot_bytes:r.slot_bytes ~tag:r.tag rd serve_slot
      done;
      Codec.skip rd (Bytes.length r.rbuf - len) "unused capacity"
    in
    (* The handlers run on the persistent in-enclave worker: enclave
       translation is current (so they can reach the demand-paged heap —
       a LibOS-backed service pages its VFS through it) but no TCS is
       taken and no EENTER is paid. *)
    Monitor.with_worker m t.enclave (fun () ->
        match Codec.decode "ring segment" serve r.rbuf with
        | Ok () -> ()
        | Error msg -> fail "ring_dispatch: %s" msg);
    Bytes.set_int64_le r.pbuf 0 (Int64.of_int k);
    touch_segment t ~off:r.rep_off ~len;
    ms_slice_nofault `Write t ~off:r.rep_off r.pbuf ~pos:0 ~len
  end

let ring_dispatch r =
  Fault.with_retries ~backoff:(backoff r.rt) (fun () -> run_ring_dispatch r)

(* Untrusted half, reply direction: pull the shard's reply image back
   into [ring_reply_buf] and pay the marshalling-out rate, then read the
   served count and every slot's length word with one bounded reader
   into [rlens].  Runs on the caller's (plane) clock; callers that must
   absorb injected marshalling faults wrap this in [Fault.with_retries]. *)
let ring_read_replies r =
  let t = r.rt in
  if r.staged > 0 then begin
    let len = 8 + (r.staged * r.stride) in
    Edge.charge_ms_out (cost t) (clock t) ~bytes:len;
    ms_raw_read_into t ~off:r.rep_off r.pbuf ~pos:0 ~len;
    let read rd =
      if Codec.len64_le ~max:r.slots rd "served count" <> r.staged then
        Codec.fail "served count" "differs from the staged count";
      for s = 0 to r.staged - 1 do
        Codec.skip rd 8 "ecall id";
        r.rlens.(s) <-
          (match Codec.int64_le rd "length" with
          | len when len = refused || (len >= 0 && len <= r.slot_bytes) -> len
          | _ -> Codec.fail "length" "out of range");
        Codec.skip rd (r.stride - 16) "reply"
      done;
      Codec.skip rd (Bytes.length r.pbuf - len) "unused capacity"
    in
    match Codec.decode "ring reply image" read r.pbuf with
    | Ok () -> ()
    | Error msg -> fail "ring replies: %s" msg
  end

let destroy t = Kmod.ioctl_destroy_enclave t.kmod t.proc t.enclave

let enclave t = t.enclave
let mrenclave t = t.enclave.Enclave.mrenclave
let mode t = t.config.mode
let stats t = t.enclave.Enclave.stats
let config t = t.config

(* Quote generation crosses into the TPM; transient TPM faults are
   retried with backoff (the chip keeps no partial state across an
   aborted command). *)
let gen_quote t ~report_data ~nonce =
  Fault.with_retries ~backoff:(backoff t) (fun () ->
      Monitor.gen_quote (monitor t) t.enclave ~report_data ~nonce)
