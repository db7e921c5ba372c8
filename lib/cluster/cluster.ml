open Hyperenclave_hw
open Hyperenclave_tee
module Serve = Hyperenclave_serve.Serve
module Verifier = Hyperenclave_attestation.Verifier
module Wire = Hyperenclave_attestation.Wire
module Invariants = Hyperenclave_monitor.Invariants
module Monitor = Hyperenclave_monitor.Monitor
module Tpm = Hyperenclave_tpm.Tpm
module Kx = Hyperenclave_crypto.Kx
module Authenc = Hyperenclave_crypto.Authenc
module Sha256 = Hyperenclave_crypto.Sha256
module Signature = Hyperenclave_crypto.Signature
module Fault = Hyperenclave_fault.Fault

type error =
  | Reject of Serve.reject
  | Attest_failed of Verifier.failure
  | Binding_mismatch
  | Unknown_offer
  | Transport_auth
  | Blob_malformed of string
  | Net_partition
  | Node_down of int
  | Migration_fault of string

let pp_error fmt = function
  | Reject r -> Format.fprintf fmt "plane reject: %a" Serve.pp_reject r
  | Attest_failed f ->
      Format.fprintf fmt "peer attestation failed: %a" Verifier.pp_failure f
  | Binding_mismatch ->
      Format.pp_print_string fmt
        "message does not bind this tenant / route / nonce"
  | Unknown_offer ->
      Format.pp_print_string fmt "no pending migration offer for this nonce"
  | Transport_auth ->
      Format.pp_print_string fmt "sealed migration blob failed authentication"
  | Blob_malformed m -> Format.fprintf fmt "malformed migration blob: %s" m
  | Net_partition ->
      Format.pp_print_string fmt "network dropped the message past retries"
  | Node_down n -> Format.fprintf fmt "node %d is down" n
  | Migration_fault m -> Format.fprintf fmt "migration fault: %s" m

type anchor = {
  a_golden : Verifier.golden;
  a_hapk : Signature.public_key;
  a_quoting : bytes;
}

type node = {
  n_id : int;
  n_platform : Platform.t;
  n_config : Serve.Node_config.t;
  mutable n_plane : Serve.t option;  (* None = powered off *)
  mutable n_version : int;
  n_tenants : (string, unit) Hashtbl.t;
      (* tenants built on the node's *current* plane *)
  n_anchor : anchor;
}

module Node = struct
  type t = node

  let id n = n.n_id
  let platform n = n.n_platform

  let plane n =
    match n.n_plane with
    | Some p -> p
    | None -> invalid_arg (Printf.sprintf "Cluster: node %d is down" n.n_id)

  let alive n = n.n_plane <> None
  let version n = n.n_version
end

type config = {
  nodes : int;
  seed : int64;
  serve : Serve.config;
  net : Netsim.config;
  vnodes : int;
  migration_retries : int;
}

let default_config =
  {
    nodes = 4;
    seed = 42L;
    serve = Serve.default_config;
    net = Netsim.default_config;
    vnodes = 16;
    migration_retries = 3;
  }

type t = {
  c_config : config;
  c_nodes : node array;
  c_net : Netsim.t;
  c_wire_clock : Cycles.t;
  c_rng : Rng.t;
  c_registry : (string, unit -> Backend.config) Hashtbl.t;
  c_order : string Queue.t;  (* registration order, for drains *)
  c_placement : (string, int) Hashtbl.t;
  c_offers : (string, Kx.secret) Hashtbl.t;
      (* "(dst):(tenant):(nonce hex)" -> the destination's pending
         ephemeral secret; burnt on install so each offer admits exactly
         one blob *)
  mutable c_migrations : int;
  mutable c_migration_cycles : int;
  mutable c_max_pause : int;
  mutable c_destroyed : bool;
}

let fault_site = "cluster.migrate"

let mk_node ~node_id ~serve platform =
  let nc = Serve.Node_config.v ~node_id ~platform serve in
  let plane = Serve.create_node ~platform nc in
  let anchor =
    {
      a_golden =
        Verifier.golden_of_boot_log
          ~ek_public:(Tpm.ek_public platform.Platform.tpm)
          (Monitor.boot_log platform.Platform.monitor);
      a_hapk = (Serve.identity plane).Serve.hapk;
      a_quoting = Serve.quoting_identity plane;
    }
  in
  {
    n_id = node_id;
    n_platform = platform;
    n_config = nc;
    n_plane = Some plane;
    n_version = 0;
    n_tenants = Hashtbl.create 4;
    n_anchor = anchor;
  }

let mk ~config ~platforms ~net_clock =
  let nodes =
    Array.of_list
      (List.mapi
         (fun i platform -> mk_node ~node_id:i ~serve:config.serve platform)
         platforms)
  in
  {
    c_config = config;
    c_nodes = nodes;
    c_net =
      Netsim.create ~clock:net_clock
        ~seed:(Int64.add config.seed 0xC0FFEEL)
        ~nodes:config.nodes config.net;
    c_wire_clock = net_clock;
    c_rng = Rng.create ~seed:(Int64.add config.seed 0x5EED5L);
    c_registry = Hashtbl.create 8;
    c_order = Queue.create ();
    c_placement = Hashtbl.create 8;
    c_offers = Hashtbl.create 8;
    c_migrations = 0;
    c_migration_cycles = 0;
    c_max_pause = 0;
    c_destroyed = false;
  }

let create config =
  if config.nodes <= 0 then
    invalid_arg "Cluster.create: nodes must be positive";
  if config.vnodes <= 0 then
    invalid_arg "Cluster.create: vnodes must be positive";
  if config.migration_retries < 0 then
    invalid_arg "Cluster.create: migration_retries must be non-negative";
  let platforms =
    List.init config.nodes (fun i ->
        (* Distinct derived seeds: every node gets its own TPM state,
           K_root and therefore hapk — siblings are honestly booted but
           cryptographically distinct machines. *)
        Platform.create
          ~seed:(Int64.add config.seed (Int64.of_int (0x9E3779B1 * (i + 1))))
          ())
  in
  let net_clock = Cycles.create () in
  mk ~config ~platforms ~net_clock

let singleton ~platform ?(serve = Serve.default_config) () =
  let config = { default_config with nodes = 1; serve } in
  mk ~config ~platforms:[ platform ] ~net_clock:platform.Platform.clock

let node t i =
  if i < 0 || i >= Array.length t.c_nodes then
    invalid_arg (Printf.sprintf "Cluster.node: no node %d" i);
  t.c_nodes.(i)

let nodes t = Array.to_list t.c_nodes
let plane t i = Node.plane (node t i)
let net t = t.c_net
let anchor t i = (node t i).n_anchor

(* ---------------------------------------------------------------------- *)
(* Consistent-hash placement                                              *)

let hash_point s = Sha256.to_int (Sha256.digest_string s)

let ring_owner t name =
  let points = ref [] in
  Array.iter
    (fun n ->
      if Node.alive n then
        for v = 0 to t.c_config.vnodes - 1 do
          points :=
            (hash_point (Printf.sprintf "node:%d:%d" n.n_id v), n.n_id)
            :: !points
        done)
    t.c_nodes;
  match List.sort compare !points with
  | [] -> None
  | sorted ->
      let h = hash_point ("tenant:" ^ name) in
      let rec succ = function
        | [] -> Some (snd (List.hd sorted)) (* wrap *)
        | (p, id) :: rest -> if p >= h then Some id else succ rest
      in
      succ sorted

let owner t ~tenant =
  if not (Hashtbl.mem t.c_registry tenant) then
    invalid_arg (Printf.sprintf "Cluster.owner: unknown tenant %s" tenant);
  match Hashtbl.find_opt t.c_placement tenant with
  | Some o -> o
  | None -> (
      match ring_owner t tenant with
      | Some o -> o
      | None -> invalid_arg "Cluster.owner: no live nodes")

let route t ~tenant =
  let o = owner t ~tenant in
  if Node.alive (node t o) then Ok o else Error (Node_down o)

(* Build the tenant's backend on [n]'s current plane if it is not
   there yet (migration destinations, failover rebuilds). *)
let ensure_tenant t (n : node) name =
  match Hashtbl.find_opt t.c_registry name with
  | None -> Error (Reject (Serve.Unknown_tenant name))
  | Some gen ->
      if not (Hashtbl.mem n.n_tenants name) then begin
        ignore (Serve.add_tenant (Node.plane n) ~name (gen ()) : Backend.t);
        Hashtbl.replace n.n_tenants name ()
      end;
      Ok ()

let add_tenant t ~name gen =
  if Hashtbl.mem t.c_registry name then
    invalid_arg (Printf.sprintf "Cluster.add_tenant: duplicate tenant %s" name);
  Hashtbl.replace t.c_registry name gen;
  Queue.push name t.c_order;
  let o =
    match ring_owner t name with
    | Some o -> o
    | None -> invalid_arg "Cluster.add_tenant: no live nodes"
  in
  Hashtbl.replace t.c_placement name o;
  (match ensure_tenant t (node t o) name with
  | Ok () -> ()
  | Error _ -> assert false (* just registered *));
  o

(* ---------------------------------------------------------------------- *)
(* Network helper                                                         *)

let send t ~src ~dst ~bytes =
  if Netsim.is_down t.c_net src then Error (Node_down src)
  else if Netsim.is_down t.c_net dst then Error (Node_down dst)
  else
    let rec go attempt =
      match Netsim.transfer t.c_net ~src ~dst ~bytes with
      | Netsim.Delivered _ -> Ok ()
      | Netsim.Dropped ->
          if attempt >= t.c_config.migration_retries then Error Net_partition
          else go (attempt + 1)
    in
    go 0

(* ---------------------------------------------------------------------- *)
(* Migration protocol                                                     *)

let offer_key ~dst ~tenant ~nonce =
  Printf.sprintf "%d:%s:%s" dst tenant (Sha256.to_hex nonce)

(* Length-prefixed transcript over every offer field: what the
   destination's quote binds, so a verified offer cannot be spliced onto
   another tenant, route or key share. *)
let offer_transcript ~tenant ~src ~dst ~nonce ~kx =
  Sha256.transcript "cluster-migrate-offer:"
    (List.map Bytes.of_string [ tenant; string_of_int src; string_of_int dst ]
    @ [ nonce; kx ])

let transport_key ~shared ~nonce =
  let ctx = Sha256.init () in
  Sha256.update_string ctx "cluster-migrate-key:";
  Sha256.update ctx shared;
  Sha256.update ctx nonce;
  Sha256.finalize ctx

let put_u64 buf n = Buffer.add_int64_le buf (Int64.of_int n)
let put_field = Codec.put_framed64

let blob_aad ~tenant ~src ~dst ~nonce =
  let buf = Buffer.create 64 in
  Buffer.add_string buf "cluster-migrate:v1";
  put_field buf (Bytes.of_string tenant);
  put_u64 buf src;
  put_u64 buf dst;
  Buffer.add_bytes buf nonce;
  Buffer.to_bytes buf

(* --- export blob wire form ------------------------------------------- *)

let blob_magic = "hemig1:"

let encode_export (x : Serve.tenant_export) =
  let buf = Buffer.create 512 in
  Buffer.add_string buf blob_magic;
  put_field buf (Bytes.of_string x.Serve.x_tenant);
  put_field buf x.Serve.x_identity;
  put_u64 buf (List.length x.Serve.x_sessions);
  List.iter
    (fun (s : Serve.session_export) ->
      put_u64 buf s.Serve.x_session;
      put_field buf s.Serve.x_key;
      put_u64 buf s.Serve.x_recv_seq;
      put_u64 buf s.Serve.x_pages;
      put_field buf s.Serve.x_state)
    x.Serve.x_sessions;
  put_u64 buf (List.length x.Serve.x_nonces);
  List.iter (fun n -> put_field buf (Bytes.of_string n)) x.Serve.x_nonces;
  Buffer.to_bytes buf

let decode_export =
  Codec.decode "export blob" (fun r ->
      let u64 = Codec.len64_le ~max:max_int r in
      let count = Codec.len64_le ~max:1_000_000 r in
      let field = Codec.framed64 r in
      Codec.literal r blob_magic "magic";
      let x_tenant = Bytes.to_string (field "tenant") in
      let x_identity = field "identity" in
      let x_sessions =
        List.init (count "session count") (fun _ ->
            let x_session = u64 "session id" in
            let x_key = field "key" in
            let x_recv_seq = u64 "recv_seq" in
            let x_pages = u64 "pages" in
            let x_state = field "state" in
            { Serve.x_session; x_key; x_recv_seq; x_pages; x_state })
      in
      let x_nonces =
        List.init (count "nonce count") (fun _ ->
            Bytes.to_string (field "nonce"))
      in
      { Serve.x_tenant; x_identity; x_sessions; x_nonces })

module Migrate = struct
  type offer = {
    o_tenant : string;
    o_src : int;
    o_dst : int;
    o_nonce : bytes;
    o_kx : Kx.public;
    o_quote : bytes;
  }

  type package = {
    p_tenant : string;
    p_src : int;
    p_dst : int;
    p_nonce : bytes;
    p_kx : Kx.public;
    p_blob : bytes;
  }

  let offer t ~tenant ~src ~dst =
    let dn = node t dst in
    if not (Node.alive dn) then Error (Node_down dst)
    else begin
      let o_nonce = Rng.bytes t.c_rng 16 in
      let secret, o_kx = Kx.generate t.c_rng in
      let report_data =
        offer_transcript ~tenant ~src ~dst ~nonce:o_nonce ~kx:o_kx
      in
      let quote =
        Serve.node_quote (Node.plane dn) ~report_data ~nonce:o_nonce
      in
      Hashtbl.replace t.c_offers (offer_key ~dst ~tenant ~nonce:o_nonce) secret;
      Ok
        {
          o_tenant = tenant;
          o_src = src;
          o_dst = dst;
          o_nonce;
          o_kx;
          o_quote = Wire.encode quote;
        }
    end

  let seal t (o : offer) =
    let sn = node t o.o_src in
    if not (Node.alive sn) then Error (Node_down o.o_src)
    else begin
      let dst_anchor = (node t o.o_dst).n_anchor in
      match Wire.decode o.o_quote with
      | Error m -> Error (Blob_malformed ("offer quote: " ^ m))
      | Ok quote -> (
          (* The full fleet trust check before any state leaves: the
             destination's golden boot, its pinned hapk (a sibling
             monitor must not be able to receive this tenant), and its
             pinned quoting enclave. *)
          match
            Verifier.verify ~golden:dst_anchor.a_golden
              ~policy:
                {
                  Verifier.expected_mrenclave = Some dst_anchor.a_quoting;
                  expected_mrsigner = None;
                  allow_debug = false;
                }
              ~expected_hapk:dst_anchor.a_hapk ~nonce:o.o_nonce quote
          with
          | Verifier.Error f -> Error (Attest_failed f)
          | Verifier.Ok report ->
              let expected =
                offer_transcript ~tenant:o.o_tenant ~src:o.o_src ~dst:o.o_dst
                  ~nonce:o.o_nonce ~kx:o.o_kx
              in
              let rd = report.Hyperenclave_monitor.Sgx_types.report_data in
              if
                not
                  (Bytes.length rd >= 32
                  && Bytes.equal expected (Bytes.sub rd 0 32))
              then Error Binding_mismatch
              else begin
                let backoff attempt =
                  Cycles.tick sn.n_platform.Platform.clock (1_000 * attempt)
                in
                match
                  Fault.with_retries ~backoff (fun () ->
                      Fault.point fault_site;
                      Serve.export_tenant (Node.plane sn) ~tenant:o.o_tenant)
                with
                | exception Fault.Injected { site; kind } ->
                    Error
                      (Migration_fault
                         (Printf.sprintf "injected %s fault at %s"
                            (Fault.kind_name kind) site))
                | Error r -> Error (Reject r)
                | Ok export -> (
                    let secret, p_kx = Kx.generate t.c_rng in
                    match Kx.shared secret o.o_kx with
                    | None -> Error Binding_mismatch
                    | Some shared ->
                        let key = transport_key ~shared ~nonce:o.o_nonce in
                        let aad =
                          blob_aad ~tenant:o.o_tenant ~src:o.o_src
                            ~dst:o.o_dst ~nonce:o.o_nonce
                        in
                        let sealed =
                          Authenc.seal ~key ~aad
                            ~nonce:(Rng.bytes t.c_rng 12)
                            (encode_export export)
                        in
                        Ok
                          {
                            p_tenant = o.o_tenant;
                            p_src = o.o_src;
                            p_dst = o.o_dst;
                            p_nonce = o.o_nonce;
                            p_kx;
                            p_blob = Authenc.encode sealed;
                          })
              end)
    end

  let install t (p : package) =
    let dn = node t p.p_dst in
    if not (Node.alive dn) then Error (Node_down p.p_dst)
    else begin
      let key_id = offer_key ~dst:p.p_dst ~tenant:p.p_tenant ~nonce:p.p_nonce in
      match Hashtbl.find_opt t.c_offers key_id with
      | None ->
          (* Never offered by this node, already consumed (replay), or
             the package was re-routed to a destination that did not
             make the offer. *)
          Error Unknown_offer
      | Some secret -> (
          Hashtbl.remove t.c_offers key_id;
          match Kx.shared secret p.p_kx with
          | None -> Error Binding_mismatch
          | Some shared -> (
              let key = transport_key ~shared ~nonce:p.p_nonce in
              match Authenc.decode p.p_blob with
              | Error m -> Error (Blob_malformed m)
              | Ok sealed -> (
                  let expected_aad =
                    blob_aad ~tenant:p.p_tenant ~src:p.p_src ~dst:p.p_dst
                      ~nonce:p.p_nonce
                  in
                  if not (Bytes.equal sealed.Authenc.aad expected_aad) then
                    Error Binding_mismatch
                  else
                    match Authenc.unseal ~key sealed with
                    | exception Authenc.Authentication_failure ->
                        Error Transport_auth
                    | plain -> (
                        match decode_export plain with
                        | Error m -> Error (Blob_malformed m)
                        | Ok export -> (
                            match ensure_tenant t dn p.p_tenant with
                            | Error _ as e -> e
                            | Ok () -> (
                                match
                                  Serve.import_tenant (Node.plane dn) export
                                with
                                | Error r -> Error (Reject r)
                                | Ok n -> Ok n))))))
    end
end

(* Rough wire sizes: enough for the network cost model, not a codec. *)
let offer_bytes (o : Migrate.offer) =
  String.length o.Migrate.o_tenant
  + Bytes.length o.Migrate.o_nonce
  + Bytes.length o.Migrate.o_kx
  + Bytes.length o.Migrate.o_quote
  + 24

let package_bytes (p : Migrate.package) =
  String.length p.Migrate.p_tenant
  + Bytes.length p.Migrate.p_nonce
  + Bytes.length p.Migrate.p_kx
  + Bytes.length p.Migrate.p_blob
  + 24

let migrate t ~tenant ~dst =
  let src = owner t ~tenant in
  if src = dst then Ok 0
  else if not (Node.alive (node t src)) then Error (Node_down src)
  else if not (Node.alive (node t dst)) then Error (Node_down dst)
  else begin
    (* The pause a client would observe: source-side export work,
       destination-side rebuild work, and every wire crossing.  The
       three clocks are distinct by construction, so the deltas sum. *)
    let src_clock = (node t src).n_platform.Platform.clock in
    let dst_clock = (node t dst).n_platform.Platform.clock in
    let s0 = Cycles.now src_clock in
    let d0 = Cycles.now dst_clock in
    let w0 = Cycles.now t.c_wire_clock in
    let ( let* ) r f = match r with Error e -> Error e | Ok v -> f v in
    let* o = Migrate.offer t ~tenant ~src ~dst in
    let* () = send t ~src:dst ~dst:src ~bytes:(offer_bytes o) in
    let* p = Migrate.seal t o in
    let* () = send t ~src ~dst ~bytes:(package_bytes p) in
    let* n = Migrate.install t p in
    let* _retired =
      match Serve.retire_tenant (plane t src) ~tenant ~to_node:dst with
      | Error r -> Error (Reject r)
      | Ok k -> Ok k
    in
    Hashtbl.replace t.c_placement tenant dst;
    let pause =
      Cycles.now src_clock - s0
      + (Cycles.now dst_clock - d0)
      + (Cycles.now t.c_wire_clock - w0)
    in
    t.c_migrations <- t.c_migrations + 1;
    t.c_migration_cycles <- t.c_migration_cycles + pause;
    if pause > t.c_max_pause then t.c_max_pause <- pause;
    Ok n
  end

(* ---------------------------------------------------------------------- *)
(* Fleet operations                                                       *)

let kill_node t i =
  let n = node t i in
  (match n.n_plane with
  | Some p ->
      Serve.destroy p;
      n.n_plane <- None
  | None -> ());
  Hashtbl.reset n.n_tenants;
  Netsim.set_down t.c_net i true

let revive_node t i =
  let n = node t i in
  if n.n_plane = None then begin
    n.n_plane <- Some (Serve.create_node ~platform:n.n_platform n.n_config);
    Netsim.set_down t.c_net i false
  end

let failover t ~tenant =
  let o = owner t ~tenant in
  if Node.alive (node t o) then Ok o
  else
    match ring_owner t tenant with
    | None -> Error (Node_down o)
    | Some dst -> (
        match ensure_tenant t (node t dst) tenant with
        | Error _ as e -> e
        | Ok () ->
            Hashtbl.replace t.c_placement tenant dst;
            Ok dst)

let resident_tenants t i =
  Hashtbl.fold
    (fun name o acc -> if o = i then name :: acc else acc)
    t.c_placement []
  |> List.sort compare

(* Ring-next live node other than [i] for draining. *)
let drain_target t i =
  let live =
    Array.to_list t.c_nodes
    |> List.filter (fun n -> Node.alive n && n.n_id <> i)
    |> List.map (fun n -> n.n_id)
  in
  match live with
  | [] -> None
  | ids -> Some (List.nth ids (i mod List.length ids))

let upgrade_node t i =
  let n = node t i in
  if not (Node.alive n) then Error (Node_down i)
  else begin
    let residents = resident_tenants t i in
    let rec drain acc = function
      | [] -> Ok (List.rev acc)
      | tenant :: rest -> (
          match drain_target t i with
          | None ->
              if residents = [] then Ok (List.rev acc)
              else Error (Node_down i) (* nowhere to drain to *)
          | Some dst -> (
              match migrate t ~tenant ~dst with
              | Error e -> Error e
              | Ok _ -> drain (tenant :: acc) rest))
    in
    match drain [] residents with
    | Error e -> Error e
    | Ok drained -> (
        (* The upgrade proper: tear the plane down and bring up the new
           build under the same node identity. *)
        Serve.destroy (Node.plane n);
        Hashtbl.reset n.n_tenants;
        n.n_plane <- Some (Serve.create_node ~platform:n.n_platform n.n_config);
        n.n_version <- n.n_version + 1;
        let rec come_home = function
          | [] -> Ok ()
          | tenant :: rest -> (
              match migrate t ~tenant ~dst:i with
              | Error e -> Error e
              | Ok _ -> come_home rest)
        in
        come_home drained)
  end

let rolling_upgrade t =
  let rec go i =
    if i >= Array.length t.c_nodes then Ok ()
    else
      match upgrade_node t i with Error e -> Error e | Ok () -> go (i + 1)
  in
  go 0

let check t =
  Array.to_list t.c_nodes
  |> List.filter Node.alive
  |> List.map (fun n ->
         (n.n_id, Invariants.check n.n_platform.Platform.monitor))

type stats = { migrations : int; migration_cycles : int; max_pause : int }

let stats t =
  {
    migrations = t.c_migrations;
    migration_cycles = t.c_migration_cycles;
    max_pause = t.c_max_pause;
  }

let destroy t =
  if not t.c_destroyed then begin
    t.c_destroyed <- true;
    Array.iter
      (fun n ->
        match n.n_plane with
        | Some p ->
            Serve.destroy p;
            n.n_plane <- None
        | None -> ())
      t.c_nodes;
    Hashtbl.reset t.c_registry;
    Hashtbl.reset t.c_placement;
    Hashtbl.reset t.c_offers
  end

(* ---------------------------------------------------------------------- *)
(* Clients                                                                *)

module Client = struct
  type cluster = t

  type t = {
    cl : cluster;
    tenant : string;
    rng : Rng.t;
    policy : Verifier.policy;
    mutable sc : Serve.Client.t;
    mutable node : int;
    mutable open_ : bool;
  }

  let default_policy =
    {
      Verifier.expected_mrenclave = None;
      expected_mrsigner = None;
      allow_debug = false;
    }

  let lb_send c ~bytes = send c.cl ~src:Netsim.front ~dst:c.node ~bytes

  let lb_recv c ~bytes = send c.cl ~src:c.node ~dst:Netsim.front ~bytes

  let hello_bytes = 16 + 32

  let accept_bytes (a : Serve.accept) =
    Bytes.length a.Serve.quote_wire
    + Bytes.length a.Serve.tenant_identity
    + 32 + 16

  let request_bytes (r : Serve.request) =
    Bytes.length r.Serve.envelope.Authenc.ciphertext + 70

  let reply_bytes (r : Serve.reply) =
    (match r.Serve.r_result with
    | Ok sealed -> Bytes.length sealed.Authenc.ciphertext
    | Error _ -> 0)
    + 70

  (* One handshake attempt against [c.node]; chases Tenant_migrated
     forwards by re-pinning the new owner's anchor (bounded by fleet
     size — forwards cannot cycle without a migration in between). *)
  let rec connect_at c hops =
    if hops > Array.length c.cl.c_nodes then Error (Reject (Serve.Unknown_tenant c.tenant))
    else if not (Node.alive (node c.cl c.node)) then Error (Node_down c.node)
    else begin
      let a = anchor c.cl c.node in
      c.sc <-
        Serve.Client.create ~rng:c.rng ~golden:a.a_golden ~policy:c.policy
          ~expected_hapk:a.a_hapk ();
      let hello = Serve.Client.hello c.sc in
      match lb_send c ~bytes:hello_bytes with
      | Error e -> Error e
      | Ok () -> (
          match Serve.handshake (plane c.cl c.node) ~tenant:c.tenant hello with
          | Error (Serve.Tenant_migrated { to_node; _ }) ->
              c.node <- to_node;
              connect_at c (hops + 1)
          | Error r -> Error (Reject r)
          | Ok accept -> (
              match lb_recv c ~bytes:(accept_bytes accept) with
              | Error e -> Error e
              | Ok () -> (
                  match Serve.Client.establish c.sc accept with
                  | Error r -> Error (Reject r)
                  | Ok () ->
                      c.open_ <- true;
                      Ok ())))
    end

  let connect cl ~rng ~tenant ?(policy = default_policy) () =
    match route cl ~tenant with
    | Error e -> Error e
    | Ok owner ->
        let a = anchor cl owner in
        let c =
          {
            cl;
            tenant;
            rng;
            policy;
            sc =
              Serve.Client.create ~rng ~golden:a.a_golden ~policy
                ~expected_hapk:a.a_hapk ();
            node = owner;
            open_ = false;
          }
        in
        (match connect_at c 0 with Error e -> Error e | Ok () -> Ok c)

  let node_id c = c.node
  let session_id c = Serve.Client.session_id c.sc

  (* Submit one sealed request, chasing typed migration forwards: the
     same envelope stays valid on the new owner because the session's
     key and sequence cursor moved with it. *)
  let rec submit_chase c (req : Serve.request) hops =
    if hops > Array.length c.cl.c_nodes then
      Error (Reject (Serve.Session_migrated { to_node = c.node }))
    else
      match lb_send c ~bytes:(request_bytes req) with
      | Error e -> Error e
      | Ok () -> (
          match Serve.submit (plane c.cl c.node) req with
          | Error (Serve.Session_migrated { to_node }) ->
              c.node <- to_node;
              submit_chase c req (hops + 1)
          | Error (Serve.Tenant_migrated { to_node; _ }) ->
              c.node <- to_node;
              submit_chase c req (hops + 1)
          | Error r -> Ok (Error r)
          | Ok () -> Ok (Ok ()))

  let call c reqs =
    if not c.open_ then Error (Reject (Serve.Session_fault "client not connected"))
    else begin
      let rec submit_all acc = function
        | [] -> Ok (List.rev acc)
        | (ecall, data) :: rest -> (
            let req = Serve.Client.request c.sc ~ecall data in
            match submit_chase c req 0 with
            | Error e -> Error e
            | Ok admitted -> submit_all ((req.Serve.seq, admitted) :: acc) rest)
      in
      match submit_all [] reqs with
      | Error e -> Error e
      | Ok submitted -> (
          let replies = Serve.flush (plane c.cl c.node) in
          let mine = session_id c in
          let rec read acc = function
            | [] -> Ok (List.rev acc)
            | (seq, admitted) :: rest -> (
                match admitted with
                | Error r -> read (Error r :: acc) rest
                | Ok () -> (
                    match
                      List.find_opt
                        (fun (r : Serve.reply) ->
                          r.Serve.r_session_id = mine && r.Serve.r_seq = seq)
                        replies
                    with
                    | None ->
                        read
                          (Error
                             (Serve.Session_fault
                                "no reply for admitted request")
                          :: acc)
                          rest
                    | Some reply -> (
                        match lb_recv c ~bytes:(reply_bytes reply) with
                        | Error e -> Error e
                        | Ok () ->
                            read (Serve.Client.read_reply c.sc reply :: acc) rest)))
          in
          read [] submitted)
    end

  let reconnect c =
    c.open_ <- false;
    match route c.cl ~tenant:c.tenant with
    | Error e -> Error e
    | Ok owner ->
        c.node <- owner;
        connect_at c 0

  let close c =
    if c.open_ then begin
      c.open_ <- false;
      if Node.alive (node c.cl c.node) then
        match Serve.close_session (plane c.cl c.node) ~session:(session_id c) with
        | Ok () | Error _ -> ()
    end
end
