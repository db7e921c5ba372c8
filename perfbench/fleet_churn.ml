(* fleet_churn: 4 nodes x 8 simulated cores, 16 echo tenants behind the
   consistent-hash load balancer on the default (jittered, lossless)
   network.  Calls rotate among the 16 clients; each call is one
   [Cluster.Client.call] of 8 requests (64 B on average).  Each client
   closes and reconnects — a fresh attested handshake over the wire —
   on every 8th of its calls, at a phase drawn from the seed.  After
   every 64 calls one tenant, in a rotation whose start is drawn from
   the seed, live-migrates to the next node, so its client's next call
   chases a forward.

   A migration the destination refuses with a typed [Import_conflict]
   leaves the tenant on its source and is counted, not fatal: after a
   node imports a session it allocates new session ids above the
   imported one, inside the source node's id range, so long runs of
   churn plus migration produce live id collisions that a later import
   must refuse. *)

open Hyperenclave
open Workload

let nodes = 4
let cores = 8
let tenants = 16
let per_call = 8
let reconnect_every = 8
let migrate_every = 64
let ecall = 1

let tenant_config () =
  {
    (Backend.config (Backend.Hyperenclave Sgx_types.GU)) with
    Backend.handlers = [ (ecall, fun _env input -> input) ];
  }

let setup ~seed =
  let cl =
    Cluster.create
      {
        Cluster.default_config with
        Cluster.nodes;
        seed = 1001L;
        vnodes = 64;
        serve = serve_config ~cores;
      }
  in
  let names = Array.init tenants (Printf.sprintf "tenant-%d") in
  Array.iter (fun name -> ignore (Cluster.add_tenant cl ~name tenant_config : int)) names;
  let clients =
    Array.mapi
      (fun i name ->
        match
          Cluster.Client.connect cl
            ~rng:(Rng.create ~seed:(Int64.of_int (5000 + i)))
            ~tenant:name ()
        with
        | Ok c -> c
        | Error e -> fail "connect %s: %s" name (Format.asprintf "%a" Cluster.pp_error e))
      names
  in
  let rng = Rng.create ~seed in
  let phase = Array.init tenants (fun _ -> Rng.int rng reconnect_every) in
  let rotation = Rng.int rng tenants in
  let call c client ~reconnect payloads () =
    Trace.span l_call (fun () ->
        if reconnect then
          Trace.span l_connect (fun () ->
              Cluster.Client.close client;
              match Cluster.Client.reconnect client with
              | Ok () -> ()
              | Error e ->
                  fail "reconnect tenant-%d: %s" c
                    (Format.asprintf "%a" Cluster.pp_error e));
        let before = Cluster.Client.node_id client in
        let result =
          Trace.span l_cluster_call (fun () ->
              Cluster.Client.call client
                (Array.to_list (Array.map (fun p -> (ecall, p)) payloads)))
        in
        if Cluster.Client.node_id client <> before then
          counters.reroutes <- counters.reroutes + 1;
        let verified =
          match result with
          | Error e ->
              mismatch "tenant-%d: call failed: %s" c
                (Format.asprintf "%a" Cluster.pp_error e);
              0
          | Ok replies ->
              if List.length replies <> per_call then begin
                mismatch "tenant-%d: %d replies for %d requests" c
                  (List.length replies) per_call;
                0
              end
              else
                List.fold_left
                  (fun (j, acc) reply ->
                    match reply with
                    | Ok body when Bytes.equal body payloads.(j) -> (j + 1, acc + 1)
                    | Ok _ ->
                        mismatch "tenant-%d request %d: reply differs from payload" c j;
                        (j + 1, acc)
                    | Error rej ->
                        mismatch "tenant-%d request %d: %s" c j (Serve.reject_name rej);
                        (j + 1, acc))
                  (0, 0) replies
                |> snd
        in
        { attempted = per_call; verified })
  in
  let migrations = ref 0 in
  let between i =
    if (i + 1) mod migrate_every = 0 then begin
      let tenant = names.((rotation + !migrations) mod tenants) in
      incr migrations;
      let dst = (Cluster.owner cl ~tenant + 1) mod nodes in
      Trace.span l_migrate (fun () ->
          match Cluster.migrate cl ~tenant ~dst with
          | Ok _ -> ()
          | Error (Cluster.Reject (Serve.Import_conflict why)) ->
              (* The destination refused the import and the tenant stays
                 where it is; its clients are unaffected.  Counted, and
                 the first refusal of a window is printed. *)
              counters.migrations_refused <- counters.migrations_refused + 1;
              if counters.migrations_refused = 1 then
                Printf.eprintf "perfbench: migration of %s to node %d refused: %s\n%!"
                  tenant dst why
          | Error e ->
              fail "migrate %s to node %d: %s" tenant dst
                (Format.asprintf "%a" Cluster.pp_error e))
    end
  in
  {
    nodes =
      Array.of_list
        (List.map
           (fun n -> (Cluster.Node.platform n, Cluster.Node.plane n))
           (Cluster.nodes cl));
    net = Some (Cluster.net cl);
    cluster = Some cl;
    prepare =
      (fun i ->
        let c = i mod tenants in
        let k = i / tenants in
        call c clients.(c)
          ~reconnect:(k > 0 && k mod reconnect_every = phase.(c))
          (Array.init per_call (fun _ -> payload rng ~mean:64 ~spread:16)));
    between;
    destroy =
      (fun () ->
        Array.iter Cluster.Client.close clients;
        Cluster.destroy cl);
  }
