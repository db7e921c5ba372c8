(* PR 10 tentpole bench: the multi-monitor fleet.  Its headline
   numbers feed the perf gate (the row list in perf_smoke.ml, baselines
   in PERF_BASELINE.json):

   - cluster_rps_4x8: aggregate attested req/s over 4 nodes x 8 cores,
     16 tenants sharded by the consistent-hash LB, every request sealed
     under a per-session AEAD key and charged for its wire crossing;
   - scaling 1 -> 2 -> 4 nodes at fixed offered load: the gain per
     node doubling (nodes have independent clocks, so the fleet rate is
     total served over the longest node's critical path);
   - cluster_p99_upgrade_cycles: p99 per-request simulated cost while a
     rolling monitor upgrade live-migrates every tenant out and home
     again under traffic;
   - cluster_pause_cycles: worst single live-migration pause (source
     export + wire + destination rebuild). *)

open Hyperenclave

let clock_hz = 2.2e9
let cores = 8
let tenants = 16
let rounds = 3
let batch = 8

let tenant_gen () =
  {
    (Backend.config (Backend.Hyperenclave Sgx_types.GU)) with
    Backend.handlers = [ (1, fun _env input -> input) ];
  }

let build ~nodes ~seed =
  let cl =
    Cluster.create
      {
        Cluster.default_config with
        Cluster.nodes;
        seed;
        vnodes = 64;
        serve =
          {
            Serve.default_config with
            Serve.sched =
              {
                Sched.default_config with
                Sched.cores;
                batch = 16;
                drop_on_error = true;
              };
            max_queue = 256;
          };
      }
  in
  let names = List.init tenants (Printf.sprintf "tenant-%d") in
  List.iter (fun name -> ignore (Cluster.add_tenant cl ~name tenant_gen : int)) names;
  let clients =
    List.mapi
      (fun i name ->
        match
          Cluster.Client.connect cl
            ~rng:(Rng.create ~seed:(Int64.add seed (Int64.of_int (100 + i))))
            ~tenant:name ()
        with
        | Ok c -> c
        | Error e ->
            Format.eprintf "bench_cluster: connect %s failed: %a@." name
              Cluster.pp_error e;
            exit 2)
      names
  in
  (cl, clients)

let payload = Bytes.make 64 'x'

(* One batch per client; any rejected request is fatal.  Returns the
   per-call simulated cost samples (all clocks: node work + wire). *)
let drive_round clients =
  List.map
    (fun c ->
      let t0 = Cycles.total_ticked () in
      (match Cluster.Client.call c (List.init batch (fun _ -> (1, payload))) with
      | Ok replies ->
          List.iter
            (function
              | Ok _ -> ()
              | Error r ->
                  Format.eprintf "bench_cluster: request rejected: %a@."
                    Serve.pp_reject r;
                  exit 2)
            replies
      | Error e ->
          Format.eprintf "bench_cluster: call failed: %a@." Cluster.pp_error e;
          exit 2);
      (Cycles.total_ticked () - t0) / batch)
    clients

let critical_paths cl =
  List.map
    (fun n -> Bench_serve.critical_path (Cluster.Node.platform n) (Cluster.Node.plane n))
    (Cluster.nodes cl)

(* Aggregate attested rate: total scheduler throughput over the longest
   node critical path since [crit0] (the nodes' [critical_paths] when
   serving began) — nodes run on independent simulated clocks, so the
   fleet finishes when its most loaded node does. *)
let fleet_rate cl ~crit0 =
  let served =
    List.fold_left
      (fun acc n ->
        acc + (Serve.sched_stats (Cluster.Node.plane n)).Sched.total_requests)
      0 (Cluster.nodes cl)
  in
  let crit =
    List.fold_left2 (fun acc c0 c1 -> max acc (c1 - c0)) 1 crit0 (critical_paths cl)
  in
  Bench_serve.rate ~served ~cycles:crit

let measure_rate ~nodes ~seed =
  let cl, clients = build ~nodes ~seed in
  let crit0 = critical_paths cl in
  for _ = 1 to rounds do
    ignore (drive_round clients : int list)
  done;
  let rate = fleet_rate cl ~crit0 in
  List.iter Cluster.Client.close clients;
  Cluster.destroy cl;
  rate

(* p99 per-request cost while a rolling upgrade migrates every tenant
   out and back under live traffic, plus the worst migration pause. *)
let measure_upgrade ~seed =
  let cl, clients = build ~nodes:4 ~seed in
  let samples = ref (drive_round clients) in
  List.iter
    (fun n ->
      (match Cluster.upgrade_node cl (Cluster.Node.id n) with
      | Ok () -> ()
      | Error e ->
          Format.eprintf "bench_cluster: upgrade failed: %a@." Cluster.pp_error e;
          exit 2);
      samples := drive_round clients @ !samples)
    (Cluster.nodes cl);
  let sorted = List.sort compare !samples in
  let n = List.length sorted in
  let p99 = List.nth sorted (min (n - 1) (n * 99 / 100)) in
  let stats = Cluster.stats cl in
  List.iter Cluster.Client.close clients;
  Cluster.destroy cl;
  (p99, stats.Cluster.max_pause, stats.Cluster.migrations)

type summary = {
  rps_by_nodes : (int * float) list;
  rps_4x8 : float;
  scaling_1_2 : float;
  scaling_2_4 : float;
  p99_upgrade : int;
  pause : int;
  upgrade_migrations : int;
}

let summarize () =
  let rps_by_nodes =
    List.map (fun nodes -> (nodes, measure_rate ~nodes ~seed:1001L)) [ 1; 2; 4 ]
  in
  let rate n = List.assoc n rps_by_nodes in
  let p99_upgrade, pause, upgrade_migrations = measure_upgrade ~seed:1002L in
  {
    rps_by_nodes;
    rps_4x8 = rate 4;
    scaling_1_2 = rate 2 /. rate 1;
    scaling_2_4 = rate 4 /. rate 2;
    p99_upgrade;
    pause;
    upgrade_migrations;
  }

let run () =
  Util.set_experiment "cluster";
  Util.banner "Cluster"
    "Fleet-scale attested serving: 4 monitors x 8 cores, 16 tenants \
     behind the consistent-hash LB, live migration and rolling \
     upgrades under traffic on the deterministic network.";
  let s = summarize () in
  Printf.printf "\n  cross-node scaling (fixed offered load, %d tenants):\n\n"
    tenants;
  Util.print_table
    ~columns:[ "nodes"; "attested req/s"; "scaling vs half" ]
    (List.map
       (fun (nodes, rps) ->
         [
           string_of_int nodes;
           Printf.sprintf "%.0f" rps;
           (if nodes = 1 then "-"
            else
              Printf.sprintf "%.2fx"
                (rps /. List.assoc (nodes / 2) s.rps_by_nodes));
         ])
       s.rps_by_nodes);
  Printf.printf
    "\n  rolling upgrade: %d live migrations, p99 request cost %d cycles,\n\
    \  worst migration pause %d cycles (%.1f us at %.1f GHz)\n"
    s.upgrade_migrations s.p99_upgrade s.pause
    (float_of_int s.pause /. clock_hz *. 1e6)
    (clock_hz /. 1e9);
  Printf.printf "\n  headline: %.0f attested req/s at 4 nodes x %d cores\n"
    s.rps_4x8 cores

(* Fast sanity slice for @serve_smoke: two nodes, live migration under
   an open session, everything served. *)
let smoke () =
  let cl, clients = build ~nodes:2 ~seed:1003L in
  ignore (drive_round clients : int list);
  let victim = "tenant-0" in
  let dst = 1 - Cluster.owner cl ~tenant:victim in
  (match Cluster.migrate cl ~tenant:victim ~dst with
  | Ok _ -> ()
  | Error e ->
      Format.eprintf "cluster_smoke: FAIL — migrate: %a@." Cluster.pp_error e;
      exit 1);
  ignore (drive_round clients : int list);
  let bad =
    List.concat_map
      (fun (node, findings) ->
        List.map (fun _ -> node) findings)
      (Cluster.check cl)
  in
  if bad <> [] then begin
    Printf.eprintf "cluster_smoke: FAIL — invariant violations on nodes %s\n"
      (String.concat "," (List.map string_of_int bad));
    exit 1
  end;
  List.iter Cluster.Client.close clients;
  Cluster.destroy cl;
  Printf.printf "cluster_smoke: OK — %d tenants served across migration\n"
    tenants
