(* What every workload gives the measuring loop in [Main], and the
   counters the workloads keep for the per-layer report. *)

open Hyperenclave

(* Layers the benchmark wraps in spans: its own calls into the system. *)
let l_call = Trace.layer "call"
let l_seal = Trace.layer "client.seal"
let l_submit = Trace.layer "serve.submit"
let l_flush = Trace.layer "serve.flush"
let l_open = Trace.layer "client.open"
let l_cluster_call = Trace.layer "cluster.call"
let l_connect = Trace.layer "cluster.connect"
let l_migrate = Trace.layer "cluster.migrate"

let service_kinds = [ Services.Resp_kv; Services.Kvdb; Services.Httpd ]

let l_service =
  let ids =
    List.map
      (fun k -> (k, Trace.layer ("services." ^ Services.kind_name k)))
      service_kinds
  in
  fun kind -> List.assoc kind ids

type outcome = { attempted : int; verified : int }

type instance = {
  nodes : (Platform.t * Serve.t) array;
      (** read-only views: clocks, scheduler stats, monitor telemetry *)
  net : Netsim.t option;
  cluster : Cluster.t option;
  prepare : int -> unit -> outcome;
      (** [prepare i] generates call [i]'s inputs (untimed) and returns
          the closed-loop call itself *)
  between : int -> unit;
      (** scheduled fleet work after call [i] (live migration) *)
  destroy : unit -> unit;
}

(* --- counters filled by the workloads ------------------------------------ *)

type counters = {
  mutable rejects : int;  (** [Serve.submit] refusals *)
  mutable mismatches : int;  (** replies whose content was wrong *)
  mutable reroutes : int;  (** calls whose client chased a forward *)
  mutable migrations_refused : int;  (** typed import refusals *)
  mutable handshakes : int;  (** direct handshakes made in set-up *)
  mutable handshake_cycles : int;  (** [Serve.handshake] platform cycles *)
  mutable establish_ns : int;  (** [Serve.Client.establish] host time *)
  (* [Mem_sim] statistics gathered around each service request *)
  mutable llc_accesses : int;
  mutable llc_misses : int;
  mutable tlb_lookups : int;
  mutable tlb_hits : int;
  mutable swaps : int;
  service_reqs : (Services.kind * int ref) list;
  mutable input_hash : int;  (** digest of every generated input *)
}

let counters =
  {
    rejects = 0;
    mismatches = 0;
    reroutes = 0;
    migrations_refused = 0;
    handshakes = 0;
    handshake_cycles = 0;
    establish_ns = 0;
    llc_accesses = 0;
    llc_misses = 0;
    tlb_lookups = 0;
    tlb_hits = 0;
    swaps = 0;
    service_reqs = List.map (fun k -> (k, ref 0)) service_kinds;
    input_hash = 0;
  }

let reset_counters () =
  counters.rejects <- 0;
  counters.mismatches <- 0;
  counters.reroutes <- 0;
  counters.migrations_refused <- 0;
  counters.llc_accesses <- 0;
  counters.llc_misses <- 0;
  counters.tlb_lookups <- 0;
  counters.tlb_hits <- 0;
  counters.swaps <- 0;
  counters.input_hash <- 0;
  List.iter (fun (_, r) -> r := 0) counters.service_reqs

let copy_counters () =
  {
    counters with
    service_reqs = List.map (fun (k, n) -> (k, ref !n)) counters.service_reqs;
  }

let reset_setup_counters () =
  counters.handshakes <- 0;
  counters.handshake_cycles <- 0;
  counters.establish_ns <- 0

(* At most a few mismatches are printed; all of them are counted. *)
let mismatch fmt =
  counters.mismatches <- counters.mismatches + 1;
  if counters.mismatches <= 5 then Printf.eprintf ("perfbench: mismatch: " ^^ fmt ^^ "\n%!")
  else Printf.ifprintf stderr fmt

let fail fmt = Printf.ksprintf failwith fmt

(* --- shared set-up helpers ------------------------------------------------ *)

let golden_of (p : Platform.t) =
  Verifier.golden_of_boot_log
    ~ek_public:(Tpm.ek_public p.Platform.tpm)
    (Monitor.boot_log p.Platform.monitor)

let serve_config ~cores =
  {
    Serve.default_config with
    Serve.sched =
      { Sched.default_config with Sched.cores; batch = 16; drop_on_error = true };
    max_queue = 256;
  }

(* An attested session to one tenant of a single plane: the handshake
   and the client's verification are timed for the handshake layer. *)
let connect_direct plane (p : Platform.t) ~tenant ~identity ~rng_seed =
  let client =
    Serve.Client.create
      ~rng:(Rng.create ~seed:rng_seed)
      ~golden:(golden_of p)
      ~policy:
        {
          Verifier.expected_mrenclave = Some identity;
          expected_mrsigner = None;
          allow_debug = false;
        }
      ~expected_tenant:identity ()
  in
  let c0 = Cycles.now p.Platform.clock in
  let accept =
    match Serve.handshake plane ~tenant (Serve.Client.hello client) with
    | Ok a -> a
    | Error r -> fail "handshake %s: %s" tenant (Serve.reject_name r)
  in
  let c1 = Cycles.now p.Platform.clock in
  let t0 = Trace.now_ns () in
  (match Serve.Client.establish client accept with
  | Ok () -> ()
  | Error r -> fail "establish %s: %s" tenant (Serve.reject_name r));
  let t1 = Trace.now_ns () in
  counters.handshakes <- counters.handshakes + 1;
  counters.handshake_cycles <- counters.handshake_cycles + c1 - c0;
  counters.establish_ns <- counters.establish_ns + t1 - t0;
  client

(* Record a generated input, so that the self-test can tell whether a
   seed changed them. *)
let note_input b =
  counters.input_hash <- (counters.input_hash * 31) + Hashtbl.hash b;
  b

(* Payload bytes drawn from the workload seed; lengths vary uniformly
   around [mean] by [spread] either way. *)
let payload rng ~mean ~spread =
  let len = mean - spread + Rng.int rng ((2 * spread) + 1) in
  note_input (Rng.bytes rng len)
