(* libos_mix: one node, 2 simulated cores, three LibOS service tenants —
   resp_kv (zipfian YCSB-A, SETs journaled to the AOF), kvdb (YCSB-A plus
   1-in-8 range scans over 16384 1 KB records, twice the modelled LLC)
   and httpd (GETs of a 16 KB page).  Calls rotate among the tenants,
   one tenant's batch of 8 requests per call.

   Every reply is checked against what the benchmark expects: a resp_kv
   GET must return the last value SET for that key (a shadow map kept
   here), a kvdb SELECT must return [Ycsb.record_value] for its key and a
   scan the exact row count, an httpd GET must report the page size. *)

open Hyperenclave
open Workload
module Ycsb = Workloads.Ycsb
module Resp_kv = Workloads.Resp_kv

let cores = 2
let per_call = 8
let resp_records = 4096
let kvdb_records = 16384
let scan_max = 8
let page_bytes = 16384
let page_path = "/index.html"
let value_bytes = 32

(* Spans and [Mem_sim] statistics around every service request; the
   untraced run calls the handler bare. *)
let wrap kind (id, (h : Backend.handler)) =
  if id <> Services.ecall_request then (id, h)
  else
    let served = List.assoc kind counters.service_reqs in
    let layer = l_service kind in
    ( id,
      fun (env : Backend.env) input ->
        if not !Trace.enabled then h env input
        else begin
          let mem = env.Backend.mem in
          let a0, m0 = Mem_sim.cache_stats mem in
          let l0, h0 = Mem_sim.tlb_stats mem in
          let s0 = Mem_sim.swaps mem in
          let reply = Trace.span layer (fun () -> h env input) in
          let a1, m1 = Mem_sim.cache_stats mem in
          let l1, h1 = Mem_sim.tlb_stats mem in
          counters.llc_accesses <- counters.llc_accesses + a1 - a0;
          counters.llc_misses <- counters.llc_misses + m1 - m0;
          counters.tlb_lookups <- counters.tlb_lookups + l1 - l0;
          counters.tlb_hits <- counters.tlb_hits + h1 - h0;
          counters.swaps <- counters.swaps + Mem_sim.swaps mem - s0;
          incr served;
          reply
        end )

let admin (backend : Backend.t) data =
  ignore
    (backend.Backend.call ~id:Services.ecall_admin ~data ~direction:Edge.In_out ()
      : bytes)

(* A request and the exact reply it must produce. *)
type expect = { req : bytes; want : string }

let setup ~seed =
  let p = Platform.create ~seed:981L () in
  let plane =
    Serve.create_node ~platform:p
      (Serve.Node_config.v ~platform:p (serve_config ~cores))
  in
  let tenants =
    Array.of_list
      (List.mapi
         (fun i kind ->
           let name = Services.kind_name kind in
           let backend =
             Serve.add_tenant plane ~name
               {
                 (Services.backend_config kind) with
                 Backend.handlers = List.map (wrap kind) (Services.handlers kind);
               }
           in
           (match kind with
           | Services.Resp_kv -> admin backend (Services.load_request ~records:resp_records)
           | Services.Kvdb -> admin backend (Services.load_request ~records:kvdb_records)
           | Services.Httpd ->
               admin backend (Services.page_request ~path:page_path ~bytes:page_bytes));
           ( kind,
             connect_direct plane p ~tenant:name
               ~identity:(Option.get backend.Backend.identity)
               ~rng_seed:(Int64.of_int (4000 + i)) ))
         service_kinds)
  in
  let rng = Rng.create ~seed in
  let resp_gen = Ycsb.create ~rng:(Rng.split rng) ~records:resp_records () in
  let kvdb_gen = Ycsb.create ~rng:(Rng.split rng) ~records:kvdb_records () in
  let shadow = Hashtbl.create resp_records in
  let resp_value key =
    match Hashtbl.find_opt shadow key with
    | Some v -> v
    | None -> Resp_kv.value_for key
  in
  let kvdb_ops = ref 0 in
  let next kind =
    match kind with
    | Services.Resp_kv -> (
        match Ycsb.next_op_a resp_gen with
        | Ycsb.Update key ->
            let v = String.init value_bytes (fun _ -> Char.chr (97 + Rng.int rng 26)) in
            Hashtbl.replace shadow key v;
            {
              req = Resp_kv.encode_command [ "SET"; Resp_kv.key_name key; v ];
              want = "+OK";
            }
        | Ycsb.Read key | Ycsb.Scan (key, _) ->
            let v = resp_value key in
            {
              req = Resp_kv.encode_command [ "GET"; Resp_kv.key_name key ];
              want = Printf.sprintf "$%d\n%s" (String.length v) v;
            })
    | Services.Kvdb ->
        incr kvdb_ops;
        let op =
          if !kvdb_ops mod 8 = 0 then Ycsb.next_scan kvdb_gen ~max_len:scan_max ()
          else Ycsb.next_op_a kvdb_gen
        in
        let want =
          match op with
          | Ycsb.Read key ->
              "+" ^ Bytes.to_string (Ycsb.record_value ~key ~size:value_bytes)
          | Ycsb.Update _ -> "+ok"
          | Ycsb.Scan (key, n) -> Printf.sprintf "+%d rows" (min n (kvdb_records - key))
        in
        { req = Services.request_of_op Services.Kvdb op; want }
    | Services.Httpd ->
        {
          req = Services.http_request ~path:page_path;
          want = Printf.sprintf "HTTP/1.1 200 OK bytes=%d" page_bytes;
        }
  in
  let call kind client (batch : expect array) () =
    Trace.span l_call (fun () ->
        let reqs =
          Trace.span l_seal (fun () ->
              Array.map
                (fun e -> Serve.Client.request client ~ecall:Services.ecall_request e.req)
                batch)
        in
        Trace.span l_submit (fun () ->
            Array.iter
              (fun r ->
                match Serve.submit plane r with
                | Ok () -> ()
                | Error _ -> counters.rejects <- counters.rejects + 1)
              reqs);
        let replies = Trace.span l_flush (fun () -> Serve.flush plane) in
        let name = Services.kind_name kind in
        let first = reqs.(0).Serve.seq in
        let seen = Array.make per_call false in
        let verified =
          Trace.span l_open (fun () ->
              List.fold_left
                (fun acc (r : Serve.reply) ->
                  let j = r.Serve.r_seq - first in
                  if j < 0 || j >= per_call || seen.(j) then begin
                    mismatch "%s: unexpected reply seq %d" name r.Serve.r_seq;
                    acc
                  end
                  else begin
                    seen.(j) <- true;
                    match Serve.Client.read_reply client r with
                    | Ok body
                      when Services.reply_ok kind body
                           && String.equal (Bytes.to_string body) batch.(j).want ->
                        acc + 1
                    | Ok body ->
                        mismatch "%s seq %d: got %S, want %S" name r.Serve.r_seq
                          (Bytes.to_string body) batch.(j).want;
                        acc
                    | Error rej ->
                        mismatch "%s seq %d: %s" name r.Serve.r_seq
                          (Serve.reject_name rej);
                        acc
                  end)
                0 replies)
        in
        { attempted = per_call; verified })
  in
  {
    nodes = [| (p, plane) |];
    net = None;
    cluster = None;
    prepare =
      (fun i ->
        let kind, client = tenants.(i mod Array.length tenants) in
        call kind client
          (Array.init per_call (fun _ ->
               let e = next kind in
               ignore (note_input e.req : bytes);
               e)));
    between = ignore;
    destroy = (fun () -> Serve.destroy plane);
  }
