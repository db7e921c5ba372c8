(* echo_plane: one node, 8 simulated cores, 8 GU tenants running an echo
   handler, one attested session each.  A call seals 8 requests per
   tenant (96 B on average), submits all 64, flushes once and opens
   every reply.  The service does nothing, so the serving plane's own
   per-request work dominates. *)

open Hyperenclave
open Workload

let tenants = 8
let per_tenant = 8
let cores = 8
let ecall = 1

let echo_config name =
  {
    (Backend.config (Backend.Hyperenclave Sgx_types.GU)) with
    Backend.handlers = [ (ecall, fun _env input -> input) ];
    code_seed = Some name;
  }

let setup ~seed =
  let p = Platform.create ~seed:951L () in
  let plane =
    Serve.create_node ~platform:p
      (Serve.Node_config.v ~platform:p (serve_config ~cores))
  in
  let clients =
    Array.init tenants (fun i ->
        let name = Printf.sprintf "echo-%d" i in
        let backend = Serve.add_tenant plane ~name (echo_config name) in
        connect_direct plane p ~tenant:name
          ~identity:(Option.get backend.Backend.identity)
          ~rng_seed:(Int64.of_int (3000 + i)))
  in
  let tenant_of = Hashtbl.create tenants in
  Array.iteri
    (fun t c -> Hashtbl.replace tenant_of (Serve.Client.session_id c) t)
    clients;
  let rng = Rng.create ~seed in
  let call payloads () =
    Trace.span l_call (fun () ->
        let reqs =
          Trace.span l_seal (fun () ->
              Array.mapi
                (fun t ps -> Array.map (Serve.Client.request clients.(t) ~ecall) ps)
                payloads)
        in
        Trace.span l_submit (fun () ->
            Array.iter
              (Array.iter (fun r ->
                   match Serve.submit plane r with
                   | Ok () -> ()
                   | Error _ -> counters.rejects <- counters.rejects + 1))
              reqs);
        let replies = Trace.span l_flush (fun () -> Serve.flush plane) in
        let seen = Array.make_matrix tenants per_tenant false in
        let verified =
          Trace.span l_open (fun () ->
              List.fold_left
                (fun acc (r : Serve.reply) ->
                  match Hashtbl.find_opt tenant_of r.Serve.r_session_id with
                  | None ->
                      mismatch "echo: reply for unknown session %d"
                        r.Serve.r_session_id;
                      acc
                  | Some t -> (
                      let j = r.Serve.r_seq - reqs.(t).(0).Serve.seq in
                      if j < 0 || j >= per_tenant || seen.(t).(j) then begin
                        mismatch "echo: tenant %d unexpected seq %d" t
                          r.Serve.r_seq;
                        acc
                      end
                      else begin
                        seen.(t).(j) <- true;
                        match Serve.Client.read_reply clients.(t) r with
                        | Ok body when Bytes.equal body payloads.(t).(j) -> acc + 1
                        | Ok _ ->
                            mismatch "echo: tenant %d seq %d: reply differs from payload"
                              t r.Serve.r_seq;
                            acc
                        | Error rej ->
                            mismatch "echo: tenant %d seq %d: %s" t r.Serve.r_seq
                              (Serve.reject_name rej);
                            acc
                      end))
                0 replies)
        in
        { attempted = tenants * per_tenant; verified })
  in
  {
    nodes = [| (p, plane) |];
    net = None;
    cluster = None;
    prepare =
      (fun _ ->
        call
          (Array.init tenants (fun _ ->
               Array.init per_tenant (fun _ -> payload rng ~mean:96 ~spread:16))));
    between = ignore;
    destroy = (fun () -> Serve.destroy plane);
  }
