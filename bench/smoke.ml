(* Trimmed, deterministic slice of the benchmark suite used as the
   wall-clock smoke test: a few seconds of the same kernels the full
   harness leans on (memory simulation with every engine, SHA-256, AES
   CTR/XTS, HMAC).  `perf_smoke.exe` times one run of this against the
   "perf_smoke_wall_seconds" row of PERF_BASELINE.json and fails loudly
   on regression, so a perf-destroying change to the simulator can't
   land silently.

   Everything here is seeded and sized identically on every run — the
   only thing that varies between machines/builds is the wall clock. *)

open Hyperenclave
module Memlat = Hyperenclave_workloads.Memlat

let mem_engines =
  [
    Hw.Mem_crypto.Plain;
    Hw.Mem_crypto.Sme;
    Hw.Mem_crypto.Mee { epc_bytes = 8 * 1024 * 1024 };
  ]

(* ~16 MB of random-access simulation per engine plus a medium sequential
   scan: enough to exercise the TLB/EPC/cache fast paths for a measurable
   (but CI-friendly) amount of time. *)
let mem_slice () =
  List.iter
    (fun engine ->
      let clock = Cycles.create () in
      let sim =
        Mem_sim.create ~clock ~cost:Cost_model.default
          ~rng:(Rng.create ~seed:11L) ~engine ()
      in
      Mem_sim.seq_scan sim ~base:0 ~bytes:(8 * 1024 * 1024) ~write:false;
      Mem_sim.random_access sim ~base:0
        ~working_set:(16 * 1024 * 1024)
        ~count:200_000 ~write:true;
      ignore (Mem_sim.swaps sim))
    mem_engines

let crypto_slice () =
  let data = Bytes.init 65536 (fun i -> Char.chr (i land 0xff)) in
  let digest = ref (Crypto.Sha256.digest_bytes data) in
  for _ = 1 to 16 do
    digest := Crypto.Sha256.digest_bytes !digest
  done;
  ignore (Crypto.Sha256.to_hex !digest);
  let key = Bytes.init 16 (fun i -> Char.chr (17 * i land 0xff)) in
  let sealed = Crypto.Aes.ctr_transform ~key ~nonce:(Bytes.make 12 'n') data in
  let xts = Crypto.Aes.xts_encrypt ~key ~tweak:0x1000 (Bytes.sub sealed 0 16384) in
  ignore (Crypto.Hmac.hmac ~key xts)

let run () =
  mem_slice ();
  crypto_slice ()
