type regs = {
  mutable rip : int;
  mutable rsp : int;
  mutable rflags : int;
  mutable fs_base : int;
  gpr : int array;
}

let gpr_count = 14
let ssa_frame_bytes = 8 * (4 + gpr_count)

let fresh ~entry =
  {
    rip = entry;
    rsp = 0;
    rflags = 0x202 (* IF set, reserved bit 1 *);
    fs_base = 0;
    gpr = Array.make gpr_count 0;
  }

let copy r =
  {
    rip = r.rip;
    rsp = r.rsp;
    rflags = r.rflags;
    fs_base = r.fs_base;
    gpr = Array.copy r.gpr;
  }

let scramble rng r =
  let open Hyperenclave_hw in
  r.rip <- Rng.int rng 0x1000_0000;
  r.rsp <- Rng.int rng 0x1000_0000;
  r.rflags <- Rng.int rng 0x10000 lor 0x202;
  r.fs_base <- Rng.int rng 0x1000_0000;
  Array.iteri (fun i _ -> r.gpr.(i) <- Rng.int rng 0x4000_0000) r.gpr

let equal a b =
  a.rip = b.rip && a.rsp = b.rsp && a.rflags = b.rflags
  && a.fs_base = b.fs_base && a.gpr = b.gpr

let serialize r =
  let out = Bytes.create ssa_frame_bytes in
  let put i v = Bytes.set_int64_le out (8 * i) (Int64.of_int v) in
  put 0 r.rip;
  put 1 r.rsp;
  put 2 r.rflags;
  put 3 r.fs_base;
  Array.iteri (fun i v -> put (4 + i) v) r.gpr;
  out

let deserialize =
  Hyperenclave_hw.Codec.decode "SSA frame" (fun r ->
      let get = Hyperenclave_hw.Codec.int64_le r in
      let rip = get "rip" in
      let rsp = get "rsp" in
      let rflags = get "rflags" in
      let fs_base = get "fs_base" in
      { rip; rsp; rflags; fs_base; gpr = Array.init gpr_count (fun _ -> get "gpr") })
