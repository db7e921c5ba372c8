open Hyperenclave_hw

type op = Read of int | Update of int | Scan of int * int

type t = {
  rng : Rng.t;
  records : int;
  theta : float;
  zetan : float;
  zeta2 : float;
  alpha : float;
  eta : float;
}

let zeta n theta =
  let acc = ref 0.0 in
  for i = 1 to n do
    acc := !acc +. (1.0 /. (float_of_int i ** theta))
  done;
  !acc

let create ~rng ~records ?(zipf_theta = 0.99) () =
  if records <= 0 then invalid_arg "Ycsb.create: records <= 0";
  let zetan = zeta records zipf_theta in
  let zeta2 = zeta 2 zipf_theta in
  let alpha = 1.0 /. (1.0 -. zipf_theta) in
  let eta =
    (1.0 -. ((2.0 /. float_of_int records) ** (1.0 -. zipf_theta)))
    /. (1.0 -. (zeta2 /. zetan))
  in
  { rng; records; theta = zipf_theta; zetan; zeta2; alpha; eta }

(* FNV-1a scramble, as YCSB does, so hot keys are spread over the
   keyspace instead of clustered at 0. *)
let scramble t rank =
  let h = ref 0x3bf29ce484222325 in
  let x = ref rank in
  for _ = 1 to 8 do
    h := (!h lxor (!x land 0xff)) * 0x100000001b3 land max_int;
    x := !x lsr 8
  done;
  !h mod t.records

let next_key t =
  let u = Rng.float t.rng 1.0 in
  let uz = u *. t.zetan in
  let rank =
    if uz < 1.0 then 0
    else if uz < 1.0 +. (0.5 ** t.theta) then 1
    else
      int_of_float
        (float_of_int t.records *. (((t.eta *. u) -. t.eta +. 1.0) ** t.alpha))
  in
  scramble t (min rank (t.records - 1))

let next_op_a t =
  let key = next_key t in
  if Rng.bool t.rng then Read key else Update key

let next_op_b t =
  let key = next_key t in
  if Rng.int t.rng 100 < 95 then Read key else Update key

let next_op_c t = Read (next_key t)

let next_scan t ?(max_len = 16) () =
  Scan (next_key t, 1 + Rng.int t.rng max_len)

let record_value ~key ~size =
  let pattern = Printf.sprintf "record-%08x:" key in
  let out = Bytes.create size in
  let plen = String.length pattern in
  for i = 0 to size - 1 do
    Bytes.set out i pattern.[i mod plen]
  done;
  out
