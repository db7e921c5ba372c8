(* FIPS 180-4 SHA-256 over 32-bit words carried in OCaml ints (masked). *)

let k =
  [|
    0x428a2f98; 0x71374491; 0xb5c0fbcf; 0xe9b5dba5; 0x3956c25b; 0x59f111f1;
    0x923f82a4; 0xab1c5ed5; 0xd807aa98; 0x12835b01; 0x243185be; 0x550c7dc3;
    0x72be5d74; 0x80deb1fe; 0x9bdc06a7; 0xc19bf174; 0xe49b69c1; 0xefbe4786;
    0x0fc19dc6; 0x240ca1cc; 0x2de92c6f; 0x4a7484aa; 0x5cb0a9dc; 0x76f988da;
    0x983e5152; 0xa831c66d; 0xb00327c8; 0xbf597fc7; 0xc6e00bf3; 0xd5a79147;
    0x06ca6351; 0x14292967; 0x27b70a85; 0x2e1b2138; 0x4d2c6dfc; 0x53380d13;
    0x650a7354; 0x766a0abb; 0x81c2c92e; 0x92722c85; 0xa2bfe8a1; 0xa81a664b;
    0xc24b8b70; 0xc76c51a3; 0xd192e819; 0xd6990624; 0xf40e3585; 0x106aa070;
    0x19a4c116; 0x1e376c08; 0x2748774c; 0x34b0bcb5; 0x391c0cb3; 0x4ed8aa4a;
    0x5b9cca4f; 0x682e6ff3; 0x748f82ee; 0x78a5636f; 0x84c87814; 0x8cc70208;
    0x90befffa; 0xa4506ceb; 0xbef9a3f7; 0xc67178f2;
  |]

type ctx = {
  h : int array; (* 8 state words *)
  w : int array; (* 64-word message schedule, reused across blocks *)
  buf : Bytes.t; (* 64-byte block buffer *)
  mutable buf_len : int;
  mutable total : int; (* total bytes absorbed *)
  mutable finalized : bool;
}

let digest_size = 32
let mask = 0xffffffff

let init () =
  {
    h =
      [|
        0x6a09e667; 0xbb67ae85; 0x3c6ef372; 0xa54ff53a; 0x510e527f;
        0x9b05688c; 0x1f83d9ab; 0x5be0cd19;
      |];
    w = Array.make 64 0;
    buf = Bytes.create 64;
    buf_len = 0;
    total = 0;
    finalized = false;
  }

let rotr x n = ((x lsr n) lor (x lsl (32 - n))) land mask

let compress ctx block off =
  let w = ctx.w in
  for i = 0 to 15 do
    (* One 32-bit big-endian load per word instead of four byte reads. *)
    w.(i) <- Int32.to_int (Bytes.get_int32_be block (off + (4 * i))) land mask
  done;
  for i = 16 to 63 do
    let w15 = Array.unsafe_get w (i - 15) and w2 = Array.unsafe_get w (i - 2) in
    let s0 = rotr w15 7 lxor rotr w15 18 lxor (w15 lsr 3) in
    let s1 = rotr w2 17 lxor rotr w2 19 lxor (w2 lsr 10) in
    Array.unsafe_set w i
      ((Array.unsafe_get w (i - 16) + s0 + Array.unsafe_get w (i - 7) + s1)
      land mask)
  done;
  let a = ref ctx.h.(0)
  and b = ref ctx.h.(1)
  and c = ref ctx.h.(2)
  and d = ref ctx.h.(3)
  and e = ref ctx.h.(4)
  and f = ref ctx.h.(5)
  and g = ref ctx.h.(6)
  and hh = ref ctx.h.(7) in
  for i = 0 to 63 do
    let s1 = rotr !e 6 lxor rotr !e 11 lxor rotr !e 25 in
    let ch = !e land !f lxor (lnot !e land !g) in
    let temp1 =
      (!hh + s1 + ch + Array.unsafe_get k i + Array.unsafe_get ctx.w i)
      land mask
    in
    let s0 = rotr !a 2 lxor rotr !a 13 lxor rotr !a 22 in
    let maj = !a land !b lxor (!a land !c) lxor (!b land !c) in
    let temp2 = (s0 + maj) land mask in
    hh := !g;
    g := !f;
    f := !e;
    e := (!d + temp1) land mask;
    d := !c;
    c := !b;
    b := !a;
    a := (temp1 + temp2) land mask
  done;
  ctx.h.(0) <- (ctx.h.(0) + !a) land mask;
  ctx.h.(1) <- (ctx.h.(1) + !b) land mask;
  ctx.h.(2) <- (ctx.h.(2) + !c) land mask;
  ctx.h.(3) <- (ctx.h.(3) + !d) land mask;
  ctx.h.(4) <- (ctx.h.(4) + !e) land mask;
  ctx.h.(5) <- (ctx.h.(5) + !f) land mask;
  ctx.h.(6) <- (ctx.h.(6) + !g) land mask;
  ctx.h.(7) <- (ctx.h.(7) + !hh) land mask

let update_sub ctx data ~off ~len =
  if ctx.finalized then invalid_arg "Sha256.update: already finalized";
  if len < 0 || off < 0 || off + len > Bytes.length data then
    invalid_arg "Sha256.update_sub: slice out of bounds";
  ctx.total <- ctx.total + len;
  let pos = ref off in
  let stop = off + len in
  (* Fill a partial block first. *)
  if ctx.buf_len > 0 then begin
    let need = min (64 - ctx.buf_len) len in
    Bytes.blit data off ctx.buf ctx.buf_len need;
    ctx.buf_len <- ctx.buf_len + need;
    pos := off + need;
    if ctx.buf_len = 64 then begin
      compress ctx ctx.buf 0;
      ctx.buf_len <- 0
    end
  end;
  while stop - !pos >= 64 do
    compress ctx data !pos;
    pos := !pos + 64
  done;
  if !pos < stop then begin
    Bytes.blit data !pos ctx.buf 0 (stop - !pos);
    ctx.buf_len <- stop - !pos
  end

let update ctx data = update_sub ctx data ~off:0 ~len:(Bytes.length data)

let update_string ctx s = update ctx (Bytes.unsafe_of_string s)

(* The message schedule [w] is scratch space valid only inside [compress],
   so a copy needs a fresh array but not the current contents. *)
let copy ctx =
  {
    h = Array.copy ctx.h;
    w = Array.make 64 0;
    buf = Bytes.copy ctx.buf;
    buf_len = ctx.buf_len;
    total = ctx.total;
    finalized = ctx.finalized;
  }

(* Chaining state after exactly one absorbed block, and the inverse:
   HMAC saves the state after its key-pad block and restarts from it
   for every tag instead of re-hashing the pad. *)
let chain ctx =
  if ctx.total <> 64 || ctx.buf_len <> 0 || ctx.finalized then
    invalid_arg "Sha256.chain: context is not exactly one block in";
  Array.copy ctx.h

let restart ctx h =
  Array.blit h 0 ctx.h 0 8;
  ctx.buf_len <- 0;
  ctx.total <- 64;
  ctx.finalized <- false

(* Padding is written straight into [ctx.buf]: 0x80, zeros, then the
   64-bit big-endian bit length, spilling into a second compression
   when fewer than 9 bytes of the block are free. *)
let finalize_into ctx out =
  if ctx.finalized then invalid_arg "Sha256.finalize: already finalized";
  if Bytes.length out < digest_size then
    invalid_arg "Sha256.finalize_into: output shorter than 32 bytes";
  ctx.finalized <- true;
  let buf = ctx.buf and n = ctx.buf_len in
  Bytes.unsafe_set buf n '\x80';
  if n >= 56 then begin
    Bytes.fill buf (n + 1) (63 - n) '\000';
    compress ctx buf 0;
    Bytes.fill buf 0 56 '\000'
  end
  else Bytes.fill buf (n + 1) (55 - n) '\000';
  let bits = ctx.total * 8 in
  for i = 0 to 7 do
    Bytes.unsafe_set buf (63 - i) (Char.unsafe_chr ((bits lsr (8 * i)) land 0xff))
  done;
  compress ctx buf 0;
  ctx.buf_len <- 0;
  for i = 0 to 7 do
    Bytes.set out (4 * i) (Char.chr ((ctx.h.(i) lsr 24) land 0xff));
    Bytes.set out ((4 * i) + 1) (Char.chr ((ctx.h.(i) lsr 16) land 0xff));
    Bytes.set out ((4 * i) + 2) (Char.chr ((ctx.h.(i) lsr 8) land 0xff));
    Bytes.set out ((4 * i) + 3) (Char.chr (ctx.h.(i) land 0xff))
  done

let finalize ctx =
  let out = Bytes.create digest_size in
  finalize_into ctx out;
  out

let digest_bytes data =
  let ctx = init () in
  update ctx data;
  finalize ctx

(* [update] only reads from its input, so the string's bytes can be
   borrowed without the copy [Bytes.of_string] would make. *)
let digest_string s = digest_bytes (Bytes.unsafe_of_string s)

let to_int digest = Int64.to_int (Bytes.get_int64_le digest 0) land max_int

let transcript label fields =
  let buf = Buffer.create 256 in
  Buffer.add_string buf label;
  List.iter (Hyperenclave_hw.Codec.put_framed64 buf) fields;
  digest_bytes (Buffer.to_bytes buf)

let hex_digits = "0123456789abcdef"

let to_hex digest =
  let n = Bytes.length digest in
  let out = Bytes.create (2 * n) in
  for i = 0 to n - 1 do
    let c = Char.code (Bytes.unsafe_get digest i) in
    Bytes.unsafe_set out (2 * i) (String.unsafe_get hex_digits (c lsr 4));
    Bytes.unsafe_set out ((2 * i) + 1)
      (String.unsafe_get hex_digits (c land 0xf))
  done;
  Bytes.unsafe_to_string out

let equal a b =
  Bytes.length a = Bytes.length b
  &&
  let diff = ref 0 in
  for i = 0 to Bytes.length a - 1 do
    diff := !diff lor (Char.code (Bytes.get a i) lxor Char.code (Bytes.get b i))
  done;
  !diff = 0
