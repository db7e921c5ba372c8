let block_size = 64

let normalize_key key =
  let key = if Bytes.length key > block_size then Sha256.digest_bytes key else key in
  let out = Bytes.make block_size '\000' in
  Bytes.blit key 0 out 0 (Bytes.length key);
  out

let xor_pad_in_place pad byte =
  for i = 0 to block_size - 1 do
    Bytes.unsafe_set pad i
      (Char.unsafe_chr (Char.code (Bytes.unsafe_get pad i) lxor byte))
  done

(* A prepared key keeps only the chaining states after the ipad and
   opad blocks (two 8-word arrays) plus one work context and a digest
   scratch reused by every tag: a tag skips the two pad compressions
   and allocates nothing but its 32-byte result, or nothing at all when
   the caller supplies the destination. *)
type prepared = {
  inner : int array;
  outer : int array;
  work : Sha256.ctx;
  digest : bytes;
}

let prepare key =
  (* [normalize_key] already copies, so the pad mutates that copy:
     XOR 0x36 makes the inner pad, and re-XORing with 0x36 lxor 0x5c
     turns it into the outer pad without a second buffer. *)
  let pad = normalize_key key in
  xor_pad_in_place pad 0x36;
  let work = Sha256.init () in
  Sha256.update work pad;
  let inner = Sha256.chain work in
  xor_pad_in_place pad (0x36 lxor 0x5c);
  let outer_ctx = Sha256.init () in
  Sha256.update outer_ctx pad;
  { inner; outer = Sha256.chain outer_ctx; work; digest = Bytes.create 32 }

let start p = Sha256.restart p.work p.inner
let absorb p b ~off ~len = Sha256.update_sub p.work b ~off ~len

let finish_into p out =
  Sha256.finalize_into p.work p.digest;
  Sha256.restart p.work p.outer;
  Sha256.update_sub p.work p.digest ~off:0 ~len:32;
  Sha256.finalize_into p.work out

let finish p =
  let out = Bytes.create 32 in
  finish_into p out;
  out

let hmac ~key msg =
  let p = prepare key in
  start p;
  absorb p msg ~off:0 ~len:(Bytes.length msg);
  finish p

(* [hmac] never mutates [msg], so borrow the string's bytes. *)
let hmac_string ~key msg = hmac ~key (Bytes.unsafe_of_string msg)
let verify ~key msg ~tag = Sha256.equal (hmac ~key msg) tag

let hkdf_extract ?salt ~ikm () =
  let salt = match salt with Some s -> s | None -> Bytes.make 32 '\000' in
  hmac ~key:salt ikm

let hkdf_expand ~prk ~info ~len =
  if len > 255 * 32 then invalid_arg "Hmac.hkdf_expand: len too large";
  let out = Buffer.create len in
  let prev = ref Bytes.empty in
  let counter = ref 1 in
  while Buffer.length out < len do
    let block = Buffer.create (Bytes.length !prev + String.length info + 1) in
    Buffer.add_bytes block !prev;
    Buffer.add_string block info;
    Buffer.add_char block (Char.chr !counter);
    prev := hmac ~key:prk (Buffer.to_bytes block);
    Buffer.add_bytes out !prev;
    incr counter
  done;
  Bytes.sub (Buffer.to_bytes out) 0 len

let derive ~key ~info =
  hkdf_expand ~prk:(hkdf_extract ~ikm:key ()) ~info ~len:32
