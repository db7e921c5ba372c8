type reader = { buf : bytes; mutable pos : int; mutable limit : int }

exception Reject of string

let fail field reason = raise (Reject (field ^ ": " ^ reason))

let decode format f buf =
  let r = { buf; pos = 0; limit = Bytes.length buf } in
  match f r with
  | v when r.pos = r.limit -> Ok v
  | _ -> Error (format ^ ": trailing bytes")
  | exception Reject m -> Error (format ^ ": " ^ m)

(* Subtraction form: [pos <= limit] always holds, so [limit - pos]
   cannot overflow whatever [n] a length word carries. *)
let need r n field = if n < 0 || n > r.limit - r.pos then fail field "truncated"

let take r n field =
  need r n field;
  r.pos <- r.pos + n;
  Bytes.sub r.buf (r.pos - n) n

let take_into r dst field =
  let n = Bytes.length dst in
  need r n field;
  Bytes.blit r.buf r.pos dst 0 n;
  r.pos <- r.pos + n

let skip r n field =
  need r n field;
  r.pos <- r.pos + n

let literal r s field =
  let n = String.length s in
  need r n field;
  for i = 0 to n - 1 do
    if Bytes.get r.buf (r.pos + i) <> s.[i] then fail field "mismatch"
  done;
  r.pos <- r.pos + n

let uint8 r field =
  need r 1 field;
  r.pos <- r.pos + 1;
  Bytes.get_uint8 r.buf (r.pos - 1)

let int64_le r field =
  need r 8 field;
  let w = Bytes.get_int64_le r.buf r.pos in
  if Int64.of_int (Int64.to_int w) <> w then fail field "word is not an int";
  r.pos <- r.pos + 8;
  Int64.to_int w

let len64_le ~max r field =
  let v = int64_le r field in
  if v < 0 || v > max then fail field "out of range";
  v

let len32 r field =
  need r 4 field;
  r.pos <- r.pos + 4;
  Int32.to_int (Bytes.get_int32_be r.buf (r.pos - 4))

let framed32 r field = take r (len32 r field) field
let framed64 r field = take r (len64_le ~max:max_int r field) field

let nested32 r field f =
  let n = len32 r field in
  need r n field;
  let outer = r.limit in
  r.limit <- r.pos + n;
  let v = f r in
  if r.pos <> r.limit then fail field "trailing bytes";
  r.limit <- outer;
  v

let put_framed32 buf b =
  Buffer.add_int32_be buf (Int32.of_int (Bytes.length b));
  Buffer.add_bytes buf b

let put_framed64 buf b =
  Buffer.add_int64_le buf (Int64.of_int (Bytes.length b));
  Buffer.add_bytes buf b
