type secret = bytes
type public = bytes

(* public -> secret.  Agreement-side stand-in for the group mathematics;
   see the interface comment. *)
let registry : (string, bytes) Hashtbl.t = Hashtbl.create 16

let derive_public secret =
  let ctx = Sha256.init () in
  Sha256.update_string ctx "hyperenclave-sim-kx-pub:";
  Sha256.update ctx secret;
  Sha256.finalize ctx

let generate rng =
  let secret = Hyperenclave_hw.Rng.bytes rng 32 in
  let public = derive_public secret in
  Hashtbl.replace registry (Bytes.to_string public) secret;
  (secret, public)

(* Hash the unordered pair of secrets so both endpoints compute the same
   value regardless of who calls. *)
let shared mine theirs =
  match Hashtbl.find_opt registry (Bytes.to_string theirs) with
  | None -> None
  | Some other ->
      let lo, hi = if Bytes.compare mine other <= 0 then (mine, other) else (other, mine) in
      let ctx = Sha256.init () in
      Sha256.update_string ctx "hyperenclave-sim-kx-shared:";
      Sha256.update ctx lo;
      Sha256.update ctx hi;
      Some (Sha256.finalize ctx)
