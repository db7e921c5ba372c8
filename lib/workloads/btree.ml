(* CLRS-style B-tree with preemptive splitting; minimum degree td =
   order/2, so nodes hold between td-1 and 2*td-1 keys (root excepted). *)

type node = {
  addr : int;
  mutable keys : int array;
  mutable children : node array; (* [||] for leaves *)
}

type t = {
  td : int;
  record_bytes : int;
  node_bytes : int;
  mutable root : node;
  values : (int, bytes) Hashtbl.t;
  value_addr : (int, int) Hashtbl.t;
  mutable next_addr : int;
  mutable count : int;
  mutable touched : (int * int) list;
}

let is_leaf node = Array.length node.children = 0

let create ?(order = 32) ~addr_base ~record_bytes () =
  if order < 4 || order mod 2 <> 0 then invalid_arg "Btree.create: bad order";
  let td = order / 2 in
  let node_bytes = order * 16 in
  let t =
    {
      td;
      record_bytes;
      node_bytes;
      root = { addr = addr_base; keys = [||]; children = [||] };
      values = Hashtbl.create 1024;
      value_addr = Hashtbl.create 1024;
      next_addr = addr_base + node_bytes;
      count = 0;
      touched = [];
    }
  in
  t

let alloc t bytes =
  let addr = t.next_addr in
  t.next_addr <- t.next_addr + ((bytes + 63) land lnot 63);
  addr

let touch t node = t.touched <- (node.addr, t.node_bytes) :: t.touched

let touch_value t key =
  match Hashtbl.find_opt t.value_addr key with
  | Some addr -> t.touched <- (addr, t.record_bytes) :: t.touched
  | None -> ()

(* Split the full child [child] of [parent] at child index [i]. *)
let split_child t parent i =
  let child = parent.children.(i) in
  let td = t.td in
  let median = child.keys.(td - 1) in
  let right =
    {
      addr = alloc t t.node_bytes;
      keys = Array.sub child.keys td (td - 1);
      children =
        (if is_leaf child then [||] else Array.sub child.children td td);
    }
  in
  child.keys <- Array.sub child.keys 0 (td - 1);
  if not (is_leaf child) then child.children <- Array.sub child.children 0 td;
  let n = Array.length parent.keys in
  let keys = Array.make (n + 1) 0 in
  Array.blit parent.keys 0 keys 0 i;
  keys.(i) <- median;
  Array.blit parent.keys i keys (i + 1) (n - i);
  let children = Array.make (n + 2) child in
  Array.blit parent.children 0 children 0 (i + 1);
  children.(i + 1) <- right;
  Array.blit parent.children (i + 1) children (i + 2) (n - i);
  parent.keys <- keys;
  parent.children <- children

let find_slot keys key =
  (* First index with keys.(i) >= key. *)
  let lo = ref 0 and hi = ref (Array.length keys) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if keys.(mid) < key then lo := mid + 1 else hi := mid
  done;
  !lo

let rec insert_nonfull t node key =
  touch t node;
  let i = find_slot node.keys key in
  if i < Array.length node.keys && node.keys.(i) = key then ()
    (* key already present: value hashtable gets the fresh bytes below *)
  else if is_leaf node then begin
    let n = Array.length node.keys in
    let keys = Array.make (n + 1) 0 in
    Array.blit node.keys 0 keys 0 i;
    keys.(i) <- key;
    Array.blit node.keys i keys (i + 1) (n - i);
    node.keys <- keys
  end
  else begin
    let continue_at = ref (Some i) in
    if Array.length node.children.(i).keys = (2 * t.td) - 1 then begin
      split_child t node i;
      (* The promoted median may be exactly the key being inserted (a
         duplicate): it now lives in this node, so there is nothing left
         to do below. *)
      if key = node.keys.(i) then continue_at := None
      else if key > node.keys.(i) then continue_at := Some (i + 1)
    end;
    match !continue_at with
    | None -> ()
    | Some i -> insert_nonfull t node.children.(i) key
  end

let insert t ~key value =
  t.touched <- [];
  if not (Hashtbl.mem t.values key) then begin
    t.count <- t.count + 1;
    Hashtbl.replace t.value_addr key (alloc t t.record_bytes)
  end;
  Hashtbl.replace t.values key value;
  if Array.length t.root.keys = (2 * t.td) - 1 then begin
    let old_root = t.root in
    let new_root =
      { addr = alloc t t.node_bytes; keys = [||]; children = [| old_root |] }
    in
    t.root <- new_root;
    split_child t new_root 0
  end;
  insert_nonfull t t.root key;
  touch_value t key

let rec find_node t node key =
  touch t node;
  let i = find_slot node.keys key in
  if i < Array.length node.keys && node.keys.(i) = key then true
  else if is_leaf node then false
  else find_node t node.children.(i) key

let find t ~key =
  t.touched <- [];
  if find_node t t.root key then begin
    touch_value t key;
    Hashtbl.find_opt t.values key
  end
  else None

let update t ~key value =
  t.touched <- [];
  if find_node t t.root key then begin
    touch_value t key;
    Hashtbl.replace t.values key value;
    true
  end
  else false

(* In-order walk from the first key >= lo, collecting up to [count]
   records; every node on the visited frontier is touched so the memory
   simulator sees the leaf-heavy access pattern of a range scan. *)
let scan t ~lo ~count =
  t.touched <- [];
  let out = ref [] and n = ref 0 in
  let collect key =
    if key >= lo && !n < count then begin
      touch_value t key;
      match Hashtbl.find_opt t.values key with
      | Some v ->
          out := (key, v) :: !out;
          incr n
      | None -> ()
    end
  in
  let rec go node =
    if !n < count then begin
      touch t node;
      let i0 = find_slot node.keys lo in
      if is_leaf node then
        for i = i0 to Array.length node.keys - 1 do
          collect node.keys.(i)
        done
      else begin
        (* Child i0 may still hold keys >= lo (they sit below the first
           separator >= lo), so descend there first, then alternate
           key/child rightwards. *)
        go node.children.(i0);
        let i = ref i0 in
        while !n < count && !i < Array.length node.keys do
          collect node.keys.(!i);
          incr i;
          if !n < count then go node.children.(!i)
        done
      end
    end
  in
  go t.root;
  List.rev !out

let size t = t.count

let depth t =
  let rec go node acc = if is_leaf node then acc else go node.children.(0) (acc + 1) in
  go t.root 1

let last_touched t = List.rev t.touched

let check_invariants t =
  let fail fmt = Printf.ksprintf failwith fmt in
  let leaf_depth = ref (-1) in
  let rec go node depth ~is_root lo hi =
    let n = Array.length node.keys in
    if (not is_root) && n < t.td - 1 then fail "node underfull (%d keys)" n;
    if n > (2 * t.td) - 1 then fail "node overfull (%d keys)" n;
    for i = 0 to n - 2 do
      if node.keys.(i) >= node.keys.(i + 1) then fail "keys out of order"
    done;
    (match (lo, node.keys) with
    | Some lo, [||] -> ignore lo
    | Some lo, keys -> if keys.(0) <= lo then fail "key below separator"
    | None, _ -> ());
    (match (hi, node.keys) with
    | Some hi, keys when n > 0 -> if keys.(n - 1) >= hi then fail "key above separator"
    | Some _, _ | None, _ -> ());
    if is_leaf node then begin
      if !leaf_depth = -1 then leaf_depth := depth
      else if !leaf_depth <> depth then fail "unbalanced leaves"
    end
    else begin
      if Array.length node.children <> n + 1 then fail "child count mismatch";
      Array.iteri
        (fun i child ->
          let lo = if i = 0 then lo else Some node.keys.(i - 1) in
          let hi = if i = n then hi else Some node.keys.(i) in
          go child (depth + 1) ~is_root:false lo hi)
        node.children
    end
  in
  go t.root 0 ~is_root:true None None
