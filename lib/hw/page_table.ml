type perms = { write : bool; exec : bool; user : bool }

let pp_perms fmt p =
  Format.fprintf fmt "r%c%c%c"
    (if p.write then 'w' else '-')
    (if p.exec then 'x' else '-')
    (if p.user then 'u' else 'k')

let rw = { write = true; exec = false; user = true }
let rx = { write = false; exec = true; user = true }
let ro = { write = false; exec = false; user = true }
let rwx = { write = true; exec = true; user = true }
let kernel_rw = { write = true; exec = false; user = false }

type entry = {
  mutable frame : int;
  mutable perms : perms;
  mutable accessed : bool;
  mutable dirty : bool;
}

type node = Table of node option array | Leaf of entry option array

type t = {
  root : node;
  mutable mapped : int;
  mutable nodes : int;
  mutable generation : int;
}

let fanout = 512
let new_table () = Table (Array.make fanout None)
let new_leaf () = Leaf (Array.make fanout None)

let create () = { root = new_table (); mapped = 0; nodes = 1; generation = 0 }

(* Descend from the root (level 3) to the leaf table (level 0), creating
   interior nodes on demand when [create_missing]. *)
let rec descend t node level vpn create_missing =
  match node with
  | Leaf slots -> Some slots
  | Table slots -> (
      let idx = (vpn lsr (9 * level)) land 0x1ff in
      match slots.(idx) with
      | Some child -> descend t child (level - 1) vpn create_missing
      | None ->
          if not create_missing then None
          else begin
            let child = if level = 1 then new_leaf () else new_table () in
            slots.(idx) <- Some child;
            t.nodes <- t.nodes + 1;
            descend t child (level - 1) vpn create_missing
          end)

let leaf_index vpn = vpn land 0x1ff

let map t ~vpn ~frame ~perms =
  match descend t t.root 3 vpn true with
  | None -> assert false
  | Some slots ->
      let idx = leaf_index vpn in
      if slots.(idx) = None then t.mapped <- t.mapped + 1;
      t.generation <- t.generation + 1;
      slots.(idx) <- Some { frame; perms; accessed = false; dirty = false }

let unmap t ~vpn =
  match descend t t.root 3 vpn false with
  | None -> ()
  | Some slots ->
      let idx = leaf_index vpn in
      if slots.(idx) <> None then begin
        slots.(idx) <- None;
        t.generation <- t.generation + 1;
        t.mapped <- t.mapped - 1
      end

let lookup t ~vpn =
  match descend t t.root 3 vpn false with
  | None -> None
  | Some slots -> slots.(leaf_index vpn)

let protect t ~vpn ~perms =
  match lookup t ~vpn with
  | None -> raise Not_found
  | Some e ->
      t.generation <- t.generation + 1;
      e.perms <- perms

let walk t ~vpn ~levels_visited =
  (* A real walk loads one entry per level including the leaf PTE. *)
  let rec go node level =
    incr levels_visited;
    match node with
    | Leaf slots -> slots.(leaf_index vpn)
    | Table slots -> (
        let idx = (vpn lsr (9 * level)) land 0x1ff in
        match slots.(idx) with
        | None -> None
        | Some child -> go child (level - 1))
  in
  go t.root 3

let mapped_count t = t.mapped
let table_pages t = t.nodes

let iter t f =
  let rec go node base level =
    match node with
    | Leaf slots ->
        Array.iteri
          (fun i slot ->
            match slot with
            | None -> ()
            | Some e -> f ~vpn:(base lor i) e)
          slots
    | Table slots ->
        Array.iteri
          (fun i slot ->
            match slot with
            | None -> ()
            | Some child -> go child (base lor (i lsl (9 * level))) (level - 1))
          slots
  in
  go t.root 0 3

type snapshot = { gen : int; entries : (int * int * perms) list }

let snapshot t =
  let entries = ref [] in
  iter t (fun ~vpn e -> entries := (vpn, e.frame, e.perms) :: !entries);
  { gen = t.generation; entries = !entries }

let restore t snap =
  if t.generation <> snap.gen then begin
    let present = ref [] in
    iter t (fun ~vpn _ -> present := vpn :: !present);
    List.iter (fun vpn -> unmap t ~vpn) !present;
    List.iter (fun (vpn, frame, perms) -> map t ~vpn ~frame ~perms) snap.entries;
    t.generation <- snap.gen
  end

let generation t = t.generation

let find_vpn_of_frame t ~frame =
  let found = ref None in
  (try
     iter t (fun ~vpn e ->
         if e.frame = frame then begin
           found := Some vpn;
           raise Exit
         end)
   with Exit -> ());
  !found
