type access = Read | Write | Exec

let pp_access fmt = function
  | Read -> Format.pp_print_string fmt "read"
  | Write -> Format.pp_print_string fmt "write"
  | Exec -> Format.pp_print_string fmt "exec"

type fault = { vpn : int; access : access; user : bool; present : bool }

exception Page_fault of fault
exception Npt_violation of { gfn : int; access : access }

type t = {
  clock : Cycles.t;
  cost : Cost_model.t;
  tlb : Tlb.t;
  mutable gpt : Page_table.t;
  mutable npt : Page_table.t option;
  (* Nested-translation cost cache, 2 MB-region granular: RustMonitor
     installs huge pages in the NPT where possible (Appendix A.2), so
     once a region's nested translation is cached, further guest walks in
     it cost like native ones.  Guest CR3 writes do not flush it; only
     switching to a different nested table does.  The cache affects cost
     only — the real nested walk below still decides permissions. *)
  nested_regions : (int, unit) Hashtbl.t;
  (* Guest paging-structure cache (VA-region granular): upper-level guest
     table entries cached by the walker; flushed with the TLB. *)
  va_regions : (int, unit) Hashtbl.t;
}

let nested_cache_capacity = 4096

let create ~clock ~cost ~rng ~gpt ?npt () =
  {
    clock;
    cost;
    tlb = Tlb.create rng;
    gpt;
    npt;
    nested_regions = Hashtbl.create 256;
    va_regions = Hashtbl.create 256;
  }

let perms_allow (p : Page_table.perms) access user =
  (if user then p.user else true)
  &&
  match access with Read -> true | Write -> p.write | Exec -> p.exec

let check_perms (e : Page_table.entry) access user ~vpn =
  if not (perms_allow e.perms access user) then
    raise (Page_fault { vpn; access; user; present = true })

let nested_cached t gfn = Hashtbl.mem t.nested_regions (gfn lsr 9)

let nested_fill t gfn =
  if Hashtbl.length t.nested_regions >= nested_cache_capacity then
    Hashtbl.reset t.nested_regions;
  Hashtbl.replace t.nested_regions (gfn lsr 9) ()

(* Translate a guest frame through the NPT; a full nested walk is charged
   only when the 2 MB region is cold in the nested cache. *)
let npt_resolve t npt gfn access =
  let levels = ref 0 in
  let charge () =
    if nested_cached t gfn then Cycles.tick t.clock t.cost.tlb_hit
    else begin
      Cycles.tick t.clock (!levels * t.cost.pt_level_access);
      nested_fill t gfn
    end
  in
  match Page_table.walk npt ~vpn:gfn ~levels_visited:levels with
  | None ->
      charge ();
      raise (Npt_violation { gfn; access })
  | Some (ne : Page_table.entry) ->
      charge ();
      if not (perms_allow ne.perms access false) then
        raise (Npt_violation { gfn; access });
      ne.accessed <- true;
      if access = Write then ne.dirty <- true;
      ne.frame

let translate_page t ~access ~user ~vpn =
  match Tlb.lookup t.tlb ~vpn with
  | Some (e : Tlb.entry) ->
      Cycles.tick t.clock t.cost.tlb_hit;
      if not (perms_allow e.perms access user) then
        raise (Page_fault { vpn; access; user; present = true });
      (* A write through a clean cached translation still sets the PTE's
         dirty bit (the walker re-visits the entry in microcode).  The
         walker cached the leaf PTE in the TLB entry, so warm writes stay
         O(1) instead of re-walking the guest tables per store. *)
      if access = Write then
        (match e.pte with
        | Some pte ->
            pte.Page_table.accessed <- true;
            pte.Page_table.dirty <- true
        | None -> (
            match Page_table.lookup t.gpt ~vpn with
            | Some pte ->
                pte.Page_table.accessed <- true;
                pte.Page_table.dirty <- true
            | None -> ()));
      e.frame
  | None ->
      (* Guest walk: 4 levels of guest-table loads.  Under nested paging
         each of those loads is itself a guest-physical access translated
         by the NPT, so we charge a nested walk per guest level plus one
         for the final data page — the classic two-dimensional walk. *)
      let levels = ref 0 in
      let entry = Page_table.walk t.gpt ~vpn ~levels_visited:levels in
      Cycles.tick t.clock (!levels * t.cost.pt_level_access);
      (match t.npt with
      | None -> ()
      | Some _ ->
          (* Nested translations of the guest's table-node loads; only
             charged while the surrounding region is cold in the nested
             cache (paging-structure caches + huge-page NPT otherwise
             absorb them, which is why Table 3 / Fig. 10 overheads are
             small). *)
          if not (Hashtbl.mem t.va_regions (vpn lsr 9)) then begin
            Cycles.tick t.clock (!levels * t.cost.pt_level_access);
            if Hashtbl.length t.va_regions >= nested_cache_capacity then
              Hashtbl.reset t.va_regions;
            Hashtbl.replace t.va_regions (vpn lsr 9) ()
          end);
      (match entry with
      | None -> raise (Page_fault { vpn; access; user; present = false })
      | Some (e : Page_table.entry) ->
          check_perms e access user ~vpn;
          e.accessed <- true;
          if access = Write then e.dirty <- true;
          let host_frame =
            match t.npt with
            | None -> e.frame
            | Some npt -> npt_resolve t npt e.frame access
          in
          Tlb.insert t.tlb ~vpn
            { Tlb.frame = host_frame; perms = e.perms; pte = Some e };
          host_frame)

let translate t ~access ~user va =
  let frame = translate_page t ~access ~user ~vpn:(Addr.page_of va) in
  Addr.base_of_page frame lor Addr.offset va

let switch_context t ~gpt ?npt () =
  t.gpt <- gpt;
  (* A different nested table invalidates the nested caches; a guest CR3
     write under the same NPT does not. *)
  (match (t.npt, npt) with
  | Some old_npt, Some new_npt when old_npt == new_npt -> ()
  | None, None -> ()
  | Some _, Some _ | Some _, None | None, Some _ ->
      Hashtbl.reset t.nested_regions);
  t.npt <- npt;
  Hashtbl.reset t.va_regions;
  Tlb.flush t.tlb;
  Cycles.tick t.clock t.cost.tlb_flush

let gpt t = t.gpt
let npt t = t.npt
let nested t = t.npt <> None

let flush_tlb t =
  Tlb.flush t.tlb;
  Hashtbl.reset t.va_regions;
  Cycles.tick t.clock t.cost.tlb_flush

let tlb t = t.tlb
