(* Dead-export audit: list every [val] declared in a library interface
   ([lib/**/*.mli]) whose name appears in no other source file under the
   given roots, and exit 1 if there is any.  A value used only inside its
   own module should not be exported; one used nowhere should not exist.

   Usage: dead_exports.exe ROOT...   (the first root holds the library)

   Names are matched as whole identifiers anywhere in a file, comments
   included, so the audit errs towards calling a value used. *)

let is_ident_char = function
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '\'' -> true
  | _ -> false

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

(* Every .ml / .mli below [dir], skipping build and hidden directories. *)
let rec sources dir =
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.concat_map (fun name ->
         let path = Filename.concat dir name in
         if name.[0] = '_' || name.[0] = '.' then []
         else if Sys.is_directory path then sources path
         else if
           Filename.check_suffix name ".ml" || Filename.check_suffix name ".mli"
         then [ path ]
         else [])

let words s =
  let tbl = Hashtbl.create 256 in
  let n = String.length s in
  let i = ref 0 in
  while !i < n do
    if is_ident_char s.[!i] then begin
      let j = ref !i in
      while !j < n && is_ident_char s.[!j] do
        incr j
      done;
      Hashtbl.replace tbl (String.sub s !i (!j - !i)) ();
      i := !j
    end
    else incr i
  done;
  tbl

(* [val name] at the start of a line, any indentation. *)
let vals_of mli =
  String.split_on_char '\n' (read_file mli)
  |> List.filter_map (fun line ->
         let line = String.trim line in
         if String.length line > 4 && String.sub line 0 4 = "val " then begin
           let rest =
             String.trim (String.sub line 4 (String.length line - 4))
           in
           let k = ref 0 in
           while !k < String.length rest && is_ident_char rest.[!k] do
             incr k
           done;
           if !k > 0 then Some (String.sub rest 0 !k) else None
         end
         else None)
  |> List.sort_uniq compare

let () =
  let roots = List.tl (Array.to_list Sys.argv) in
  if roots = [] then begin
    prerr_endline "usage: dead_exports ROOT...";
    exit 2
  end;
  let files = List.concat_map sources roots in
  let index = List.map (fun f -> (f, words (read_file f))) files in
  let module_of f = Filename.remove_extension f in
  let dead =
    sources (List.hd roots)
    |> List.filter (fun f -> Filename.check_suffix f ".mli")
    |> List.concat_map (fun mli ->
           let own = module_of mli in
           List.filter_map
             (fun name ->
               if
                 List.exists
                   (fun (f, ws) -> module_of f <> own && Hashtbl.mem ws name)
                   index
               then None
               else Some (Printf.sprintf "%s: val %s" mli name))
             (vals_of mli))
  in
  List.iter print_endline dead;
  Printf.printf
    "dead_exports: %d exported value(s) referenced by no other module\n"
    (List.length dead);
  if dead <> [] then exit 1
