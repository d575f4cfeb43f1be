(* Documentation checker backing the @doc alias.

   Coverage works off the same Source model as the linter, built from one
   Lex pass: declarations are read from each line's code tokens, so keyword
   detection never fires inside prose, and doc-comment spans are the
   Comment tokens that open with "(**".  {!...} references are found in
   the raw text. *)

type finding = {
  file : string;
  line : int;
  rule : string;
  message : string;
}

type file = {
  library : string;
  path : string;
  contents : string;
  strict : bool;
}

(* --- doc-comment spans -------------------------------------------------- *)

(* A doc comment opens with exactly "(**", not followed by another '*' or
   ')': "(**)" and "(*** banner ***)" are plain comments. *)
let is_doc (text : string) : bool =
  String.length text > 3
  && String.starts_with ~prefix:"(**" text
  && text.[3] <> '*' && text.[3] <> ')'

(* (start_line, end_line) of every doc comment, 1-based. *)
let doc_spans (src : Source.t) : (int * int) list =
  List.filter_map
    (fun (t : Lex.token) ->
      if t.Lex.kind = Lex.Comment && is_doc t.Lex.text then
        Some (t.Lex.line, Lex.last_line t)
      else None)
    (Source.tokens src)

(* --- declared items ----------------------------------------------------- *)

type item = {
  kind : string;          (* "val" | "type" | "module" | "exception" | "include" *)
  name : string;          (* "" when anonymous (include) *)
  item_line : int;
  scope : string list;    (* enclosing nested-module names, outermost first *)
}

let is_lower_ident (s : string) : bool =
  String.length s > 0
  && (match s.[0] with 'a' .. 'z' | '_' -> true | _ -> false)
  && String.for_all
       (function 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '\'' -> true | _ -> false)
       s

let is_upper_ident (s : string) : bool =
  String.length s > 0
  && (match s.[0] with 'A' .. 'Z' -> true | _ -> false)

(* The declaration name of a `type`/`and` item: the first lowercase
   identifier after the parameters.  A type variable ['a] lexes as ['] and
   [a]; the quote skips its name. *)
let type_name (tokens : string list) : string =
  let rec scan = function
    | [] -> ""
    | "'" :: _ :: rest -> scan rest
    | t :: rest ->
      if is_lower_ident t && t <> "nonrec" then t
      else if t = "=" || t = ":" then ""
      else scan rest
  in
  scan tokens

let items_of_source (src : Source.t) : item list =
  let items = ref [] in
  let scope : string list ref = ref [] in       (* innermost first *)
  let pending_module = ref "" in
  let brace_depth = ref 0 in                    (* inside a record type body *)
  for ln = 1 to Source.line_count src do
    let tokens = Source.line_tokens src ln in
    let emit kind name =
      items := { kind; name; item_line = ln; scope = List.rev !scope } :: !items
    in
    (match tokens with
     | "val" :: name :: _ when is_lower_ident name -> emit "val" name
     | "exception" :: name :: _ when is_upper_ident name -> emit "exception" name
     | "include" :: _ -> emit "include" ""
     | "type" :: rest -> emit "type" (type_name rest)
     | "and" :: rest when type_name rest <> "" -> emit "type" (type_name rest)
     | "module" :: "type" :: name :: _ -> emit "module" name
     | "module" :: name :: _ when is_upper_ident name ->
       emit "module" name;
       pending_module := name
     (* record fields, referenceable as {!Module.field}; not coverage items *)
     | "mutable" :: name :: ":" :: _ when !brace_depth > 0 && is_lower_ident name ->
       emit "field" name
     | name :: ":" :: _ when !brace_depth > 0 && is_lower_ident name ->
       emit "field" name
     | _ -> ());
    List.iter
      (fun t ->
        if t = "sig" then begin
          scope := !pending_module :: !scope;
          pending_module := ""
        end
        else if t = "end" then begin
          match !scope with [] -> () | _ :: outer -> scope := outer
        end
        else if t = "{" then incr brace_depth
        else if t = "}" then (if !brace_depth > 0 then decr brace_depth))
      tokens
  done;
  List.rev !items

(* --- symbol table ------------------------------------------------------- *)

(* Registered module paths (e.g. ["Bignum"; "Nat"; "Montgomery"]) with
   their member names.  Assoc-list keyed by the dotted path: the scanned
   sets are small and order stays deterministic. *)
type table = {
  mutable modules : (string * string list ref) list;   (* dotted path -> members *)
  mutable per_file : (string * string list) list;      (* path -> local names *)
}

let module_key (path : string list) : string = String.concat "." path

let members (tbl : table) (path : string list) : string list ref =
  let key = module_key path in
  match List.assoc_opt key tbl.modules with
  | Some m -> m
  | None ->
    let m = ref [] in
    tbl.modules <- (key, m) :: tbl.modules;
    m

let add_member (tbl : table) (path : string list) (name : string) : unit =
  if name <> "" then begin
    let m = members tbl path in
    if not (List.mem name !m) then m := name :: !m
  end

let top_module_of_path (path : string) : string =
  String.capitalize_ascii (Filename.remove_extension (Filename.basename path))

let file_base (f : file) : string list =
  let top = top_module_of_path f.path in
  if f.library = "" then [ top ] else [ f.library; top ]

let build_table (files : (file * item list) list) : table =
  let tbl = { modules = []; per_file = [] } in
  List.iter
    (fun (f, items) ->
      let base = file_base f in
      (match base with
       | lib :: _ :: _ -> add_member tbl [ lib ] (top_module_of_path f.path)
       | _ -> ());
      ignore (members tbl base);
      let locals = ref [] in
      List.iter
        (fun it ->
          let parent = base @ it.scope in
          add_member tbl parent it.name;
          if it.kind = "module" && it.name <> "" then
            ignore (members tbl (parent @ [ it.name ]));
          if it.name <> "" && not (List.mem it.name !locals) then
            locals := it.name :: !locals)
        items;
      tbl.per_file <- (f.path, !locals) :: tbl.per_file)
    files;
  tbl

(* [segs] names a module iff it is a suffix of some registered path. *)
let module_matches (tbl : table) (segs : string list) : string list option =
  let suffix_of full =
    let lf = List.length full and ls = List.length segs in
    lf >= ls
    && (let rec drop k l =
          match l with _ :: tl when k > 0 -> drop (k - 1) tl | _ -> l
        in
        drop (lf - ls) full = segs)
  in
  let rec scan = function
    | [] -> None
    | (key, _) :: rest ->
      let full = String.split_on_char '.' key in
      if suffix_of full then Some full else scan rest
  in
  scan tbl.modules

let resolves (tbl : table) ~(path : string) (ref_text : string) : bool =
  let segs = String.split_on_char '.' ref_text in
  match segs with
  | [] -> false
  | [ single ] ->
    let locals =
      match List.assoc_opt path tbl.per_file with Some l -> l | None -> []
    in
    List.mem single locals || module_matches tbl [ single ] <> None
  | _ ->
    (match module_matches tbl segs with
     | Some _ -> true
     | None ->
       let rec split_last acc = function
         | [] -> (List.rev acc, "")
         | [ last ] -> (List.rev acc, last)
         | hd :: tl -> split_last (hd :: acc) tl
       in
       let prefix, last = split_last [] segs in
       (match module_matches tbl prefix with
        | None -> false
        | Some full ->
          (match List.assoc_opt (module_key full) tbl.modules with
           | Some m -> List.mem last !m
           | None -> false)))

(* --- {!...} references -------------------------------------------------- *)

type reference = { ref_line : int; kind : string; target : string }

let refs_of_contents (contents : string) : reference list =
  let n = String.length contents in
  let out = ref [] in
  let line = ref 1 in
  let i = ref 0 in
  while !i < n do
    (if contents.[!i] = '\n' then incr line);
    (* \{ is odoc's escape for a literal brace: not a reference *)
    if !i + 1 < n && contents.[!i] = '{' && contents.[!i + 1] = '!'
       && not (!i > 0 && contents.[!i - 1] = '\\') then begin
      let j = ref (!i + 2) in
      let ident_char c =
        match c with
        | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '.' | '\'' -> true
        | _ -> false
      in
      let start = !j in
      while !j < n && ident_char contents.[!j] do incr j done;
      let head = String.sub contents start (!j - start) in
      let kind, target =
        if !j < n && contents.[!j] = ':' then begin
          let start2 = !j + 1 in
          let k = ref start2 in
          while !k < n && ident_char contents.[!k] do incr k done;
          (head, String.sub contents start2 (!k - start2))
        end
        else ("", head)
      in
      out := { ref_line = !line; kind; target } :: !out;
      i := !j
    end;
    incr i
  done;
  List.rev !out

(* --- the checker -------------------------------------------------------- *)

let check_coverage (f : file) (items : item list) (spans : (int * int) list)
    (line_count : int) : finding list =
  let item_lines = List.map (fun it -> it.item_line) items in
  let next_item_after ln =
    List.fold_left
      (fun acc l -> if l > ln && l < acc then l else acc)
      (line_count + 1) item_lines
  in
  List.filter_map
    (fun (it : item) ->
      if it.kind <> "val" then None
      else begin
        let v = it.item_line in
        let limit = next_item_after v in
        let documented =
          List.exists
            (fun (s, e) -> e = v - 1 || (s >= v && s < limit))
            spans
        in
        if documented then None
        else
          Some {
            file = f.path; line = v; rule = "doc-coverage";
            message =
              Printf.sprintf "val %s has no documentation comment"
                (String.concat "."
                   (List.filter (fun s -> s <> "") (it.scope @ [ it.name ])));
          }
      end)
    items

let skip_kinds = [ "section"; "label"; "modules"; "page" ]

let check_refs (tbl : table) (f : file) : finding list =
  List.filter_map
    (fun (r : reference) ->
      if List.mem r.kind skip_kinds then None
      else if r.target = "" then
        Some { file = f.path; line = r.ref_line; rule = "doc-ref";
               message = "empty or malformed {!...} reference" }
      else if resolves tbl ~path:f.path r.target then None
      else
        Some { file = f.path; line = r.ref_line; rule = "doc-ref";
               message = Printf.sprintf "unresolved reference {!%s}" r.target })
    (refs_of_contents f.contents)

let check (files : file list) : finding list =
  let parsed =
    List.map
      (fun f ->
        let src = Source.of_string ~path:f.path f.contents in
        (f, src, items_of_source src))
      files
  in
  let tbl = build_table (List.map (fun (f, _, items) -> (f, items)) parsed) in
  let findings =
    List.concat_map
      (fun (f, src, items) ->
        let coverage =
          if f.strict then
            check_coverage f items (doc_spans src) (Source.line_count src)
          else []
        in
        coverage @ check_refs tbl f)
      parsed
  in
  List.sort
    (fun a b ->
      match String.compare a.file b.file with
      | 0 -> compare a.line b.line
      | c -> c)
    findings

let render (f : finding) : string =
  Printf.sprintf "%s:%d: [%s] %s" f.file f.line f.rule f.message
