(* Driver plumbing for sintra-lint: file discovery, running the rule set,
   and rendering findings.  Kept free of I/O to stdout — printing is the
   executable's job (rule debug-print applies to this library too). *)

type finding = Rules.finding = {
  file : string;
  line : int;
  rule : string;
  message : string;
}

let rule_names : (string * string) list = Rules.rule_names @ Sema.rule_names

(* Recursively collect .ml/.mli files under the given roots, in a sorted,
   platform-independent order.  Hidden and build directories are skipped. *)
let discover (roots : string list) : string list =
  let skip_dir name =
    String.length name = 0 || name.[0] = '.' || name.[0] = '_'
  in
  let rec walk acc path =
    if Sys.is_directory path then
      Array.to_list (Sys.readdir path)
      |> List.sort String.compare
      |> List.fold_left
           (fun acc entry ->
             if skip_dir entry then acc
             else walk acc (Filename.concat path entry))
           acc
    else if Filename.check_suffix path ".ml" || Filename.check_suffix path ".mli"
    then path :: acc
    else acc
  in
  List.rev (List.fold_left walk [] roots)

(* Each file is lexed once; the line rules and the semantic rules share the
   result. *)
let check_sources (sources : (string * string) list) : finding list =
  let srcs =
    List.map (fun (path, text) -> Source.of_string ~path text) sources
  in
  let by_location a b =
    let c = String.compare a.file b.file in
    if c <> 0 then c
    else
      let c = Int.compare a.line b.line in
      if c <> 0 then c else String.compare a.rule b.rule
  in
  List.sort by_location (Rules.check_tree srcs @ Sema.check_tree srcs)

let read_file (path : string) : string =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let text = really_input_string ic n in
  close_in ic;
  text

let check_paths (paths : string list) : finding list =
  check_sources (List.map (fun p -> (p, read_file p)) paths)

let render (f : finding) : string =
  Printf.sprintf "%s:%d: [%s] %s" f.file f.line f.rule f.message

module Doccheck = Doccheck
module Baseline = Baseline
module Lex = Lex
module Sema = Sema

(* Findings per rule, in rule_names order, zero-count rules included — the
   driver's per-rule summary table. *)
let per_rule (findings : finding list) : (string * int) list =
  List.map
    (fun (rule, _) ->
      (rule, List.length (List.filter (fun f -> f.rule = rule) findings)))
    rule_names

let summary ?(suppressed = 0) ~(files : int) (findings : finding list) :
    string =
  let supp =
    if suppressed = 0 then ""
    else Printf.sprintf " (%d suppressed by policy)" suppressed
  in
  if findings = [] then
    Printf.sprintf "sintra-lint: OK — %d files, %d rules, 0 new violations%s"
      files (List.length rule_names) supp
  else
    Printf.sprintf "sintra-lint: %d new violation%s in %d files%s"
      (List.length findings)
      (if List.length findings = 1 then "" else "s")
      files supp

(* --- machine-readable output --- *)

let json_escape (s : string) : string =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let render_json ~(files : int) ~(suppressed : int) (findings : finding list) :
    string =
  let finding_json (f : finding) =
    Printf.sprintf
      "{\"file\":\"%s\",\"line\":%d,\"rule\":\"%s\",\"message\":\"%s\"}"
      (json_escape f.file) f.line (json_escape f.rule) (json_escape f.message)
  in
  let rules_json =
    per_rule findings
    |> List.map (fun (rule, count) ->
         Printf.sprintf "\"%s\":%d" (json_escape rule) count)
    |> String.concat ","
  in
  Printf.sprintf
    "{\"tool\":\"sintra-lint\",\"files\":%d,\"suppressed\":%d,\"new\":%d,\
     \"by_rule\":{%s},\"findings\":[%s]}"
    files suppressed (List.length findings) rules_json
    (String.concat "," (List.map finding_json findings))
