(* The sintra-lint rule set.

   Five rules target this codebase's real protocol-safety hazards.  They
   work on each line's code tokens (Source, from one Lex pass), so string
   literals and comments never trigger them, and every rule can be
   suppressed per line with

     (* lint: allow <rule> — reason *)

   L1 hashtbl-order   Hashtbl.iter/Hashtbl.fold outside Det: iteration
                      order is seed- and history-dependent, so anything
                      derived from it (vote lists, share subsets, message
                      bytes) breaks replay determinism.
   L2 poly-compare    polymorphic =/<>/compare and physical ==/!= applied
                      to bignum/crypto abstract values, whose structural
                      representation is not canonical.
   L3 partial-fn      partial functions (List.hd, Option.get, Hashtbl.find,
                      failwith, ...) in protocol code: a malformed message
                      must never be able to raise.
   L4 debug-print     stdout/stderr output from library code.
   L5 missing-mli     a lib/ module without an interface file.  *)

type finding = {
  file : string;
  line : int;                     (* 1-based; 0 for file-level findings *)
  rule : string;
  message : string;
}

let l1 = "hashtbl-order"
let l2 = "poly-compare"
let l3 = "partial-fn"
let l4 = "debug-print"
let l5 = "missing-mli"

let rule_names : (string * string) list = [
  (l1, "raw Hashtbl.iter/fold: nondeterministic order; use Det or allowlist");
  (l2, "polymorphic/physical comparison of abstract (bignum/crypto) values");
  (l3, "partial function in protocol code (List.hd, Option.get, Hashtbl.find, failwith, ...)");
  (l4, "debug output (print_endline, Printf.printf, ...) in library code");
  (l5, "lib/ module without a .mli interface");
]

(* --- path predicates --- *)

let segments (path : string) : string list = String.split_on_char '/' path

let under_lib (path : string) : bool = List.mem "lib" (segments path)

(* test/ and bench/ are scanned only by the determinism rule (Sema S1):
   test code legitimately uses List.hd, printf, raw Hashtbl folds.
   examples/ and benchmark/ are read only as callers for S8 unused-export. *)
let aux_tree (path : string) : bool =
  List.exists (fun d -> List.mem d [ "test"; "bench"; "examples"; "benchmark" ])
    (segments path)

let is_ml (path : string) = Filename.check_suffix path ".ml"

(* The Det library is the sanctioned Hashtbl-iteration seam; its own
   implementation necessarily folds over tables. *)
let in_det (path : string) : bool = List.mem "det" (segments path)

(* --- token helpers --- *)

let ends_with_name (tok : string) (name : string) : bool =
  tok = name
  || (let lt = String.length tok and ln = String.length name in
      lt > ln + 1
      && String.sub tok (lt - ln) ln = name
      && tok.[lt - ln - 1] = '.')

let token_is (names : string list) (tok : string) : bool =
  List.exists (fun n -> ends_with_name tok n) names

let abstract_prefixes = [ "Nat."; "Bignum."; "Bigint."; "Group." ]

let contains_sub (s : string) (sub : string) : bool =
  let ls = String.length s and lsub = String.length sub in
  let rec go i = i + lsub <= ls && (String.sub s i lsub = sub || go (i + 1)) in
  go 0

let mentions_abstract (tok : string) : bool =
  List.exists (fun p -> contains_sub tok p) abstract_prefixes

let is_word_token (tok : string) : bool =
  tok <> ""
  && (let c = tok.[0] in
      (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
      || (c >= '0' && c <= '9') || c = '\'')

(* Classify an [=] token: walking left over identifiers and type/parameter
   punctuation, a binder keyword means let-binding / record-field /
   optional-argument syntax, anything else means comparison.  Running off
   the start of the line (a multi-line binding) counts as a binding, the
   conservative direction for a lint. *)
let binders = [ "let"; "and"; "rec"; "type"; "module"; "val"; "external";
                "method"; "for"; "{"; ";"; "?"; "~"; "with" ]

let eq_is_binding (before_rev : string list) : bool =
  let rec go = function
    | [] -> true
    | tok :: rest ->
      if List.mem tok binders then true
      else if is_word_token tok || tok = ")" || tok = "(" || tok = ":" || tok = ","
              || tok = "->" || tok = "*"       (* type annotations: (x : a -> b * c) = *)
      then go rest
      else false
  in
  go before_rev

(* --- the line rules --- *)

let hashtbl_iteration = [ "Hashtbl.iter"; "Hashtbl.fold" ]

let partial_functions =
  [ "List.hd"; "List.tl"; "List.nth"; "Option.get"; "Hashtbl.find";
    "List.assoc"; "List.find"; "failwith" ]

let print_functions =
  [ "print_endline"; "print_string"; "print_newline"; "print_int";
    "print_float"; "print_char"; "prerr_endline"; "prerr_string";
    "Printf.printf"; "Printf.eprintf"; "Format.printf"; "Format.eprintf" ]

let check_line ~(path : string) (toks : string list) : (string * string) list =
  let arr = Array.of_list toks in
  let n = Array.length arr in
  let out = ref [] in
  let add rule msg = out := (rule, msg) :: !out in
  for k = 0 to n - 1 do
    let tok = arr.(k) in
    (* L1 *)
    if (not (in_det path)) && token_is hashtbl_iteration tok then
      add l1
        (Printf.sprintf
           "%s iterates in nondeterministic order; use Det.bindings/values/iter \
            with an explicit key order" tok);
    (* L2: physical equality *)
    if tok = "==" || tok = "!=" then
      add l2 (tok ^ " is physical equality; use structural or typed comparison");
    (* L2: bare polymorphic compare near abstract values *)
    let line_abstract = Array.exists mentions_abstract arr in
    if line_abstract
       && (tok = "compare" || tok = "Stdlib.compare" || tok = "Pervasives.compare")
       && not (k > 0 && arr.(k - 1) = "~")          (* a ~compare: label *)
    then
      add l2
        "polymorphic compare near an abstract bignum/crypto value; use the \
         module's typed compare/equal";
    (* L2: =/<> with an abstract operand *)
    if tok = "=" || tok = "<>" then begin
      let before_rev = List.rev (Array.to_list (Array.sub arr 0 k)) in
      let is_cmp = tok = "<>" || not (eq_is_binding before_rev) in
      let neighbor_abstract =
        (k > 0 && mentions_abstract arr.(k - 1))
        || (k + 1 < n && mentions_abstract arr.(k + 1))
      in
      if is_cmp && neighbor_abstract then
        add l2
          (Printf.sprintf
             "polymorphic %s applied to an abstract bignum/crypto value; use \
              the module's typed equal/compare" tok)
    end;
    (* L3 *)
    if token_is partial_functions tok then
      add l3
        (Printf.sprintf
           "%s is partial; use the _opt variant or explicit matching so \
            malformed input cannot raise" tok);
    (* L4 *)
    if under_lib path && token_is print_functions tok then
      add l4 (tok ^ ": library code must not write to stdout/stderr")
  done;
  List.rev !out

let check_file (src : Source.t) : finding list =
  let path = Source.path src in
  if aux_tree path then []
  else begin
  let out = ref [] in
  for line = 1 to Source.line_count src do
    List.iter
      (fun (rule, message) ->
        if not (Source.allowed src ~rule ~line) then
          out := { file = path; line; rule; message } :: !out)
      (check_line ~path (Source.line_tokens src line))
  done;
  List.rev !out
  end

(* --- the tree rule (L5) --- *)

let check_tree (srcs : Source.t list) : finding list =
  let paths = List.map Source.path srcs in
  let line_findings = List.concat_map check_file srcs in
  let mli_findings =
    List.filter_map
      (fun src ->
        let path = Source.path src in
        if is_ml path && under_lib path
           && not (List.mem (Filename.remove_extension path ^ ".mli") paths)
           && not (Source.allowed_anywhere src ~rule:l5)
        then
          Some { file = path; line = 1; rule = l5;
                 message = "lib/ module has no .mli interface" }
        else None)
      srcs
  in
  line_findings @ mli_findings
