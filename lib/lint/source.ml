(* Source-file model for the linter, built from one Lex pass.

   A file is lexed once (Lex.tokenize) into (a) its lossless token stream,
   which the semantic rules walk, (b) per-line code tokens — the texts of
   the Word/Number/Op/Punct tokens grouped by start line, so string, char
   and quoted literals and comments never reach the line rules — and
   (c) the set of allowlist directives found in Comment tokens.

   An allowlist directive is a comment containing

     lint: allow <rule>[, <rule>...] — reason

   It suppresses findings of the named rule(s) on every line the comment
   touches and on the first following line that contains code, so both the
   trailing-comment and the comment-above styles work. *)

type t = {
  path : string;
  tokens : Lex.token list;
  code : string list array;           (* code tokens, index = line - 1 *)
  allows : (string * int, unit) Hashtbl.t;   (* (rule, 1-based line) *)
  file_allows : (string, unit) Hashtbl.t;    (* rules allowed file-wide *)
}

let path (s : t) = s.path
let tokens (s : t) = s.tokens
let line_count (s : t) = Array.length s.code
let line_tokens (s : t) (line : int) = s.code.(line - 1)

let allowed (s : t) ~(rule : string) ~(line : int) : bool =
  Hashtbl.mem s.allows (rule, line)

let allowed_anywhere (s : t) ~(rule : string) : bool =
  Hashtbl.mem s.file_allows rule

(* --- directive parsing --- *)

let is_ident_char c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
  || (c >= '0' && c <= '9') || c = '_' || c = '-'

(* Extract the rule names of every "lint: allow ..." directive in a comment
   body.  Rules are comma-separated identifiers; everything after them (the
   em-dash or hyphen and the reason) is ignored. *)
let directive_rules (comment : string) : string list =
  let key = "lint: allow" in
  let klen = String.length key in
  let len = String.length comment in
  let rec find_key i =
    if i + klen > len then None
    else if String.sub comment i klen = key then Some (i + klen)
    else find_key (i + 1)
  in
  match find_key 0 with
  | None -> []
  | Some start ->
    let rec rules acc i =
      let i = ref i in
      while !i < len && (comment.[!i] = ' ' || comment.[!i] = ',') do incr i done;
      let s = !i in
      while !i < len && is_ident_char comment.[!i] do incr i done;
      if !i = s then List.rev acc
      else begin
        let name = String.sub comment s (!i - s) in
        if !i < len && comment.[!i] = ',' then rules (name :: acc) !i
        else List.rev (name :: acc)
      end
    in
    rules [] start

(* --- building the model --- *)

(* Lines in [text]: a trailing newline ends the last line, it does not
   open another. *)
let count_lines (text : string) : int =
  let n = String.length text in
  let newlines = ref 0 in
  String.iter (fun c -> if c = '\n' then incr newlines) text;
  if n > 0 && text.[n - 1] = '\n' then !newlines else !newlines + 1

let of_string ~(path : string) (text : string) : t =
  let tokens = Lex.tokenize text in
  let nlines = count_lines text in
  let code = Array.make nlines [] in
  List.iter
    (fun (tok : Lex.token) ->
      match tok.Lex.kind with
      | Lex.Word | Lex.Number | Lex.Op | Lex.Punct ->
        code.(tok.Lex.line - 1) <- tok.Lex.text :: code.(tok.Lex.line - 1)
      | Lex.Str | Lex.Chr | Lex.Quoted | Lex.Comment | Lex.White -> ())
    tokens;
  let code = Array.map List.rev code in
  let allows : (string * int, unit) Hashtbl.t = Hashtbl.create 8 in
  let file_allows : (string, unit) Hashtbl.t = Hashtbl.create 4 in
  (* Each directive covers its comment's own lines plus the first
     code-bearing line after it. *)
  List.iter
    (fun (tok : Lex.token) ->
      if tok.Lex.kind = Lex.Comment then begin
        let last = Lex.last_line tok in
        List.iter
          (fun rule ->
            Hashtbl.replace file_allows rule ();
            for l = tok.Lex.line to last do
              Hashtbl.replace allows (rule, l) ()
            done;
            let l = ref (last + 1) in
            while !l <= nlines && code.(!l - 1) = [] do incr l done;
            if !l <= nlines then Hashtbl.replace allows (rule, !l) ())
          (directive_rules tok.Lex.text)
      end)
    tokens;
  { path; tokens; code; allows; file_allows }
