(* The OCaml tokenizer behind every lint and doc rule.

   It keeps everything: every byte of the input lands in exactly one
   token, so concatenating the [text] fields reproduces the file — the
   property the round-trip meta-test checks over every file the lint alias
   scans.  Trivia (whitespace, comments) are tokens too; Sema filters them
   out with [significant], and Source groups the code tokens by line and
   reads allowlist directives and doc comments from the Comment tokens.
   This is the only code in the linter that tracks comment nesting or
   string, char and quoted-literal state.

   Qualified identifiers are joined across dots ([t.rt.Runtime.cfg] is one
   token), because every rule keys on qualified paths.  Known deliberate
   approximations, none of which matter to the rules: a float exponent
   splits from its sign only when malformed, a type variable ['a] is a
   ['] punctuation token followed by a word, and [#] directives lex as
   operator runs. *)

type kind =
  | Word        (* identifier / keyword / qualified path *)
  | Number
  | Op          (* maximal run of symbol characters *)
  | Punct       (* single delimiter, plus the [| and |] array brackets *)
  | Str         (* "..." with escapes, possibly spanning lines *)
  | Chr         (* 'c' or '\n' — a char literal, not a type variable *)
  | Quoted      (* {|...|} / {id|...|id} *)
  | Comment     (* (* ... *) with nesting; strings inside do not close it *)
  | White

type token = {
  kind : kind;
  text : string;
  line : int;   (* 1-based start line *)
  col : int;    (* 0-based start column *)
}

let is_white c = c = ' ' || c = '\t' || c = '\r' || c = '\n'
let is_digit c = c >= '0' && c <= '9'
let is_letter c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
let is_word_start c = is_letter c || c = '_'
let is_word_char c = is_word_start c || is_digit c || c = '\''
let is_sym c = String.contains "!$%&*+-./:<=>?@^|~#" c

let keywords =
  [ "and"; "as"; "assert"; "begin"; "class"; "constraint"; "do"; "done";
    "downto"; "else"; "end"; "exception"; "external"; "false"; "for"; "fun";
    "function"; "functor"; "if"; "in"; "include"; "inherit"; "initializer";
    "lazy"; "let"; "match"; "method"; "module"; "mutable"; "new"; "nonrec";
    "object"; "of"; "open"; "private"; "rec"; "sig"; "struct"; "then"; "to";
    "true"; "try"; "type"; "val"; "virtual"; "when"; "while"; "with" ]

let is_keyword (s : string) : bool = List.mem s keywords

let tokenize (input : string) : token list =
  let n = String.length input in
  let out = ref [] in
  let line = ref 1 and col = ref 0 in
  let pos = ref 0 in
  let peek k = if !pos + k < n then input.[!pos + k] else '\000' in
  (* Emit [input[start .. !pos)] as one token, updating line/col. *)
  let emit kind start =
    let text = String.sub input start (!pos - start) in
    out := { kind; text; line = !line; col = !col } :: !out;
    String.iter
      (fun c -> if c = '\n' then (incr line; col := 0) else incr col)
      text
  in
  (* Scan a "..." literal body starting just after the opening quote. *)
  let scan_string () =
    let fin = ref false in
    while (not !fin) && !pos < n do
      (match input.[!pos] with
       | '\\' -> pos := !pos + 1            (* skip the escaped char *)
       | '"' -> fin := true
       | _ -> ());
      pos := !pos + 1
    done;
    if !pos > n then pos := n                   (* a trailing backslash *)
  in
  while !pos < n do
    let start = !pos in
    let c = input.[!pos] in
    if is_white c then begin
      while !pos < n && is_white input.[!pos] do incr pos done;
      emit White start
    end
    else if c = '(' && peek 1 = '*' then begin
      (* Nested comment; a string literal inside it hides any closer it
         holds. *)
      pos := !pos + 2;
      let depth = ref 1 in
      while !depth > 0 && !pos < n do
        if input.[!pos] = '(' && peek 1 = '*' then (depth := !depth + 1; pos := !pos + 2)
        else if input.[!pos] = '*' && peek 1 = ')' then (decr depth; pos := !pos + 2)
        else if input.[!pos] = '"' then (incr pos; scan_string ())
        else incr pos
      done;
      emit Comment start
    end
    else if c = '"' then begin
      incr pos;
      scan_string ();
      emit Str start
    end
    else if c = '{'
            && (peek 1 = '|'
                || (let k = ref 1 in
                    while is_letter (peek !k) || peek !k = '_' do incr k done;
                    !k > 1 && peek !k = '|'))
    then begin
      (* {|...|} / {id|...|id}: find the id, then scan for |id}. *)
      incr pos;
      let id_start = !pos in
      while !pos < n && (is_letter input.[!pos] || input.[!pos] = '_') do incr pos done;
      let id = String.sub input id_start (!pos - id_start) in
      incr pos;                                   (* the opening '|' *)
      let close = "|" ^ id ^ "}" in
      let lc = String.length close in
      let fin = ref false in
      while (not !fin) && !pos < n do
        if input.[!pos] = '|' && !pos + lc <= n
           && String.sub input !pos lc = close
        then (pos := !pos + lc; fin := true)
        else incr pos
      done;
      emit Quoted start
    end
    else if c = '\'' && peek 1 = '\\' then begin
      (* '\n', '\\', '\'', '\xFF', '\123' *)
      pos := min n (!pos + 3);                    (* quote, backslash, first escaped char *)
      while !pos < n && input.[!pos] <> '\'' do incr pos done;
      if !pos < n then incr pos;
      emit Chr start
    end
    else if c = '\'' && peek 1 <> '\000' && peek 2 = '\'' && peek 1 <> '\'' then begin
      pos := !pos + 3;
      emit Chr start
    end
    else if is_digit c then begin
      while !pos < n && (is_word_char input.[!pos]) do incr pos done;
      (* one dot joins a float's fractional part / exponent *)
      if !pos < n && input.[!pos] = '.'
         && !pos + 1 < n
         && (is_digit input.[!pos + 1] || input.[!pos + 1] = 'e'
             || input.[!pos + 1] = 'E')
      then begin
        incr pos;
        while !pos < n && is_word_char input.[!pos] do incr pos done
      end;
      emit Number start
    end
    else if is_word_start c then begin
      while !pos < n && is_word_char input.[!pos] do incr pos done;
      (* join qualified paths: field access and module paths alike *)
      while !pos + 1 < n && input.[!pos] = '.' && is_word_start input.[!pos + 1] do
        pos := !pos + 2;
        while !pos < n && is_word_char input.[!pos] do incr pos done
      done;
      emit Word start
    end
    else if c = '[' && peek 1 = '|' then (pos := !pos + 2; emit Punct start)
    else if c = '|' && peek 1 = ']' then (pos := !pos + 2; emit Punct start)
    else if is_sym c then begin
      while !pos < n && is_sym input.[!pos]
            && not (input.[!pos] = '|' && peek 1 = ']')
            && not (input.[!pos] = '(' && peek 1 = '*')
      do incr pos done;
      emit Op start
    end
    else begin
      incr pos;
      emit Punct start
    end
  done;
  List.rev !out

let significant (toks : token list) : token list =
  List.filter (fun t -> t.kind <> White && t.kind <> Comment) toks

let concat (toks : token list) : string =
  String.concat "" (List.map (fun t -> t.text) toks)

let last_line (t : token) : int =
  let l = ref t.line in
  String.iter (fun c -> if c = '\n' then incr l) t.text;
  !l
