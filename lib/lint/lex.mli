(** The lossless OCaml tokenizer under every lint and doc rule: the
    semantic rules (S1–S7) walk its tokens, and {!Source} derives the line
    rules' per-line code tokens, the allowlist directives and the doc
    comments from the same stream.

    Every byte of the input lands in exactly one token — whitespace and
    comments included — so [concat (tokenize s) = s] for any input; the
    test suite checks this round-trip over every file the lint alias
    scans.  Qualified paths
    join across dots: [t.rt.Runtime.cfg] is a single [Word] token, which is
    what the semantic rules key on. *)

type kind =
  | Word        (** identifier, keyword, or dotted qualified path *)
  | Number
  | Op          (** maximal run of symbol characters, e.g. [->], [>=] *)
  | Punct       (** single delimiter; also the [[|] / [|]] array brackets *)
  | Str         (** ["..."] with escapes, possibly spanning lines *)
  | Chr         (** a char literal — never a type variable's quote *)
  | Quoted      (** [{|...|}] and [{id|...|id}] quoted strings *)
  | Comment     (** [(* ... *)], nesting-aware, strings inside respected *)
  | White

type token = {
  kind : kind;
  text : string;
  line : int;   (** 1-based start line *)
  col : int;    (** 0-based start column *)
}

val tokenize : string -> token list
(** Total: never raises; an unterminated comment or literal extends to the
    end of input. *)

val significant : token list -> token list
(** Drop [White] and [Comment] trivia. *)

val concat : token list -> string
(** Reassemble the exact input text (the round-trip property). *)

val is_keyword : string -> bool
(** Whether a [Word] token's text is an OCaml keyword. *)

val last_line : token -> int
(** The 1-based line the token ends on: [line] plus the newlines in
    [text]. *)
