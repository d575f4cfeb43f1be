(** Source-file model for the linter, built from a single [Lex.tokenize]
    pass: the lossless token stream, the code tokens of each line (comments
    and string/char/quoted literals dropped, so line rules never fire inside
    them) and the allowlist directives found in comments.

    A directive [lint: allow <rule>[, <rule>...] — reason] inside a comment
    suppresses the named rules on every line the comment touches and on the
    first code-bearing line after it. *)

type t

val of_string : path:string -> string -> t
(** Lex file contents already in memory; [path] is used only for
    reporting. *)

val path : t -> string
(** The path the file was loaded under. *)

val tokens : t -> Lex.token list
(** The file's full {!Lex} token stream, trivia included. *)

val line_count : t -> int
(** Number of lines in the file. *)

val line_tokens : t -> int -> string list
(** The texts of the [Word], [Number], [Op] and [Punct] tokens that start
    on a 1-based line, in order. *)

val allowed : t -> rule:string -> line:int -> bool
(** Whether an allowlist directive suppresses [rule] on this line. *)

val allowed_anywhere : t -> rule:string -> bool
(** Whether any directive in the file names [rule] — used by whole-file
    rules that have no single anchor line. *)
