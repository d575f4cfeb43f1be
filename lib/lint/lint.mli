(** sintra-lint driver plumbing: file discovery, running the rule set over
    a tree or over in-memory fixtures, and rendering findings.  This
    library never prints — the [sintra_lint] executable does. *)

type finding = Rules.finding = {
  file : string;
  line : int;      (** 1-based *)
  rule : string;
  message : string;
}

val rule_names : (string * string) list
(** [(name, one-line description)] for every rule, for docs and [--help]. *)

val discover : string list -> string list
(** All [.ml]/[.mli] files under the roots, sorted; skips hidden and
    [_build]-style directories. *)

val check_sources : (string * string) list -> finding list
(** Run the full rule set over [(path, contents)] pairs — the fixture entry
    point for tests.  Findings are sorted by file, then line. *)

val check_paths : string list -> finding list
(** [check_sources] over on-disk files. *)

val render : finding -> string
(** ["file:line: [rule] message"]. *)

module Doccheck : module type of Doccheck
(** The documentation checker behind the [@doc] alias (doc coverage of the
    strict interfaces, [\{!...\}] reference resolution). *)

module Baseline : module type of Baseline
(** The [.sintra-lint] policy file: [allow] and count-based [baseline]
    entries applied after the inline comment directives. *)

module Lex : module type of Lex
(** The lossless tokenizer behind the semantic rules. *)

module Sema : module type of Sema
(** The semantic rule family (S1–S7). *)

val per_rule : finding list -> (string * int) list
(** Finding counts per rule, in [rule_names] order (zero counts kept). *)

val summary : ?suppressed:int -> files:int -> finding list -> string
(** One-line human summary: files scanned, new findings, suppressed
    count (when [?suppressed] is given). *)

val render_json : files:int -> suppressed:int -> finding list -> string
(** One JSON object: [{"tool","files","suppressed","new","by_rule",
    "findings":[{"file","line","rule","message"}]}]. *)
