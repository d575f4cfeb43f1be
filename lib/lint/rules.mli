(** The sintra-lint rule set — protocol-safety rules for this codebase.

    - [hashtbl-order]: raw [Hashtbl.iter]/[Hashtbl.fold] (nondeterministic
      iteration order) outside the [Det] seam;
    - [poly-compare]: polymorphic [=]/[<>]/[compare] or physical [==]/[!=]
      applied to abstract bignum/crypto values;
    - [partial-fn]: partial functions in protocol code;
    - [debug-print]: stdout/stderr output from library code;
    - [missing-mli]: a [lib/] module without an interface.

    Any finding is suppressed by a per-line allowlist comment:
    [(* lint: allow <rule> — reason *)] on the offending line or the line
    above. *)

type finding = {
  file : string;
  line : int;      (** 1-based; file-level findings use line 1 *)
  rule : string;
  message : string;
}

val rule_names : (string * string) list
(** [(name, one-line description)] for every rule, for docs and [--help]. *)

val check_tree : Source.t list -> finding list
(** All rules over a file set, including [missing-mli]. *)
