(** Committed benchmark artifacts: the one envelope every [BENCH_*.json]
    carries, and the floor table [sintra_sim bench-check] judges them by.

    An artifact is a JSON object whose first four keys are the envelope:
    {ul
    {- ["schema"]: ["sintra-bench-<name>-v<k>"], naming the artifact and
       the version of its row layout;}
    {- ["generator"]: the exact command that regenerates the file
       ([dune exec bench/main.exe -- [--full] <name>]), with no paths or
       timestamps;}
    {- ["seed"]: the determinism seed the generator ran under;}
    {- ["smoke"]: [true] for a CI-sized run, [false] for the full run.}}
    The artifact's own keys follow.  Five artifacts exist: [throughput],
    [latency], [perf], [vopr] and [durability]. *)

val render :
  name:string -> seed:string -> smoke:bool -> (string * string) list -> string
(** [render ~name ~seed ~smoke fields] is the text of artifact [name]:
    the envelope at the artifact's current schema version, then [fields]
    in order — each a key and its already-rendered JSON value — one per
    line.  Raises [Invalid_argument] for a name outside the floor table. *)

val rows : string list -> string
(** A JSON array with one already-rendered element per line, indented to
    sit as a {!render} field value. *)

val check : file:string -> Trace.Json.value -> (string, string list) result
(** Judge one parsed artifact read from [file]: the envelope (current
    schema version, a smoke flag, the generator command for that mode, a
    seed, none of the legacy ["format"], ["bench"] or ["version"] keys),
    then the floors of its schema.  A file named [BENCH_<name>.json] is the committed artifact
    and must hold a [<name>] report; the committed perf report must also
    come from the full run, so a 512-bit smoke report copied into its
    place fails.  [Ok] carries the schema id; [Error] lists every
    violation. *)

(** {2 Comparison against a baseline} *)

type change = {
  path : string;
  (** the leaf's place in the artifact: keys joined by ["."], list
      elements as [[i]], or [[i:s1,s2]] naming the element's string fields
      (["results[3:powmod2].ms_per_op"]) *)
  before : float option;   (** the baseline's value; [None] if absent *)
  after : float option;    (** this report's value; [None] if absent *)
}

val diff : baseline:Trace.Json.value -> Trace.Json.value -> change list
(** Every numeric leaf of either report, paired by path: this report's
    leaves in document order, then those only the baseline has.  What
    [sintra_sim bench-check --baseline] prints, so a change quotes its
    effect on an artifact row by row. *)

val changes_table : change list -> string
(** {!diff}'s changes as aligned lines of path, baseline value, this
    report's value and relative change ([=] when equal, [new] or [gone]
    when only one side has the row, [changed] from a zero baseline). *)
