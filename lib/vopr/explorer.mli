(** The seed-sweeping schedule explorer with counterexample shrinking.

    For each seed index [k] in a sweep, the run seed is
    [base ^ "#" ^ string_of_int k]; a schedule is derived from a DRBG
    seeded ["sched|" ^ run_seed], the workload runs under it, and the
    oracle suite judges the result.  On failure, the schedule is shrunk by
    delta debugging (ddmin over the mutation list, re-running the
    deterministic workload for each candidate) to a minimal failing
    schedule, and {!repro} renders the exact CLI line that replays it. *)

type runner = seed:string -> Schedule.t -> Oracle.obs
(** One deterministic workload run (see {!Workload.runner}). *)

(** Why a run failed. *)
type fail = {
  oracle : string;
      (** the failing oracle's name, or ["invariant"] / ["exception"] for
          runs that raised instead of finishing *)
  reason : string;  (** the oracle's verdict message *)
}

(** The judgement of one run. *)
type outcome = Clean | Failed of fail

val check : Oracle.oracle list -> Oracle.obs -> outcome
(** First failing oracle wins, in suite order. *)

val eval :
  runner:runner -> oracles:Oracle.oracle list -> seed:string -> Schedule.t ->
  outcome
(** Run and judge once; exceptions (including invariant violations) are
    converted into failures rather than propagated. *)

val shrink :
  runner:runner -> oracles:Oracle.oracle list -> seed:string -> budget:int ->
  Schedule.t -> fail -> Schedule.t * fail * int
(** [shrink ~runner ~oracles ~seed ~budget sched f] minimizes a failing
    schedule: returns a sub-list that still fails (with its possibly
    different failure) and the number of verification runs spent, at most
    [budget].  The failure an oracle reports for the minimal schedule may
    differ from the original — both are kept in {!failure}. *)

(** One failing seed, with its original and shrunk schedules. *)
type failure = {
  index : int;  (** seed index within the sweep *)
  run_seed : string;  (** the full run seed, [base ^ "#" ^ index] *)
  schedule : Schedule.t;  (** the generated schedule *)
  outcome : fail;  (** the original failure *)
  shrunk : Schedule.t;  (** the minimal failing schedule found *)
  shrunk_outcome : fail;  (** the failure the minimal schedule produces *)
  shrink_runs : int;  (** verification runs the shrinker spent *)
}

(** The result of a sweep. *)
type report = {
  base_seed : string;  (** the sweep's base seed *)
  runs : int;  (** total workload runs, including shrinking *)
  failures : failure list;  (** failing seeds, in sweep order *)
}

val run_seed_of : base:string -> int -> string
(** The run seed for sweep index [k]: [base ^ "#" ^ string_of_int k]. *)

val schedule_of :
  run_seed:string -> n:int -> max_faulty:int -> allow_equiv:bool -> Schedule.t
(** The schedule a sweep derives for [run_seed]: {!Schedule.generate} from
    a DRBG seeded ["sched|" ^ run_seed]. *)

val explore :
  ?progress:(int -> unit) -> ?max_failures:int -> ?shrink_budget:int ->
  runner:runner -> oracles:Oracle.oracle list ->
  generate:(run_seed:string -> Schedule.t) -> seed:string -> seeds:int ->
  unit -> report
(** Sweep [seeds] consecutive seed indices; stop early after
    [max_failures] (default 1) failing seeds.  Each failure is shrunk
    within [shrink_budget] (default 200) extra runs.  [progress] is called
    with each index before its run. *)

val repro :
  workload:Oracle.kind -> base_seed:string -> failure -> string
(** The CLI line replaying one failure's shrunk schedule exactly. *)
