(** The structured trace-event model: one record per observation, carrying
    the virtual clock, the party (Chrome "process") and the protocol
    instance pid (Chrome "thread").  Records are pure functions of the
    simulation seed, which is what makes traces byte-reproducible. *)

type arg =
  | Int of int
  | Float of float
  | Str of string
  | Bool of bool

type phase =
  | Span_begin                    (** Chrome "B" *)
  | Span_end                      (** Chrome "E" *)
  | Instant                       (** Chrome "i" *)
  | Counter                       (** Chrome "C" *)
  | Flow_start                    (** Chrome "s": a causal edge leaves here *)
  | Flow_end                      (** Chrome "f": the edge lands here *)

type level = Info | Warn

type t = {
  time : float;                   (** virtual seconds *)
  party : int;                    (** 0-based party id; -1 for global records *)
  pid : string;                   (** protocol instance id; "" for party-level *)
  cat : string;                   (** bcast | aba | abc | opt | crypto | net | runtime *)
  name : string;
  ph : phase;
  level : level;
  args : (string * arg) list;
}

val make :
  ?level:level -> ?args:(string * arg) list -> time:float -> party:int ->
  pid:string -> cat:string -> ph:phase -> string -> t
(** Build a record; [level] defaults to [Info], [args] to []. *)

val phase_letter : phase -> string
(** The Chrome trace-event phase letter ("B", "E", "i", "C", "s" or "f"). *)

val phase_of_letter : string -> phase option
(** The inverse of {!phase_letter}; [None] on an unknown letter. *)

val level_name : level -> string
(** ["info"] or ["warn"]. *)

val escape : string -> string
(** JSON string escaping (quotes not included). *)

val float_str : float -> string
(** Deterministic fixed-point float rendering used by every sink. *)

val args_json : (string * arg) list -> string
(** An argument list as one JSON object (field order preserved). *)
