(** Deterministic random byte generator (SHA-256 in counter mode).

    Every piece of randomness in the repository flows through a seeded DRBG,
    so dealer key generation, simulated network jitter, fault injection and
    test corpora are all reproducible run-to-run. *)

type t

val create : seed:string -> t
(** A fresh generator; equal seeds yield identical output streams. *)

val reseed : t -> string -> unit
(** Mix extra entropy into the state and reset the output stream. *)

val bytes : t -> int -> string
(** [bytes t n] draws the next [n] bytes. *)

val int : t -> int -> int
(** [int t bound] is uniform in [[0, bound)]. @raise Invalid_argument if
    [bound <= 0]. *)

val float : t -> float -> float
(** [float t bound] is uniform in [[0, bound)]. *)

val bool : t -> bool
(** A uniform coin flip (one byte consumed). *)

val fork : t -> string -> t
(** [fork t label] derives an independent child stream.  Forks are keyed by
    the parent's {e current} state and [label] only, so use distinct labels
    for distinct children. *)

val random_bytes : t -> int -> string
(** [random_bytes t] as a partially-applied byte source, in the shape the
    [Bignum.Prime] generators expect. *)
