(** The in-memory metrics registry: named counters and fixed-bucket latency
    histograms, queryable at the end of a run.  Enumeration is sorted by
    name, never by hashtable order, so reports are deterministic. *)

type t
type counter
type hist

val create : unit -> t
(** An empty registry. *)

(** {2 Counters} *)

val counter : t -> string -> counter
(** Get or create.  @raise Invalid_argument if the name is a histogram. *)

val add : counter -> float -> unit
(** Add a (possibly negative) amount. *)

val inc : counter -> unit
(** [add c 1.0]. *)

val set : counter -> float -> unit
(** Overwrite the value (gauge-style use). *)

val value : counter -> float
(** The current value. *)

(** {2 Histograms} *)

val histogram : ?buckets:float array -> t -> string -> hist
(** Get or create a histogram with the given ascending bucket upper bounds
    (by default, latency bounds from 10 ms to 30 s) plus an implicit overflow bucket.
    @raise Invalid_argument if the name is a counter or bounds are not
    strictly ascending. *)

val observe : hist -> float -> unit
(** Record a value: it lands in the first bucket whose bound is >= value,
    or in the overflow bucket. *)

val hist_count : hist -> int
(** Observations recorded so far. *)

val hist_sum : hist -> float
(** Sum of all observed values. *)

val hist_mean : hist -> float
(** [hist_sum / hist_count]; 0 on an empty histogram. *)

val hist_name : hist -> string
(** The registered name. *)

val hist_buckets : hist -> (float * int) list
(** (upper bound, count) pairs; the overflow bucket reports [infinity]. *)

val hist_quantile : hist -> float -> float
(** Approximate quantile: the upper bound of the bucket holding the q-th
    observation.  Returns 0 on an empty histogram. *)

val merge_into : into:hist -> hist -> unit
(** Add [src]'s buckets into [into].
    @raise Invalid_argument if bucket bounds differ. *)

val publish_quantiles : t -> unit
(** For every histogram [h], set counters ["<h>/p50"], ["<h>/p90"] and
    ["<h>/p99"] to {!hist_quantile} at those ranks, so percentiles appear
    in plain counter dumps.  Idempotent. *)

(** {2 Deterministic enumeration} *)

val dump : t -> (string * float) list
(** All counters, sorted by name. *)

val hists : t -> hist list
(** All histograms, sorted by name. *)

val find_counter : t -> string -> counter option
(** Look up a counter without creating it. *)

val find_hist : t -> string -> hist option
(** Look up a histogram without creating it. *)

val to_json : t -> string
(** The whole registry as one deterministic JSON object. *)
