(** The throughput sweep: latency-vs-offered-load curves for the atomic
    channel, batched against unbatched.

    For each group size the sweep runs the channel twice — once at the
    configured [max_batch] ({!Config.t}) (batched) and once at [max_batch = 1]
    (the pre-batching, one-payload-per-party rounds) — under
    {ul
    {- an {e open-loop} ladder: Poisson clients at increasing offered
       rates, measuring delivered throughput and completion latency at
       each point (overload included — open-loop clients do not throttle);}
    {- a {e closed-loop} saturation probe: a fixed population of clients
       with one request outstanding each, whose aggregate completion rate
       is the channel's sustainable throughput.}}

    All times are virtual seconds from the simulated clock; the real
    cryptography runs at small key sizes while the cost model prices the
    paper's 1024-bit keys, exactly as in the other benchmarks. *)

type point = {
  offered_per_s : float;
  (** Offered load across the group (requests per virtual second); for the
      closed-loop saturation point this equals the achieved throughput. *)
  issued : int;              (** requests issued by the generator *)
  completed : int;           (** completions observed by their clients *)
  delivered : int;           (** payloads delivered at the measuring party *)
  throughput_per_s : float;  (** [delivered / duration] *)
  latency_mean_s : float;    (** mean completion latency; 0 if none completed *)
  latency_p50_s : float;     (** median completion latency *)
  latency_p90_s : float;     (** 90th-percentile completion latency *)
}

type series = {
  n : int;                   (** group size *)
  t : int;                   (** corruption bound *)
  batched : bool;            (** false = forced [max_batch = 1] *)
  points : point list;       (** the open-loop ladder, one per offered rate *)
  saturation : point;        (** the closed-loop probe *)
  rounds : int;              (** agreement rounds at the measuring party
                                 during the saturation run *)
}

type report = {
  smoke : bool;              (** tiny parameters, CI-sized *)
  duration_s : float;        (** virtual seconds per measurement run *)
  series : series list;
}

val sweep_cfg :
  ?pipeline_depth:int -> n:int -> t:int -> max_batch:int -> unit ->
  Sintra.Config.t
(** The benchmark configuration: real 256-bit cryptography priced at the
    paper's 1024-bit key sizes, pseudo-random candidate permutation.
    [pipeline_depth] defaults to the {!Sintra.Config.make} default (a
    window of 4 rounds). *)

val make_cluster : seed:string -> Sintra.Config.t -> Sintra.Cluster.t
(** A fresh simulated group for one measurement run.  Dealers are cached
    per [(n, t)] across runs — key generation dominates setup and keys do
    not depend on the load shape. *)

val quantile : float array -> float -> float
(** [quantile sorted q] is the element at rank [q] (nearest-rank on a
    {e sorted} array); [0.0] when empty. *)

val run : ?smoke:bool -> unit -> report
(** Run the sweep under the fixed seed ["throughput"].  Full mode measures
    [n ∈ {4, 7, 10}] for 10 virtual seconds per point over rates
    [{5, 10, 20, 40, 80}] requests/s; [~smoke:true] shrinks this to
    [n = 4], 2 virtual seconds and a single rate so the whole sweep
    finishes in CI time.  The closed-loop probe runs 64 clients per party.
    The batched series caps vectors at [max_batch = 256]; the unbatched
    series runs [max_batch = 1] with [pipeline_depth = 1]: the paper's
    original one-payload-per-party sequential rounds. *)

val to_json : report -> string
(** Render the report as the [throughput] artifact ({!Artifact}). *)

val saturation_throughput : report -> n:int -> batched:bool -> float option
(** The closed-loop saturation throughput of one series, if present. *)
