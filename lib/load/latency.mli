(** The latency-attribution bench: traced open-loop runs at several
    offered loads, reporting completion-latency percentiles alongside a
    critical-path phase breakdown ({!Trace.Causal}) at each point.

    Each point's percentiles are over per-payload enqueue→deliver
    latencies — the same intervals the phase buckets tile — so the
    attribution explains exactly the latency being reported.  All numbers
    derive from virtual time and the run seed, never the wall clock, so
    the rendered JSON is byte-deterministic for a given seed. *)

(** One offered-load measurement with its attribution. *)
type point = {
  offered_per_s : float;  (** offered load across the group, requests/s *)
  issued : int;  (** requests issued by the open-loop clients *)
  completed : int;  (** completions observed by their clients *)
  payloads : int;  (** payloads the causal analysis attributed *)
  latency_p50_s : float;  (** median enqueue→deliver latency *)
  latency_p90_s : float;  (** 90th-percentile enqueue→deliver latency *)
  latency_p99_s : float;  (** 99th-percentile enqueue→deliver latency *)
  hops_mean : float;  (** mean critical-path length, in messages *)
  phases_s : (string * float) list;
      (** summed per-phase attribution, canonical order *)
  stages_s : (string * float) list;
      (** summed per-protocol-stage hop wall time, descending *)
  unattributed_s : float;  (** summed seconds the chains do not cover *)
  coverage : float;  (** attributed / total over all payloads *)
}

(** A whole bench run at one group size. *)
type report = {
  smoke : bool;  (** tiny parameters, CI-sized *)
  seed : string;  (** the determinism seed of the run *)
  n : int;  (** group size *)
  t : int;  (** corruption bound *)
  duration_s : float;  (** virtual seconds per measurement run *)
  points : point list;  (** one per offered rate, ascending *)
}

val run : ?smoke:bool -> ?rates:float list -> ?seed:string -> unit -> report
(** Run the bench at [n = 4], [t = 1] with payload batching capped at
    [max_batch = 256].  Full mode measures 8 virtual seconds per point over
    rates [{5, 10, 20, 40, 80}] requests/s; [~smoke:true] shrinks this to
    1 virtual second over [{10, 20, 40}] so the whole bench finishes in CI
    time.  [rates] overrides the ladder and [seed] (default ["latency"])
    the determinism seed. *)

val to_json : report -> string
(** Render the report as the [latency] artifact ({!Artifact}).
    Byte-deterministic for a given seed. *)
