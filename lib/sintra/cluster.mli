(** The test-bed harness: a full SINTRA group — engine, network, dealer,
    one runtime per party — built from a topology, a configuration and a
    seed.  Every driver builds its groups here: the tests, the examples,
    the load sweeps, the vopr workloads and the benchmarks. *)

type t = {
  engine : Sim.Engine.t;
  net : Sim.Net.t;
  cfg : Config.t;
  dealer : Dealer.t;
  runtimes : Runtime.t array;
}

val create :
  ?seed:string -> ?dealer:Dealer.t -> ?engine_seed:string -> ?loss:float ->
  topo:Sim.Topology.t -> Config.t -> t
(** A fresh group.  [dealer] shares key material dealt once across many
    runs (key generation dominates set-up); without it the group deals its
    own under [seed] (default ["sintra"]).  The engine — every latency draw
    and protocol coin — is seeded by [engine_seed], default
    ["engine|" ^ seed].  [loss] switches the network to unreliable
    datagrams with the given per-frame loss probability, recovered by
    sliding-window links ({!Sim.Net.create_lossy}).
    @raise Invalid_argument if the topology size differs from [cfg.n], or
    [dealer] was dealt for another [(n, t)]. *)

val runtime : t -> int -> Runtime.t
(** Party [i]'s runtime. *)

val n : t -> int
(** The group size [cfg.n]. *)

val run : ?until:float -> ?max_events:int -> t -> int
(** Run the simulation to quiescence (or a bound); returns events executed. *)

val now : t -> float
(** Current virtual time of the engine. *)

val inject : ?cause:int -> t -> int -> (unit -> unit) -> unit
(** Queue an application action on party [i]'s virtual CPU (e.g. a client
    request causing a channel send) behind the work queued there, nested
    calls included; a crash before it starts drops it.  [cause] optionally
    names the causal flow id (a load generator's submit) triggering it. *)

val at : t -> time:float -> (unit -> unit) -> unit
(** Schedule an arbitrary action at an absolute virtual time (test
    scripting: staged sends, probes, fault injection). *)

val crash : t -> int -> unit
(** Net-level crash of party [i]: frames to and from it are dropped until
    {!recover}. *)

val recover : t -> int -> unit
(** Net-level recovery of a crashed party (protocol state intact — a pause,
    not a power failure; see {!Runtime.crash} for the state-losing kind). *)

val set_intercept : t -> (src:int -> dst:int -> string -> Sim.Net.action) -> unit
(** Install a per-frame adversary hook deciding deliver/drop/delay/replace
    for every frame on every link. *)

val set_sink : t -> Trace.Sink.t -> unit
(** Install a trace sink on the cluster's engine; every party's
    instrumentation reports through it. *)

val publish_metrics : t -> Trace.Metrics.t
(** Flush per-node network/CPU counters (and orphan-drop counts) into the
    registry, publish p50/p90/p99 summaries for every histogram, and
    return it.  Idempotent. *)

val stats : t -> string
(** {!publish_metrics}, rendered for reading: per-party message, byte,
    loopback, MAC, charged-CPU and exponentiation totals; the bounded
    tables (share-cache size now and at peak, its FIFO's peak, the
    statement table's peak); every other counter except per-link detail;
    and each latency histogram's count, mean and p50/p90/p99. *)

(** {2 Channels} *)

(** The paper's four broadcast channels (Section 2), in the column order
    of its Table 1. *)
type channel = Atomic | Secure | Reliable | Consistent

val channels : channel list
(** All four, in the order above. *)

val channel_name : channel -> string
(** ["atomic"], ["secure"], ["reliable"] or ["consistent"]. *)

val join :
  channel -> Runtime.t -> pid:string ->
  on_deliver:(sender:int -> string -> unit) -> string -> unit
(** Join channel [pid] of the given kind on one party; the result sends
    one payload on it.  [on_deliver] fires per delivered payload with its
    sender. *)
