(** The discrete-event simulation core: a virtual clock and an event heap.

    All asynchrony in the reproduction comes from here; all randomness from
    the engine's seeded DRBG — a run is a pure function of its seed. *)

type t

val create : ?seed:string -> unit -> t
(** A fresh engine at time 0 with an empty heap; all randomness derives
    from [seed] (default ["sim"]). *)

val now : t -> float
(** Current virtual time, in seconds. *)

val drbg : t -> Hashes.Drbg.t
(** The engine's seeded generator — the run's only randomness source. *)

val set_sink : t -> Trace.Sink.t -> unit
(** Install a trace sink into the shared slot.  Contexts made by
    {!trace_ctx} alias that slot, so a sink installed after construction
    is seen by every instrumentation site. *)

val metrics : t -> Trace.Metrics.t
(** The run-wide metrics registry. *)

val trace_ctx : t -> party:int -> Trace.Ctx.t
(** A tracing context bound to this engine's clock, sink and registry. *)

val fresh_flow_id : t -> int
(** Allocate the next causal flow id (0, 1, 2, …).  Always advances,
    traced or not, so enabling tracing never perturbs the schedule. *)

val schedule : t -> delay:float -> (unit -> unit) -> unit
(** Run the thunk [delay] virtual seconds from now (negative clamps to 0). *)

val schedule_at : t -> time:float -> (unit -> unit) -> unit
(** Run the thunk at absolute virtual [time] (the past clamps to now). *)

val run : ?until:float -> ?max_events:int -> t -> int
(** Execute events in time order until the queue drains, [until] virtual
    seconds pass, or [max_events] fire.  Returns the number executed. *)

val pending : t -> int
(** Events still queued; [0] means the run quiesced. *)
