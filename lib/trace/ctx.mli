(** A tracing context: the handle instrumentation sites hold.  Bundles the
    shared sink slot (a ref, so a sink can be installed after construction),
    the shared metrics registry, the virtual clock and the owning party.
    Every helper is a no-op costing one dereference when the sink is null.

    The metric helpers resolve each short name to its registry cell once
    per context and keep the handle, so a later update neither builds the
    ["p<party>/"] name nor hashes it; a gauge keeps its value and ["/max"]
    cells as one pair.  Cells are created in the registry on first use,
    as without the handles, so its contents and order do not change. *)

type t

val create :
  sink:Sink.t ref -> metrics:Metrics.t -> now:(unit -> float) -> party:int ->
  t
(** A context reading the clock through [now] and recording as [party];
    [sink] is aliased, not copied, so installing a sink later is seen. *)

val null : unit -> t
(** A context that never records anything (private sink ref and registry). *)

val enabled : t -> bool
(** True when the sink is live.  Instrumentation sites with nontrivial
    argument building should test this first. *)

val metrics : t -> Metrics.t
(** The shared metrics registry this context records into. *)

val now : t -> float
(** The current virtual time, read through the context's clock. *)

val cause : t -> int
(** The flow id of the message currently being handled on this party, or
    -1 outside a handler.  Maintained by the network layer. *)

val set_cause : t -> int -> unit
(** Install (or, with -1, clear) the current causal flow id.  Every record
    subsequently emitted through this context carries a ["cause"] argument
    until the id is cleared, which is how protocol spans join the DAG. *)

val emit_at :
  t -> time:float -> pid:string -> cat:string -> ph:Event.phase ->
  ?level:Event.level -> ?args:(string * Event.arg) list -> string -> unit
(** Emit a record at an explicit virtual time (crypto spans are anchored at
    charged-cost offsets rather than the current clock). *)

val span_begin :
  t -> pid:string -> cat:string -> ?args:(string * Event.arg) list ->
  string -> unit
(** Open a duration span at the current time; pair with {!span_end}. *)

val span_end :
  t -> pid:string -> cat:string -> ?args:(string * Event.arg) list ->
  string -> unit
(** Close the innermost open span with the same name/pid. *)

val instant :
  t -> pid:string -> cat:string -> ?level:Event.level ->
  ?args:(string * Event.arg) list -> string -> unit
(** Emit a point-in-time event at the current clock. *)

(** {2 Metrics conveniences}

    Names are prefixed ["p<party>/"] so per-party tables fall out of a
    plain sorted dump. *)

val count : t -> string -> float -> unit
(** Add to the per-party counter [name] (created on first use). *)

val incr : t -> string -> unit
(** [count t name 1.0]. *)

val observe : t -> ?buckets:float array -> string -> float -> unit
(** Record one sample into the per-party histogram [name]; [buckets]
    (upper bounds) only takes effect when the histogram is created. *)

val gauge : t -> string -> float -> unit
(** Overwrite the per-party counter [name] with the current level of some
    quantity (a gauge), and keep its high-water mark in ["<name>/max"] —
    used e.g. for the verified-share cache size, whose bound is asserted
    after a run. *)
