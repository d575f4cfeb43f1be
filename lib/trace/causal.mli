(** Causal-DAG reconstruction and critical-path latency attribution.

    The simulator stamps every message with a flow id and emits "msg"
    flow-start/flow-end events plus "xmit"/"recv" instants; handler-side
    records carry their triggering message's id in a ["cause"] argument.
    This module rebuilds the message DAG from such a stream and, for each
    payload delivered at its origin party, walks the parent chain of the
    delivery's triggering message, tiling the enqueue→deliver interval
    with named phases (pending, queue, transit, crypto, compute).  The
    remainder is reported explicitly as unattributed. *)

(** {2 Event ingestion} *)

val of_json : Json.value -> Event.t option
(** Convert one parsed JSONL trace record back into an {!Event.t};
    [None] when required fields are missing or the phase letter is
    unknown.  Integer-valued numbers become [Event.Int] arguments. *)

val of_jsonl : string -> (Event.t list, string) result
(** Parse a whole JSONL document and convert every well-formed record;
    [Error] carries the JSON parser's position-annotated reason. *)

(** {2 Attribution} *)

(** Wall-clock attribution buckets, in seconds of virtual time. *)
type phases = {
  mutable ph_pending : float;
      (** enqueue until the critical path's first send (batch queue wait) *)
  mutable ph_queue : float;
      (** arrival until handler dispatch (inbox wait behind the CPU) *)
  mutable ph_transit : float;  (** network latency (xmit → arrival) *)
  mutable ph_crypto : float;
      (** outermost crypto-charge spans inside handler execution *)
  mutable ph_compute : float;
      (** the rest of each send→xmit CPU window *)
}

val phases_fields : phases -> (string * float) list
(** The buckets as (name, seconds) pairs in canonical order. *)

(** One delivered payload's critical-path attribution. *)
type payload = {
  p_party : int;  (** origin party (the payload's sender) *)
  p_seq : int;  (** per-party sequence number *)
  p_enqueue : float;  (** enqueue instant at the origin *)
  p_deliver : float;  (** delivery instant at the origin *)
  p_total : float;  (** [p_deliver - p_enqueue] *)
  p_hops : int;  (** messages on the reconstructed critical path *)
  p_phases : phases;  (** per-phase attribution *)
  p_stages : (string * float) list;
      (** per-protocol-stage hop wall time, descending *)
  p_unattributed : float;  (** seconds the chain does not cover *)
  p_coverage : float;  (** attributed / total; 1.0 when total is 0 *)
}

(** A whole-trace attribution report. *)
type report = {
  r_messages : int;  (** messages seen in the trace *)
  r_unmatched : int;  (** deliveries skipped for lack of an enqueue *)
  r_payloads : payload list;  (** per-payload attributions, trace order *)
  r_phases : phases;  (** summed per-phase attribution *)
  r_stages : (string * float) list;  (** summed stage times, descending *)
  r_total : float;  (** summed enqueue→deliver latency *)
  r_unattributed : float;  (** summed unattributed seconds *)
  r_coverage : float;  (** attributed / total over all payloads *)
}

val analyze : Event.t list -> report
(** Reconstruct the DAG and attribute every origin-party delivery.
    Deterministic: equal streams yield byte-equal rendered reports. *)

val min_coverage : report -> float
(** The worst per-payload coverage in the report; 1.0 with no payloads. *)

val validate : Event.t list -> string list
(** Causal well-formedness errors (empty when the stream is sound):
    every flow/cause id must reference an emitted message or load-submit
    root, parent edges must be monotone in id (which rules out cycles and
    self-edges), and each message's send ≤ xmit ≤ recv ≤ dispatch with
    children never sent before their parent.  At most 20 errors are
    listed, with a final count line when more were found. *)

(** {2 Rendering} *)

val report_text : report -> string
(** Human-readable attribution tables (phases, stages, per payload). *)

val report_json : report -> string
(** The report as one deterministic ["sintra-critical-path-v1"] JSON
    object. *)
