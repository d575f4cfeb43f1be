(* A tracing context: the handle instrumentation sites actually hold.

   It bundles the shared sink slot (a ref, so the CLI can install a sink
   after the cluster is built), the shared metrics registry, the virtual
   clock, and the owning party.  Every helper checks [enabled] first —
   when the sink is null, an instrumented call is a dereference, a match
   and a return, with no allocation. *)

type t = {
  sink : Sink.t ref;
  metrics : Metrics.t;
  now : unit -> float;
  party : int;
  (* The flow id of the message currently being handled on this party, or
     -1 outside a handler.  Set by the network layer around each dispatch;
     emit_at stamps it onto every record so protocol spans automatically
     carry the causal edge back to their triggering message. *)
  mutable cause : int;
}

let create ~(sink : Sink.t ref) ~(metrics : Metrics.t)
    ~(now : unit -> float) ~(party : int) : t =
  { sink; metrics; now; party; cause = -1 }

(* A context that never records anything; the default for components built
   without an engine attached (unit tests of single modules). *)
let null () : t =
  {
    sink = ref Sink.Null;
    metrics = Metrics.create ();
    now = (fun () -> 0.0);
    party = -1;
    cause = -1;
  }

let enabled (t : t) : bool = Sink.enabled !(t.sink)
let metrics (t : t) : Metrics.t = t.metrics
let now (t : t) : float = t.now ()
let cause (t : t) : int = t.cause
let set_cause (t : t) (id : int) : unit = t.cause <- id

let emit_at (t : t) ~(time : float) ~(pid : string) ~(cat : string)
    ~(ph : Event.phase) ?(level = Event.Info) ?(args = []) (name : string) :
    unit =
  match !(t.sink) with
  | Sink.Null -> ()
  | Sink.Fn f ->
    let args =
      if t.cause >= 0 then args @ [ ("cause", Event.Int t.cause) ] else args
    in
    f (Event.make ~level ~args ~time ~party:t.party ~pid ~cat ~ph name)

let span_begin (t : t) ~(pid : string) ~(cat : string) ?(args = [])
    (name : string) : unit =
  emit_at t ~time:(t.now ()) ~pid ~cat ~ph:Event.Span_begin ~args name

let span_end (t : t) ~(pid : string) ~(cat : string) ?(args = [])
    (name : string) : unit =
  emit_at t ~time:(t.now ()) ~pid ~cat ~ph:Event.Span_end ~args name

let instant (t : t) ~(pid : string) ~(cat : string) ?(level = Event.Info)
    ?(args = []) (name : string) : unit =
  emit_at t ~time:(t.now ()) ~pid ~cat ~ph:Event.Instant ~level ~args name

(* Metrics conveniences, prefixed with the owning party so per-party tables
   fall out of a plain sorted dump. *)

let scoped (t : t) (name : string) : string =
  if t.party < 0 then name else Printf.sprintf "p%d/%s" t.party name

let count (t : t) (name : string) (v : float) : unit =
  Metrics.add (Metrics.counter t.metrics (scoped t name)) v

let incr (t : t) (name : string) : unit = count t name 1.0

let observe (t : t) ?buckets (name : string) (v : float) : unit =
  Metrics.observe (Metrics.histogram ?buckets t.metrics (scoped t name)) v

(* A gauge is a counter written with [set] instead of [add]; the high-water
   mark is published alongside as "<name>/max" so bounded-memory claims
   (e.g. the verified-share cache) can be checked after a run. *)
let gauge (t : t) (name : string) (v : float) : unit =
  Metrics.set (Metrics.counter t.metrics (scoped t name)) v;
  let peak = Metrics.counter t.metrics (scoped t (name ^ "/max")) in
  if v > Metrics.value peak then Metrics.set peak v
