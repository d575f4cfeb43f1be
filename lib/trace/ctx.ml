(* A tracing context: the handle instrumentation sites actually hold.

   It bundles the shared sink slot (a ref, so the CLI can install a sink
   after the cluster is built), the shared metrics registry, the virtual
   clock, and the owning party.  Every helper checks [enabled] first —
   when the sink is null, an instrumented call is a dereference, a match
   and a return, with no allocation.

   Metric updates name their metric with a short literal ("abc.rounds");
   the registry holds it as "p<party>/abc.rounds".  Each context resolves a
   name to its registry cell on first use and keeps the handle in a table
   keyed by the short name, so a later update is one probe of that table
   and a mutation — no prefixing, no hashing of the long name.  A gauge
   resolves its value cell and its "/max" cell together, as one pair.  The
   registry creates each cell on first use exactly as it would without the
   tables, so its contents and order are the same. *)

module Names = Hashtbl.Make (String)

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
  counters : Metrics.counter Names.t;
  hists : Metrics.hist Names.t;
  gauges : (Metrics.counter * Metrics.counter) Names.t;
}

let create ~(sink : Sink.t ref) ~(metrics : Metrics.t)
    ~(now : unit -> float) ~(party : int) : t =
  {
    sink;
    metrics;
    now;
    party;
    cause = -1;
    counters = Names.create 32;
    hists = Names.create 8;
    gauges = Names.create 8;
  }

(* A context that never records anything; the default for components built
   without an engine attached (unit tests of single modules). *)
let null () : t =
  create ~sink:(ref Sink.Null) ~metrics:(Metrics.create ())
    ~now:(fun () -> 0.0) ~party:(-1)

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

(* The handles are found with [Names.find] and its exception rather than
   [find_opt], so a resolved update allocates nothing. *)

let count (t : t) (name : string) (v : float) : unit =
  let c =
    match Names.find t.counters name with
    | c -> c
    | exception Not_found ->
      let c = Metrics.counter t.metrics (scoped t name) in
      Names.replace t.counters name c;
      c
  in
  Metrics.add c v

let incr (t : t) (name : string) : unit = count t name 1.0

let observe (t : t) ?buckets (name : string) (v : float) : unit =
  let h =
    match Names.find t.hists name with
    | h -> h
    | exception Not_found ->
      let h = Metrics.histogram ?buckets t.metrics (scoped t name) in
      Names.replace t.hists name h;
      h
  in
  Metrics.observe h v

(* A gauge is a counter written with [set] instead of [add]; the high-water
   mark is published alongside as "<name>/max" so bounded-memory claims
   (e.g. the verified-share cache) can be checked after a run. *)
let gauge (t : t) (name : string) (v : float) : unit =
  let cur, peak =
    match Names.find t.gauges name with
    | pair -> pair
    | exception Not_found ->
      let cur = Metrics.counter t.metrics (scoped t name) in
      let pair = (cur, Metrics.counter t.metrics (scoped t (name ^ "/max"))) in
      Names.replace t.gauges name pair;
      pair
  in
  Metrics.set cur v;
  if v > Metrics.value peak then Metrics.set peak v
