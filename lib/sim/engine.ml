(* The discrete-event simulation core: a virtual clock and an event heap.

   All asynchrony in the reproduction comes from here.  Determinism: events
   at equal times fire in scheduling order, and all jitter is drawn from the
   engine's seeded DRBG, so a run is a pure function of its seed. *)

type t = {
  mutable now : float;                      (* virtual seconds *)
  events : (unit -> unit) Heap.t;
  drbg : Hashes.Drbg.t;
  mutable executed : int;
  sink : Trace.Sink.t ref;                  (* observability: shared trace sink *)
  metrics : Trace.Metrics.t;                (* observability: shared registry *)
  mutable next_flow_id : int;               (* causal-tracing id allocator *)
}

let create ?(seed = "sintra-sim") () : t =
  {
    now = 0.0;
    events = Heap.create ();
    drbg = Hashes.Drbg.create ~seed;
    executed = 0;
    sink = ref Trace.Sink.Null;
    metrics = Trace.Metrics.create ();
    next_flow_id = 0;
  }

(* Allocate a fresh causal flow id.  A plain counter, advanced whether or
   not tracing is on, so ids — and therefore the schedule — are identical
   in traced and untraced runs. *)
let fresh_flow_id (t : t) : int =
  let id = t.next_flow_id in
  t.next_flow_id <- id + 1;
  id

let now (t : t) = t.now

let drbg (t : t) = t.drbg

let set_sink (t : t) (s : Trace.Sink.t) = t.sink := s

let metrics (t : t) = t.metrics

(* A tracing context bound to this engine's clock, sink and registry for
   party [party]. *)
let trace_ctx (t : t) ~(party : int) : Trace.Ctx.t =
  Trace.Ctx.create ~sink:t.sink ~metrics:t.metrics
    ~now:(fun () -> t.now) ~party

(* Schedule [f] to run [delay] virtual seconds from now (clamped to now). *)
let schedule (t : t) ~(delay : float) (f : unit -> unit) : unit =
  let delay = if delay < 0.0 then 0.0 else delay in
  Heap.push t.events ~time:(t.now +. delay) f

let schedule_at (t : t) ~(time : float) (f : unit -> unit) : unit =
  let time = if time < t.now then t.now else time in
  Heap.push t.events ~time f

(* Run until the event queue drains, [until] virtual seconds pass, or
   [max_events] fire.  Returns the number of events executed. *)
let run ?(until = infinity) ?(max_events = max_int) (t : t) : int =
  let count = ref 0 in
  let continue = ref true in
  while !continue do
    if !count >= max_events then continue := false
    else
      match Heap.peek_time t.events with
      | None -> continue := false
      | Some tm when tm > until ->
        t.now <- until;
        continue := false
      | Some _ ->
        (match Heap.pop t.events with
         | None -> continue := false
         | Some (tm, f) ->
           t.now <- tm;
           incr count;
           t.executed <- t.executed + 1;
           f ())
  done;
  !count

let pending (t : t) = Heap.length t.events
