(** Trace sinks: where event records go.

    The null sink is the default; [enabled] lets instrumentation sites skip
    all argument building when nothing is listening, so an untraced run
    pays one pointer dereference per site.  The JSONL and Chrome sinks are
    deterministic renderers — same seed, byte-identical output. *)

type t =
  | Null
  | Fn of (Event.t -> unit)

val enabled : t -> bool
(** False exactly for [Null] — the fast-path test at every site. *)

val jsonl : Buffer.t -> t
(** A sink appending one JSONL line per event to [buf]. *)

(** {2 Chrome trace-event format} *)

type chrome
(** A buffering sink state for the Chrome trace-event JSON format
    (chrome://tracing, Perfetto): parties are processes, protocol pids are
    threads. *)

val chrome : unit -> chrome
(** Fresh, empty buffering state. *)

val chrome_sink : chrome -> t
(** The sink feeding that state. *)

val chrome_count : chrome -> int
(** Events buffered so far. *)

val chrome_contents : chrome -> string
(** Render the buffered events as a complete Chrome trace JSON document.
    Spans still open at the end of the run are closed at the final
    timestamp (balanced B/E guaranteed), and process/thread naming
    metadata records are appended. *)

(** {2 Checking a written trace} *)

val check : string -> (string * int, string) result
(** Check a trace file's contents: a Chrome document or a JSONL stream.
    A Chrome document is one JSON object whose [traceEvents] array holds
    events that each have a ["ph"] field and whose begin/end spans balance
    on every (pid, tid) lane: an [E] never closes more than was opened and
    every [B] is closed.  A JSONL stream must parse line by line and pass
    {!Causal.validate}.  Returns the format (["chrome"] or ["jsonl"]) and
    the event count, or the first violation: for Chrome, an unmatched [E]
    or an event without ["ph"] in event order, else the first lane in
    first-seen order left with open spans. *)
