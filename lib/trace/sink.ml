(* Trace sinks: where event records go.

   The null sink is the default and must be near-free: instrumentation sites
   test [enabled] (one pointer dereference and a match) before building any
   argument lists, so an untraced run does no allocation for tracing.

   The JSONL sink renders one JSON object per line into a caller-supplied
   buffer, using only the deterministic renderers in Event — two runs with
   the same seed produce byte-identical output.

   The Chrome sink buffers records and renders the Chrome trace-event JSON
   format on demand: parties become processes, protocol pids become threads
   (tids assigned in first-seen order), and any span still open at the end
   of the run is closed at the final timestamp so every B has a matching E
   and the file always loads in Perfetto / chrome://tracing. *)

type t =
  | Null
  | Fn of (Event.t -> unit)

let enabled (s : t) : bool = match s with Null -> false | Fn _ -> true

(* --- JSONL --- *)

let jsonl_line (ev : Event.t) : string =
  Printf.sprintf
    "{\"t\":%s,\"party\":%d,\"pid\":\"%s\",\"cat\":\"%s\",\"ph\":\"%s\",\
     \"level\":\"%s\",\"name\":\"%s\",\"args\":%s}"
    (Event.float_str ev.Event.time)
    ev.Event.party
    (Event.escape ev.Event.pid)
    (Event.escape ev.Event.cat)
    (Event.phase_letter ev.Event.ph)
    (Event.level_name ev.Event.level)
    (Event.escape ev.Event.name)
    (Event.args_json ev.Event.args)

let jsonl (buf : Buffer.t) : t =
  Fn
    (fun ev ->
      Buffer.add_string buf (jsonl_line ev);
      Buffer.add_char buf '\n')

(* --- Chrome trace-event --- *)

type chrome = {
  mutable events : Event.t list;      (* reverse emission order *)
  mutable count : int;
  mutable max_time : float;
}

let chrome () : chrome = { events = []; count = 0; max_time = 0.0 }

let chrome_sink (c : chrome) : t =
  Fn
    (fun ev ->
      c.events <- ev :: c.events;
      c.count <- c.count + 1;
      if ev.Event.time > c.max_time then c.max_time <- ev.Event.time)

let chrome_count (c : chrome) : int = c.count

(* Virtual seconds -> microseconds, the unit of the "ts" field. *)
let us (time : float) : string = Event.float_str (time *. 1e6)

let chrome_event_json ~(tid : int) (ev : Event.t) : string =
  let args =
    match ev.Event.level with
    | Event.Info -> ev.Event.args
    | Event.Warn -> ev.Event.args @ [ ("level", Event.Str "warn") ]
  in
  (* Flow events need a top-level "id" binding the arrow's two ends, and the
     landing end needs "bp":"e" so Perfetto attaches it to the enclosing
     slice.  The id travels in the args at emission time; hoist it. *)
  let flow_id =
    match ev.Event.ph with
    | Event.Flow_start | Event.Flow_end ->
      (match List.assoc_opt "id" args with Some (Event.Int i) -> Some i | _ -> Some 0)
    | Event.Span_begin | Event.Span_end | Event.Instant | Event.Counter ->
      None
  in
  let extra =
    match ev.Event.ph, flow_id with
    | Event.Instant, _ -> ",\"s\":\"t\""
    | Event.Flow_start, Some id -> Printf.sprintf ",\"id\":%d" id
    | Event.Flow_end, Some id -> Printf.sprintf ",\"id\":%d,\"bp\":\"e\"" id
    | _, _ -> ""
  in
  Printf.sprintf
    "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"%s\",\"ts\":%s,\"pid\":%d,\
     \"tid\":%d%s,\"args\":%s}"
    (Event.escape ev.Event.name)
    (Event.escape ev.Event.cat)
    (Event.phase_letter ev.Event.ph)
    (us ev.Event.time)
    ev.Event.party tid extra
    (Event.args_json args)

let meta_json ~(party : int) ~(tid : int option) ~(name : string)
    ~(value : string) : string =
  match tid with
  | None ->
    Printf.sprintf
      "{\"name\":\"%s\",\"ph\":\"M\",\"pid\":%d,\"args\":{\"name\":\"%s\"}}"
      name party (Event.escape value)
  | Some tid ->
    Printf.sprintf
      "{\"name\":\"%s\",\"ph\":\"M\",\"pid\":%d,\"tid\":%d,\
       \"args\":{\"name\":\"%s\"}}"
      name party tid (Event.escape value)

let chrome_contents (c : chrome) : string =
  let events = List.rev c.events in
  (* Thread ids per (party, pid), assigned in first-seen order so the
     mapping is a function of the event stream (hence of the seed). *)
  let tids : (int * string, int) Hashtbl.t = Hashtbl.create 64 in
  let tid_order : (int * string * int) list ref = ref [] in
  let next_tid : (int, int) Hashtbl.t = Hashtbl.create 8 in
  let parties_seen : (int, unit) Hashtbl.t = Hashtbl.create 8 in
  let party_order : int list ref = ref [] in
  let tid_of (ev : Event.t) : int =
    let key = (ev.Event.party, ev.Event.pid) in
    match Hashtbl.find_opt tids key with
    | Some tid -> tid
    | None ->
      let tid =
        match Hashtbl.find_opt next_tid ev.Event.party with
        | Some n -> n
        | None -> 1
      in
      Hashtbl.replace next_tid ev.Event.party (tid + 1);
      Hashtbl.replace tids key tid;
      tid_order := (ev.Event.party, ev.Event.pid, tid) :: !tid_order;
      if not (Hashtbl.mem parties_seen ev.Event.party) then begin
        Hashtbl.replace parties_seen ev.Event.party ();
        party_order := ev.Event.party :: !party_order
      end;
      tid
  in
  (* Per-thread stacks of open span names, so unclosed spans can be closed
     at the final timestamp (Perfetto rejects unbalanced B/E). *)
  let open_spans : (int * int, string list) Hashtbl.t = Hashtbl.create 64 in
  let open_order : (int * int) list ref = ref [] in
  let body = Buffer.create 4096 in
  let first = ref true in
  let add_json (s : string) : unit =
    if !first then first := false else Buffer.add_string body ",\n";
    Buffer.add_string body "  ";
    Buffer.add_string body s
  in
  List.iter
    (fun ev ->
      let tid = tid_of ev in
      let key = (ev.Event.party, tid) in
      (match ev.Event.ph with
      | Event.Span_begin ->
        let stack =
          match Hashtbl.find_opt open_spans key with
          | Some st -> st
          | None ->
            open_order := key :: !open_order;
            []
        in
        Hashtbl.replace open_spans key (ev.Event.name :: stack)
      | Event.Span_end ->
        (match Hashtbl.find_opt open_spans key with
        | Some (_ :: rest) -> Hashtbl.replace open_spans key rest
        | Some [] | None -> ())
      | Event.Instant | Event.Counter | Event.Flow_start | Event.Flow_end ->
        ());
      add_json (chrome_event_json ~tid ev))
    events;
  (* Close anything still open, innermost first, in thread-first-seen order. *)
  List.iter
    (fun ((party, tid) as key) ->
      match Hashtbl.find_opt open_spans key with
      | Some names ->
        List.iter
          (fun name ->
            add_json
              (chrome_event_json ~tid
                 (Event.make ~time:c.max_time ~party ~pid:"" ~cat:"trace"
                    ~ph:Event.Span_end name)))
          names
      | None -> ())
    (List.rev !open_order);
  (* Process / thread naming metadata. *)
  List.iter
    (fun party ->
      let pname = if party < 0 then "global" else Printf.sprintf "party %d" party in
      add_json (meta_json ~party ~tid:None ~name:"process_name" ~value:pname))
    (List.rev !party_order);
  List.iter
    (fun (party, pid, tid) ->
      let tname = if pid = "" then "main" else pid in
      add_json (meta_json ~party ~tid:(Some tid) ~name:"thread_name" ~value:tname))
    (List.rev !tid_order);
  "{\"traceEvents\":[\n" ^ Buffer.contents body
  ^ "\n],\"displayTimeUnit\":\"ms\"}\n"

(* --- Checking a written trace --- *)

(* Balanced B/E per (pid, tid) lane: the count never goes negative and ends
   at zero. *)
let check_chrome (events : Json.value list) : (int, string) result =
  let lanes : (string, int) Hashtbl.t = Hashtbl.create 64 in
  let order = ref [] in
  let depth k = Option.value ~default:0 (Hashtbl.find_opt lanes k) in
  let bump k d =
    if not (Hashtbl.mem lanes k) then order := k :: !order;
    Hashtbl.replace lanes k (depth k + d)
  in
  let lane ev =
    let num f =
      match Option.bind (Json.member f ev) Json.num_opt with
      | Some v -> int_of_float v
      | None -> -1
    in
    Printf.sprintf "%d:%d" (num "pid") (num "tid")
  in
  let rec walk = function
    | [] ->
      (match List.find_opt (fun k -> depth k <> 0) (List.rev !order) with
       | Some k -> Error (Printf.sprintf "%d unclosed span(s) on lane %s" (depth k) k)
       | None -> Ok (List.length events))
    | ev :: rest ->
      (match Option.bind (Json.member "ph" ev) Json.str_opt with
       | Some "B" -> bump (lane ev) 1; walk rest
       | Some "E" when depth (lane ev) <= 0 ->
         Error (Printf.sprintf "unmatched E on lane %s" (lane ev))
       | Some "E" -> bump (lane ev) (-1); walk rest
       | Some _ -> walk rest
       | None -> Error "event without a \"ph\" field")
  in
  walk events

let check (contents : string) : (string * int, string) result =
  match Json.parse contents with
  | Ok doc ->
    (match Json.member "traceEvents" doc with
     | None -> Error "a JSON document without \"traceEvents\" is not a trace"
     | Some evs ->
       (match Json.list_opt evs with
        | None -> Error "\"traceEvents\" is not an array"
        | Some events -> Result.map (fun n -> ("chrome", n)) (check_chrome events)))
  | Error _ ->
    (* Not one JSON document: JSONL, whose event stream must also be
       causally well-formed (every cause id emitted, edges monotone,
       per-message times ordered). *)
    (match Json.parse_lines contents with
     | Error e -> Error e
     | Ok events ->
       (match Causal.validate (List.filter_map Causal.of_json events) with
        | [] -> Ok ("jsonl", List.length events)
        | errs -> Error ("causally ill-formed:\n  " ^ String.concat "\n  " errs)))
