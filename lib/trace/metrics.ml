(* The in-memory metrics registry: named counters and fixed-bucket latency
   histograms, queryable at the end of a run.

   The registry is deliberately dumb — get-or-create by name, float adds,
   integer bucket counts — so the always-on cost of a metric update is a
   hashtable probe and a mutation.  Enumeration never touches hashtable
   order: an insertion-order list is kept on the side and [dump]/[hists]
   sort by name, so reports are deterministic. *)

type counter = { mutable c_value : float }

type hist = {
  h_name : string;
  bounds : float array;           (* ascending inclusive upper bounds *)
  counts : int array;             (* length bounds + 1; last = overflow *)
  mutable h_sum : float;
  mutable h_count : int;
}

type item = C of counter | H of hist

type t = {
  tbl : (string, item) Hashtbl.t;
  mutable names : string list;    (* insertion order, newest first *)
}

let create () : t = { tbl = Hashtbl.create 64; names = [] }

(* Latency buckets (seconds) matching the paper's measurement range: the
   0-second batch-mate band, sub-second LAN rounds, multi-second Internet
   rounds, and a tail for recovery epochs. *)
let default_buckets =
  [| 0.01; 0.02; 0.05; 0.1; 0.2; 0.5; 1.0; 2.0; 3.0; 5.0; 10.0; 30.0 |]

let counter (t : t) (name : string) : counter =
  match Hashtbl.find_opt t.tbl name with
  | Some (C c) -> c
  | Some (H _) -> invalid_arg ("Metrics.counter: " ^ name ^ " is a histogram")
  | None ->
    let c = { c_value = 0.0 } in
    Hashtbl.replace t.tbl name (C c);
    t.names <- name :: t.names;
    c

let add (c : counter) (v : float) : unit = c.c_value <- c.c_value +. v
let inc (c : counter) : unit = add c 1.0
let set (c : counter) (v : float) : unit = c.c_value <- v
let value (c : counter) : float = c.c_value

let make_hist ?(buckets = default_buckets) (name : string) : hist =
  let ok = ref (Array.length buckets > 0) in
  Array.iteri
    (fun i b -> if i > 0 && b <= buckets.(i - 1) then ok := false)
    buckets;
  if not !ok then invalid_arg "Metrics.histogram: bounds must be ascending";
  {
    h_name = name;
    bounds = Array.copy buckets;
    counts = Array.make (Array.length buckets + 1) 0;
    h_sum = 0.0;
    h_count = 0;
  }

let histogram ?buckets (t : t) (name : string) : hist =
  match Hashtbl.find_opt t.tbl name with
  | Some (H h) -> h
  | Some (C _) -> invalid_arg ("Metrics.histogram: " ^ name ^ " is a counter")
  | None ->
    let h = make_hist ?buckets name in
    Hashtbl.replace t.tbl name (H h);
    t.names <- name :: t.names;
    h

(* Bucket of [v]: the first bound with v <= bound, else the overflow slot. *)
let bucket_index (h : hist) (v : float) : int =
  let n = Array.length h.bounds in
  let i = ref 0 in
  while !i < n && v > h.bounds.(!i) do incr i done;
  !i

let observe (h : hist) (v : float) : unit =
  let i = bucket_index h v in
  h.counts.(i) <- h.counts.(i) + 1;
  h.h_sum <- h.h_sum +. v;
  h.h_count <- h.h_count + 1

let hist_count (h : hist) : int = h.h_count
let hist_sum (h : hist) : float = h.h_sum
let hist_mean (h : hist) : float =
  if h.h_count = 0 then 0.0 else h.h_sum /. float_of_int h.h_count
let hist_name (h : hist) : string = h.h_name

(* (upper bound, count) pairs; the overflow bucket reports [infinity]. *)
let hist_buckets (h : hist) : (float * int) list =
  List.init
    (Array.length h.counts)
    (fun i ->
      let bound =
        if i < Array.length h.bounds then h.bounds.(i) else infinity
      in
      (bound, h.counts.(i)))

(* Approximate quantile from bucket counts: the upper bound of the bucket in
   which the q-th observation falls (overflow reports the largest bound). *)
let hist_quantile (h : hist) (q : float) : float =
  if h.h_count = 0 then 0.0
  else begin
    let target =
      let r = int_of_float (Float.of_int h.h_count *. q) in
      if r >= h.h_count then h.h_count - 1 else if r < 0 then 0 else r
    in
    let acc = ref 0 and found = ref (-1) in
    Array.iteri
      (fun i c ->
        if !found < 0 then begin
          acc := !acc + c;
          if !acc > target then found := i
        end)
      h.counts;
    let i = if !found < 0 then Array.length h.counts - 1 else !found in
    if i < Array.length h.bounds then h.bounds.(i)
    else h.bounds.(Array.length h.bounds - 1)
  end

let merge_into ~(into : hist) (src : hist) : unit =
  if Array.length into.bounds <> Array.length src.bounds
     || not (Array.for_all2 (fun a b -> Float.equal a b) into.bounds src.bounds)
  then invalid_arg "Metrics.merge_into: bucket bounds differ";
  Array.iteri (fun i c -> into.counts.(i) <- into.counts.(i) + c) src.counts;
  into.h_sum <- into.h_sum +. src.h_sum;
  into.h_count <- into.h_count + src.h_count

(* Publish p50/p90/p99 of every histogram as counters named
   "<hist>/p50" etc., so percentile summaries appear in any plain counter
   dump (the published registry, --stats, experiment_metrics.json).  Idempotent:
   counters are overwritten with [set]. *)
let publish_quantiles (t : t) : unit =
  let hist_names =
    List.filter
      (fun name ->
        match Hashtbl.find_opt t.tbl name with
        | Some (H _) -> true
        | Some (C _) | None -> false)
      (List.sort compare t.names)
  in
  List.iter
    (fun name ->
      match Hashtbl.find_opt t.tbl name with
      | Some (H h) ->
        List.iter
          (fun (label, q) ->
            set (counter t (name ^ "/" ^ label)) (hist_quantile h q))
          [ ("p50", 0.5); ("p90", 0.9); ("p99", 0.99) ]
      | Some (C _) | None -> ())
    hist_names

(* --- deterministic enumeration --- *)

let sorted_names (t : t) : string list = List.sort compare t.names

let dump (t : t) : (string * float) list =
  List.filter_map
    (fun name ->
      match Hashtbl.find_opt t.tbl name with
      | Some (C c) -> Some (name, c.c_value)
      | Some (H _) | None -> None)
    (sorted_names t)

let hists (t : t) : hist list =
  List.filter_map
    (fun name ->
      match Hashtbl.find_opt t.tbl name with
      | Some (H h) -> Some h
      | Some (C _) | None -> None)
    (sorted_names t)

let find_counter (t : t) (name : string) : counter option =
  match Hashtbl.find_opt t.tbl name with
  | Some (C c) -> Some c
  | Some (H _) | None -> None

let find_hist (t : t) (name : string) : hist option =
  match Hashtbl.find_opt t.tbl name with
  | Some (H h) -> Some h
  | Some (C _) | None -> None

(* Render the whole registry as one deterministic JSON object: counters as
   numbers, histograms as {buckets, counts, sum, count}. *)
let to_json (t : t) : string =
  let b = Buffer.create 1024 in
  Buffer.add_char b '{';
  List.iteri
    (fun i name ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b ("\"" ^ Event.escape name ^ "\":");
      match Hashtbl.find_opt t.tbl name with
      | Some (C c) -> Buffer.add_string b (Event.float_str c.c_value)
      | Some (H h) ->
        Buffer.add_string b "{\"bounds\":[";
        Array.iteri
          (fun i bd ->
            if i > 0 then Buffer.add_char b ',';
            Buffer.add_string b (Event.float_str bd))
          h.bounds;
        Buffer.add_string b "],\"counts\":[";
        Array.iteri
          (fun i c ->
            if i > 0 then Buffer.add_char b ',';
            Buffer.add_string b (string_of_int c))
          h.counts;
        Buffer.add_string b
          (Printf.sprintf "],\"sum\":%s,\"count\":%d}"
             (Event.float_str h.h_sum) h.h_count)
      | None -> Buffer.add_string b "null")
    (sorted_names t);
  Buffer.add_char b '}';
  Buffer.contents b
