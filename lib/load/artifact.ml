(* The artifact envelope and the floor table.  One table row per artifact:
   its name, current schema version, and the rule that lists a parsed
   report's violations.  The floors are the claims the docs make about each
   artifact; fresh smoke reports and committed files are held to the same
   rules, and smoke-vs-full is read from the artifact itself.  A rule also
   learns whether it is judging the committed file, which only perf uses:
   the committed perf report must be the full 1024-bit run. *)

module J = Trace.Json

let num v k = Option.bind (J.member k v) J.num_opt
let str v k = Option.bind (J.member k v) J.str_opt
let items v k = Option.value ~default:[] (Option.bind (J.member k v) J.list_opt)
let smoke_of v = match J.member "smoke" v with Some (J.Bool b) -> Some b | _ -> None

let need ok msg = if ok then None else Some msg

let at_least what x floor =
  match x with
  | Some x when x >= floor -> None
  | Some x -> Some (Printf.sprintf "%s %.2f is below the %.2f floor" what x floor)
  | None -> Some (what ^ " is missing")

(* --- the floors --- *)

(* Batched n=4 saturation over the sequential unbatched baseline. *)
let min_crossover = 10.0

(* Offered loads on the latency ladder, and the share of each point's
   measured latency its critical paths must attribute. *)
let min_latency_points = 3
let min_coverage = 0.95

(* The DLEQ fast path beats the reference everywhere.  One k-share batch
   verification beats k reference singles by 3x (Shoup) and 2x (coin) at
   the paper's 1024-bit moduli; at the 512-bit smoke size the transcripts
   are half as wide, so the amortization is smaller and the floors relax. *)
let min_dleq_speedup = 1.5
let full_mod_bits = 1024
let batch_floors bits = if bits >= full_mod_bits then (3.0, 2.0) else (2.0, 1.5)

let throughput ~committed:_ doc =
  let series = items doc "series" in
  let modes = List.filter_map (fun s -> str s "mode") series in
  let complete s =
    num s "n" <> None && items s "points" <> []
    && Option.bind (J.member "saturation" s) (fun p -> num p "throughput_per_s")
       <> None
  in
  [ need (List.mem "batched" modes && List.mem "unbatched" modes)
      "needs both a batched and an unbatched series";
    need (List.for_all complete series)
      "a series lacks n, open-loop points or a saturation probe";
    at_least "crossover ratio"
      (Option.bind (J.member "crossover" doc) (fun c -> num c "ratio"))
      min_crossover ]

let latency ~committed:_ doc =
  let points = items doc "points" in
  let complete p =
    List.for_all (fun k -> num p k <> None)
      [ "offered_per_s"; "latency_p50_s"; "latency_p90_s"; "latency_p99_s";
        "unattributed_s" ]
    && J.member "phases_s" p <> None && J.member "stages_s" p <> None
  in
  need (List.length points >= min_latency_points)
    (Printf.sprintf "%d point(s), need at least %d" (List.length points)
       min_latency_points)
  :: need (List.for_all complete points)
       "a point lacks a latency percentile or the phases_s/stages_s breakdown"
  :: List.map
       (fun p ->
         at_least
           (Printf.sprintf "coverage at %g req/s"
              (Option.value ~default:0.0 (num p "offered_per_s")))
           (num p "coverage") min_coverage)
       points

let perf ~committed doc =
  let results = items doc "results" in
  let bits = Option.fold ~none:0 ~some:int_of_float (num doc "speedup_mod_bits") in
  let speedup k = Option.bind (J.member "speedups" doc) (fun s -> num s k) in
  let tsig_floor, coin_floor = batch_floors bits in
  [ need (results <> []) "empty \"results\"";
    need
      (List.for_all
         (fun r -> str r "name" <> None && num r "mod_bits" <> None
                   && num r "ms_per_op" <> None)
         results)
      "a result lacks name, mod_bits or ms_per_op";
    need (not committed || smoke_of doc = Some false)
      "the committed perf report must come from the full run";
    need
      (smoke_of doc <> Some false
       || bits >= full_mod_bits
          && List.exists
               (fun r -> num r "mod_bits" = Some (float_of_int full_mod_bits))
               results)
      (Printf.sprintf
         "a full report needs %d-bit rows and speedups quoted at %d bits"
         full_mod_bits full_mod_bits);
    need
      (List.for_all (fun k -> speedup k <> None)
         [ "montgomery"; "multi_exp"; "fixed_base" ])
      "speedups lack montgomery, multi_exp or fixed_base";
    at_least "dleq_verify speedup" (speedup "dleq_verify") min_dleq_speedup;
    at_least "tsig_batch_verify speedup" (speedup "tsig_batch_verify") tsig_floor;
    at_least "coin_batch_verify speedup" (speedup "coin_batch_verify") coin_floor ]

(* One row per explorer workload, and trunk never fails an oracle. *)
let vopr ~committed:_ doc =
  let rows = items doc "results" in
  let names = List.map Vopr.Oracle.kind_to_string Vopr.Oracle.all_kinds in
  let missing =
    List.filter (fun k -> not (List.exists (fun r -> str r "workload" = Some k) rows)) names
  in
  let failing =
    List.filter_map
      (fun r -> if num r "failures" = Some 0.0 then None else str r "workload")
      rows
  in
  [ need (missing = []) ("no row for workload(s): " ^ String.concat ", " missing);
    need (List.length rows = List.length names) "not exactly one row per workload";
    need (failing = [] && num doc "failures" = Some 0.0)
      ("oracle failures in: " ^ String.concat ", " failing) ]

(* Full replay re-feeds the whole history; compaction bounds checkpointed
   replay near one interval; a wiped restart adopts a peer snapshot and
   replays nothing. *)
let durability ~committed:_ doc =
  let interval = Option.fold ~none:0 ~some:int_of_float (num doc "checkpoint_interval") in
  let row r =
    let int k = Option.fold ~none:(-1) ~some:int_of_float (num r k) in
    let history = int "history" and replayed = int "replayed_rounds"
    and adopted = int "snapshots_adopted" in
    let mode = Option.value ~default:"?" (str r "mode") in
    let tag msg = Option.map (Printf.sprintf "[%s H=%d] %s" mode history) msg in
    List.map tag
      (match mode with
       | "replay-full" ->
         [ need (adopted = 0) "adopted a snapshot with no checkpoints dealt";
           need (replayed >= history)
             (Printf.sprintf "replayed only %d of %d rounds" replayed history) ]
       | "replay-ckpt" ->
         [ need (replayed >= 0 && replayed <= (2 * interval) + 1)
             (Printf.sprintf
                "replayed %d rounds; compaction should bound this near %d"
                replayed interval) ]
       | "snapshot" ->
         [ need (adopted >= 1) "wiped restart adopted no peer snapshot";
           need (replayed = 0)
             (Printf.sprintf "replayed %d rounds from a wiped disk" replayed) ]
       | _ -> [ Some "unknown recovery mode" ])
  in
  need (interval > 0) "missing \"checkpoint_interval\""
  :: need (items doc "rows" <> []) "empty \"rows\""
  :: List.concat_map row (items doc "rows")

let table : (string * int * (committed:bool -> J.value -> string option list)) list =
  [ ("throughput", 2, throughput);
    ("latency", 2, latency);
    ("perf", 3, perf);
    ("vopr", 2, vopr);
    ("durability", 2, durability) ]

(* --- the envelope --- *)

let schema name version = Printf.sprintf "sintra-bench-%s-v%d" name version

let generator name smoke =
  Printf.sprintf "dune exec bench/main.exe -- %s%s" (if smoke then "" else "--full ")
    name

let render ~name ~seed ~smoke fields =
  let version =
    match List.find_opt (fun (n, _, _) -> n = name) table with
    | Some (_, v, _) -> v
    | None -> invalid_arg ("Artifact.render: unknown artifact " ^ name)
  in
  let envelope =
    [ ("schema", Printf.sprintf "%S" (schema name version));
      ("generator", Printf.sprintf "%S" (generator name smoke));
      ("seed", Printf.sprintf "%S" seed);
      ("smoke", string_of_bool smoke) ]
  in
  Printf.sprintf "{\n%s\n}\n"
    (String.concat ",\n"
       (List.map (fun (k, v) -> Printf.sprintf "  %S: %s" k v) (envelope @ fields)))

let rows elems =
  Printf.sprintf "[\n%s\n  ]"
    (String.concat ",\n" (List.map (fun e -> "    " ^ e) elems))

let check ~file doc =
  let found =
    Option.bind (str doc "schema") (fun s ->
      Scanf.sscanf_opt s "sintra-bench-%[a-z]-v%d%!" (fun n v -> (n, v)))
  in
  match found with
  | None -> Error [ "missing or malformed \"schema\"" ]
  | Some (name, version) ->
    (match List.find_opt (fun (n, _, _) -> n = name) table with
     | None -> Error [ Printf.sprintf "unknown artifact %S" name ]
     | Some (_, current, rule) ->
       let base = Filename.basename file in
       let committed = base = Printf.sprintf "BENCH_%s.json" name in
       let legacy =
         List.filter (fun k -> J.member k doc <> None) [ "format"; "bench"; "version" ]
       in
       let envelope =
         [ need (version = current)
             (Printf.sprintf "stale schema v%d, expected %s" version
                (schema name current));
           need (legacy = []) ("legacy key(s): " ^ String.concat ", " legacy);
           need (smoke_of doc <> None) "missing boolean \"smoke\"";
           need
             (smoke_of doc = None
              || str doc "generator"
                 = Option.map (generator name) (smoke_of doc))
             "\"generator\" is not the command that regenerates this report";
           need (str doc "seed" <> None) "missing \"seed\"";
           need
             (not (String.starts_with ~prefix:"BENCH_" base) || committed)
             (Printf.sprintf "%s holds a %s report" base name) ]
       in
       (match List.filter_map Fun.id (envelope @ rule ~committed doc) with
        | [] -> Ok (schema name version)
        | violations -> Error violations))
