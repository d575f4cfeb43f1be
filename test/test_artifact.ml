(* The artifact floor table behind `sintra_sim bench-check`: every committed
   BENCH_*.json passes, and a planted violation of each floor fails with a
   message naming it. *)

module J = Trace.Json

let committed name =
  let path = "../" ^ name in
  let ic = open_in_bin path in
  let text =
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  match J.parse text with
  | Ok doc -> doc
  | Error e -> Alcotest.failf "%s: not JSON: %s" path e

(* Tree edits on a parsed artifact. *)
let set x _ = x
let field k f = function
  | J.Obj kvs -> J.Obj (List.map (fun (k', v) -> (k', if k' = k then f v else v)) kvs)
  | v -> v
let add k x = function J.Obj kvs -> J.Obj (kvs @ [ (k, x) ]) | v -> v
let elems f = function J.List l -> J.List (f l) | v -> v
let first f = elems (List.mapi (fun i v -> if i = 0 then f v else v))
let where k s f =
  elems
    (List.map (fun r ->
       if Option.bind (J.member k r) J.str_opt = Some s then f r else r))
let keep_if k p = elems (List.filter (fun r -> p (J.member k r)))

let artifacts =
  [ "BENCH_throughput.json"; "BENCH_latency.json"; "BENCH_perf.json";
    "BENCH_vopr.json"; "BENCH_durability.json" ]

(* A 512-bit smoke perf report: the committed rows and speedups cut down to
   what the quick run measures. *)
let smoke_perf doc =
  doc
  |> field "smoke" (set (J.Bool true))
  |> field "generator" (set (J.Str "dune exec bench/main.exe -- perf"))
  |> field "speedup_mod_bits" (set (J.Num 512.0))
  |> field "results" (keep_if "mod_bits" (( = ) (Some (J.Num 512.0))))

(* (what is planted, committed file it is planted in, the edit, a fragment
   the violation message must contain) *)
let planted =
  [ ( "crossover ratio 9.9", "BENCH_throughput.json",
      field "crossover" (field "ratio" (set (J.Num 9.9))), "crossover ratio" );
    ( "2 latency points", "BENCH_latency.json",
      field "points" (elems (List.filteri (fun i _ -> i < 2))), "2 point(s)" );
    ( "coverage 0.94", "BENCH_latency.json",
      field "points" (first (field "coverage" (set (J.Num 0.94)))), "coverage" );
    ( "full perf report without 1024-bit rows", "BENCH_perf.json",
      field "results" (keep_if "mod_bits" (( <> ) (Some (J.Num 1024.0)))),
      "1024-bit rows" );
    ( "full perf report without the sha256-digest-from row", "BENCH_perf.json",
      field "hashes" (keep_if "name" (( <> ) (Some (J.Str "sha256-digest-from")))),
      "\"hashes\" rows" );
    ( "512-bit smoke report in the committed perf place", "BENCH_perf.json",
      smoke_perf, "full run" );
    ( "DLEQ speedup 1.4x", "BENCH_perf.json",
      field "speedups" (field "dleq_verify" (set (J.Num 1.4))), "dleq_verify" );
    ( "tsig batch speedup 2.9x at 1024 bits", "BENCH_perf.json",
      field "speedups" (field "tsig_batch_verify" (set (J.Num 2.9))),
      "tsig_batch_verify" );
    ( "vopr oracle failure", "BENCH_vopr.json",
      field "results" (first (field "failures" (set (J.Num 1.0)))),
      "oracle failures" );
    ( "vopr row missing for a kind", "BENCH_vopr.json",
      field "results" (keep_if "workload" (( <> ) (Some (J.Str "durable")))),
      "durable" );
    ( "durability snapshot row replayed 1 round", "BENCH_durability.json",
      field "rows"
        (where "mode" "snapshot" (field "replayed_rounds" (set (J.Num 1.0)))),
      "wiped disk" );
    ( "durability replay-ckpt row past the compaction bound",
      "BENCH_durability.json",
      field "rows"
        (where "mode" "replay-ckpt" (field "replayed_rounds" (set (J.Num 66.0)))),
      "compaction" );
    ( "durability replay-full row short of the history",
      "BENCH_durability.json",
      field "rows"
        (where "mode" "replay-full" (field "replayed_rounds" (set (J.Num 1.0)))),
      "replayed only" );
    ( "legacy \"format\" key", "BENCH_latency.json",
      add "format" (J.Str "sintra-bench-latency-v1"), "legacy" );
    ( "stale schema version", "BENCH_vopr.json",
      field "schema" (set (J.Str "sintra-bench-vopr-v1")), "stale schema" );
    ( "missing generator", "BENCH_durability.json",
      (function J.Obj kvs -> J.Obj (List.remove_assoc "generator" kvs) | v -> v),
      "generator" );
    ( "generator of the other mode", "BENCH_throughput.json",
      field "generator" (set (J.Str "dune exec bench/main.exe -- throughput")),
      "generator" );
    ( "batched n=10 saturation 600 req/s, below 0.8x n=4", "BENCH_throughput.json",
      field "series"
        (where "mode" "batched" (fun s ->
           if J.member "n" s = Some (J.Num 10.0) then
             field "saturation" (field "throughput_per_s" (set (J.Num 600.0))) s
           else s)),
      "batched n=10 saturation over n=4" ) ]

let contains ~sub s =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

let diff_test =
  Alcotest.test_case "diff against a baseline pairs every numeric row by path"
    `Quick (fun () ->
      let base = committed "BENCH_perf.json" in
      let same = Load.Artifact.diff ~baseline:base base in
      Alcotest.(check bool) "every row of an identical report is unchanged" true
        (same <> []
         && List.for_all
              (fun c -> c.Load.Artifact.before = c.Load.Artifact.after && c.before <> None)
              same);
      (* Halve the first row's time and drop the last row. *)
      let edited =
        field "results"
          (fun rows ->
            first (field "ms_per_op" (fun v ->
              J.Num (Option.get (J.num_opt v) /. 2.0))) rows
            |> elems (fun l -> List.filteri (fun i _ -> i < List.length l - 1) l))
          base
      in
      let changes = Load.Artifact.diff ~baseline:base edited in
      let find path = List.find (fun c -> c.Load.Artifact.path = path) changes in
      let c = find "results[0:powmod-barrett].ms_per_op" in
      (match c.before, c.after with
       | Some b, Some a -> Alcotest.(check (float 1e-9)) "halved" (b /. 2.0) a
       | _ -> Alcotest.fail "first row not paired");
      let gone = List.filter (fun c -> c.Load.Artifact.after = None) changes in
      Alcotest.(check (list string)) "the dropped row is reported gone"
        [ "results[27:coin-batch-verify-k3].mod_bits";
          "results[27:coin-batch-verify-k3].ms_per_op" ]
        (List.map (fun c -> c.Load.Artifact.path) gone);
      Alcotest.(check int) "as many rows as the baseline" (List.length same)
        (List.length changes))

let changes_table_test =
  Alcotest.test_case "changes table: one aligned line per row" `Quick (fun () ->
    let row path before after = { Load.Artifact.path; before; after } in
    Alcotest.(check string) "table"
      "  a.x              2 -> 2             =\n\
      \  a.yy             4 -> 5             +25.0%\n\
      \  b                0 -> 1             changed\n\
      \  c                - -> 3             new\n\
      \  d              1.5 -> -             gone\n"
      (Load.Artifact.changes_table
         [ row "a.x" (Some 2.0) (Some 2.0); row "a.yy" (Some 4.0) (Some 5.0);
           row "b" (Some 0.0) (Some 1.0); row "c" None (Some 3.0);
           row "d" (Some 1.5) None ]))

let suite =
  Alcotest.test_case "every committed artifact passes" `Quick (fun () ->
    List.iter
      (fun file ->
        match Load.Artifact.check ~file (committed file) with
        | Ok _ -> ()
        | Error vs -> Alcotest.failf "%s: %s" file (String.concat "; " vs))
      artifacts)
  :: Alcotest.test_case "a smoke perf report passes under its own name" `Quick
       (fun () ->
         match
           Load.Artifact.check ~file:"smoke_perf.json"
             (smoke_perf (committed "BENCH_perf.json"))
         with
         | Ok _ -> ()
         | Error vs -> Alcotest.fail (String.concat "; " vs))
  :: Alcotest.test_case "a report under another artifact's name fails" `Quick
       (fun () ->
         match
           Load.Artifact.check ~file:"BENCH_latency.json"
             (committed "BENCH_throughput.json")
         with
         | Ok _ -> Alcotest.fail "a throughput report passed as BENCH_latency.json"
         | Error _ -> ())
  :: List.map
       (fun (what, file, edit, fragment) ->
         Alcotest.test_case ("planted: " ^ what) `Quick (fun () ->
           match Load.Artifact.check ~file (edit (committed file)) with
           | Ok _ -> Alcotest.failf "%s passed bench-check" what
           | Error vs ->
             if not (List.exists (contains ~sub:fragment) vs) then
               Alcotest.failf "no violation mentions %S: %s" fragment
                 (String.concat "; " vs)))
       planted
  @ [ diff_test; changes_table_test ]
