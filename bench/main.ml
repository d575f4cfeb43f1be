(* The benchmark harness: regenerates every table and figure from Section 4
   of "Secure Intrusion-tolerant Replication on the Internet" (DSN 2002).

     dune exec bench/main.exe                 - everything, reduced message
                                                counts (finishes in minutes)
     dune exec bench/main.exe -- --full       - paper-scale message counts
     dune exec bench/main.exe -- fig4 table1  - a subset (@paper-smoke runs
                                                fig4 fig5 table1)
     dune exec bench/main.exe -- micro        - bechamel crypto microbenches
     dune exec bench/main.exe -- perf         - fast-path wall-clock comparison
                                                (512-bit quick mode unless --full)
     dune exec bench/main.exe -- vopr         - schedule-explorer seeds/sec
     dune exec bench/main.exe -- throughput   - batched vs unbatched atomic
                                                broadcast sweep
     dune exec bench/main.exe -- latency      - traced offered-load ladder
                                                with critical-path phase
                                                attribution
     dune exec bench/main.exe -- durability   - rebuild-at-tip cost, full log
                                                replay vs checkpointed replay
                                                vs snapshot transfer

   Those five sections are the generators of the committed artifacts: each
   writes BENCH_<section>.json (smoke-sized unless --full), or FILE under
   --out FILE, which needs exactly one of them selected.  `sintra_sim
   bench-check` judges the result.

   Absolute numbers come from a simulator calibrated with the paper's host
   and network measurements; the claims to check are the *shapes* (see
   EXPERIMENTS.md). *)

let known =
  [ "fig3"; "fig4"; "fig5"; "table1"; "fig6"; "hosts"; "micro"; "perf";
    "ablations"; "vopr"; "throughput"; "latency"; "durability" ]

let () =
  let rec take_out = function
    | "--out" :: file :: rest -> (Some file, rest)
    | a :: rest ->
      let out, rest = take_out rest in
      (out, a :: rest)
    | [] -> (None, [])
  in
  let out, args = take_out (List.tl (Array.to_list Sys.argv)) in
  let full = List.mem "--full" args in
  let args = List.filter (fun a -> a <> "--full") args in
  List.iter
    (fun a ->
      if not (List.mem a known) then begin
        Printf.eprintf
          "unknown experiment %S (known: %s, plus --full and --out FILE)\n" a
          (String.concat " " known);
        exit 2
      end)
    args;
  let selected name = args = [] || List.mem name args in
  let artifacts = [ "perf"; "vopr"; "throughput"; "latency"; "durability" ] in
  if out <> None && List.length (List.filter selected artifacts) <> 1 then begin
    Printf.eprintf "--out FILE needs exactly one of: %s\n"
      (String.concat " " artifacts);
    exit 2
  end;
  let t0 = Unix.gettimeofday () in
  let section name f =
    if selected name then begin
      let t = Unix.gettimeofday () in
      f ();
      Printf.printf "[%s took %.1fs real time]\n\n%!" name (Unix.gettimeofday () -. t)
    end
  in
  print_endline "SINTRA benchmark harness - reproducing DSN 2002, Section 4";
  Printf.printf "mode: %s\n\n%!"
    (if full then "full (paper-scale runs)" else "reduced (use --full for paper-scale)");
  let h = Experiments.harness () in
  section "hosts" (fun () -> Experiments.hosts ());
  section "fig3" (fun () -> Experiments.fig3 ());
  section "fig4" (fun () -> Experiments.fig4 h ~messages:(if full then 999 else 150) ());
  section "fig5" (fun () -> Experiments.fig5 h ~messages:(if full then 999 else 150) ());
  section "table1" (fun () -> Experiments.table1 h ~messages:(if full then 500 else 60) ());
  section "fig6" (fun () -> Experiments.fig6 h ~messages:(if full then 100 else 25) ());
  section "ablations" (fun () -> Ablations.all h);
  section "micro" (fun () -> Micro.all ());
  let artifact name generate =
    section name (fun () ->
      let path = Option.value out ~default:("BENCH_" ^ name ^ ".json") in
      let text = generate ~quick:(not full) () in
      let oc = open_out path in
      output_string oc text;
      close_out oc;
      Printf.printf "wrote %s\n" path)
  in
  artifact "perf" Micro.perf;
  artifact "vopr" Vopr_bench.run;
  artifact "throughput" Throughput_bench.run;
  artifact "latency" Latency_bench.run;
  artifact "durability" (Durability_bench.run h);
  if h.Experiments.metrics <> [] then begin
    let path = "BENCH_trace.json" in
    let oc = open_out path in
    output_string oc (Experiments.metrics_json h);
    close_out oc;
    Printf.printf "wrote %s (%d experiment metric sets)\n" path
      (List.length h.Experiments.metrics)
  end;
  Printf.printf "total: %.1fs real time\n" (Unix.gettimeofday () -. t0)
