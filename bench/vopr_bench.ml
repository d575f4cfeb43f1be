(* Schedule-explorer throughput: sweep a batch of seeds per workload and
   report seeds/sec and oracle failures for every explorer workload,
   rendered as the vopr artifact (whose floors demand zero failures). *)

let seed = "bench-vopr"

let run ~(quick : bool) () : string =
  let seeds = if quick then 20 else 200 in
  Printf.printf "=== Schedule explorer throughput (%d seeds per workload) ===\n\n"
    seeds;
  let rows =
    List.map
      (fun kind ->
        let runner ~seed sched = Vopr.Workload.run ~kind ~seed sched in
        let oracles = Vopr.Oracle.all kind in
        let t0 = Unix.gettimeofday () in
        let report =
          Vopr.Explorer.explore ~runner ~oracles
            ~generate:(fun ~run_seed -> Vopr.Workload.schedule ~kind ~run_seed)
            ~seed ~seeds ()
        in
        let dt = Unix.gettimeofday () -. t0 in
        let rate = float_of_int seeds /. (dt +. 1e-9) in
        let failures = List.length report.Vopr.Explorer.failures in
        Printf.printf "  %-12s %4d runs  %d failure(s)  %8.1f seeds/sec\n%!"
          (Vopr.Oracle.kind_to_string kind)
          report.Vopr.Explorer.runs failures rate;
        (kind, report.Vopr.Explorer.runs, failures, rate))
      Vopr.Oracle.all_kinds
  in
  Load.Artifact.render ~name:"vopr" ~seed ~smoke:quick
    [ ("seeds_per_workload", string_of_int seeds);
      ( "failures",
        string_of_int (List.fold_left (fun acc (_, _, f, _) -> acc + f) 0 rows) );
      ( "results",
        Load.Artifact.rows
          (List.map
             (fun (kind, runs, failures, rate) ->
               Printf.sprintf
                 "{\"workload\": %S, \"runs\": %d, \"failures\": %d, \
                  \"seeds_per_sec\": %.2f}"
                 (Vopr.Oracle.kind_to_string kind)
                 runs failures rate)
             rows) ) ]
