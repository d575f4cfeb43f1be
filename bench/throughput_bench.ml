(* The throughput section of the bench harness: latency-vs-offered-load
   curves for batched vs unbatched atomic broadcast (lib/load sweep),
   rendered as the throughput artifact.

   Quick mode runs the CI-sized smoke sweep; --full runs the real thing
   (n in {4, 7, 10}, five offered rates, 10 virtual seconds per point) and
   is what the committed BENCH_throughput.json is regenerated with. *)

let run ~(quick : bool) () : string =
  print_endline "--- throughput: batched vs unbatched atomic broadcast ---";
  let report = Load.Sweep.run ~smoke:quick () in
  List.iter
    (fun (s : Load.Sweep.series) ->
      Printf.printf "\nn=%d t=%d, %s (open-loop ladder, then closed-loop):\n"
        s.Load.Sweep.n s.Load.Sweep.t
        (if s.Load.Sweep.batched then "batched" else "unbatched (max_batch=1)");
      Printf.printf "  %12s %14s %12s %12s\n" "offered/s" "throughput/s"
        "p50 (s)" "p90 (s)";
      List.iter
        (fun (p : Load.Sweep.point) ->
          Printf.printf "  %12.1f %14.1f %12.3f %12.3f\n"
            p.Load.Sweep.offered_per_s p.Load.Sweep.throughput_per_s
            p.Load.Sweep.latency_p50_s p.Load.Sweep.latency_p90_s)
        s.Load.Sweep.points;
      let sat = s.Load.Sweep.saturation in
      Printf.printf "  %12s %14.1f %12.3f %12.3f  (%d rounds)\n" "closed-loop"
        sat.Load.Sweep.throughput_per_s sat.Load.Sweep.latency_p50_s
        sat.Load.Sweep.latency_p90_s s.Load.Sweep.rounds)
    report.Load.Sweep.series;
  (match
     ( Load.Sweep.saturation_throughput report ~n:4 ~batched:true,
       Load.Sweep.saturation_throughput report ~n:4 ~batched:false )
   with
   | Some b, Some u when u > 0.0 ->
     Printf.printf "\nn=4 batched/unbatched saturation ratio: %.2fx\n" (b /. u)
   | _ -> ());
  Load.Sweep.to_json report
