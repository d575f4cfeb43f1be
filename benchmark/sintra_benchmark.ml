(* The SINTRA benchmark.

     sintra_benchmark --workload NAME --seed N --seconds S --trace 0|1

   --trace 0 prints the end-to-end metrics: set-up time, then the
   workload's simulations run untraced (virtual-clock service metrics,
   host CPU per payload, peak heap).  The simulations are repeated for
   host time while the --seconds budget allows another full pass; every
   pass must reproduce the virtual results exactly.

   --trace 1 prints the per-layer metrics: the first simulation runs once
   untraced and once with an in-memory trace sink and a pass-through frame
   intercept.  The traced run must reproduce the untraced one exactly.

   Every run checks its deliveries (see gate.ml) and ends with one JSON
   line: {"correct", "attempted", "failed", "metrics"}. *)

open Sintra

let die fmt =
  Printf.ksprintf
    (fun m ->
      prerr_endline ("sintra_benchmark: " ^ m);
      exit 2)
    fmt

(* --- command line --- *)

type args = { workload : Workload.t; seed : string; seconds : float; trace : bool }

let parse () : args =
  let workload = ref "" and seed = ref "" and seconds = ref 10.0 and trace = ref 0 in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME  workload to run");
      ("--seed", Arg.Set_string seed, "N  seed the inputs derive from");
      ("--seconds", Arg.Set_float seconds, "S  host-time budget of the measurement");
      ("--trace", Arg.Set_int trace, "0|1  end-to-end (0) or per-layer (1) metrics") ]
    (fun a -> die "unexpected argument %s" a)
    "sintra_benchmark --workload NAME --seed N --seconds S --trace 0|1";
  let w =
    match Workload.find !workload with
    | Some w -> w
    | None ->
      die "unknown workload %S (one of: %s)" !workload
        (String.concat ", " (List.map (fun w -> w.Workload.name) Workload.all))
  in
  if !seed = "" then die "--seed is required";
  if !trace <> 0 && !trace <> 1 then die "--trace must be 0 or 1";
  { workload = w; seed = !seed; seconds = !seconds; trace = !trace = 1 }

(* --- helpers --- *)

let median (xs : float list) : float =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then 0.0
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let ratio (x : float) (y : float) : float = if y = 0.0 then 0.0 else x /. y

(* One simulation, untraced unless [record] installs recorders. *)
type sim = {
  prep : Workload.prepared;
  out : Workload.outcome;
  clock : Hostclock.meter;  (** host CPU of [Cluster.run], raw and scaled *)
  gc0 : Gc.stat;
  gc1 : Gc.stat;
  heap_mb : float;  (** live major heap at its largest during [Cluster.run] *)
}

(* The engine runs in slices of this many events, each timed between two
   calibrations; slicing by event count leaves the schedule unchanged. *)
let slice_events = 5000

let simulate ?(record = fun (_ : Cluster.t) -> ()) (w : Workload.t)
    ~(dealer : Dealer.t) ~(seed : string) : sim =
  (* Collect the previous simulation's garbage, then sample the live major
     heap at the end of every major cycle.  Live words, not heap words:
     the runtime hands free pools back lazily, so the heap's size carries
     whatever ran before (the dealer's prime search, earlier simulations). *)
  Gc.compact ();
  let prep = Workload.prepare w ~dealer ~seed in
  record prep.Workload.cluster;
  let peak = ref 0 in
  let sample () = peak := max !peak (Gc.quick_stat ()).Gc.live_words in
  let alarm = Gc.create_alarm sample in
  let clock = Hostclock.meter () in
  let gc0 = Gc.quick_stat () in
  let rec go total =
    let k =
      Hostclock.slice clock (fun () ->
        Cluster.run ~max_events:slice_events prep.Workload.cluster)
    in
    if k < slice_events then total + k else go (total + k)
  in
  let events = go 0 in
  let gc1 = Gc.quick_stat () in
  Gc.delete_alarm alarm;
  sample ();
  { prep; out = Workload.outcome prep ~events; clock; gc0; gc1;
    heap_mb = float_of_int (!peak * (Sys.word_size / 8)) /. 1048576.0 }

let subseed (seed : string) (k : int) : string = Printf.sprintf "%s/%d" seed k

(* Virtual results two simulations of one seed must share. *)
let same_virtual (a : Workload.outcome) (b : Workload.outcome) : bool =
  a.fingerprint = b.fingerprint && a.events = b.events && a.issued = b.issued
  && a.completed = b.completed && a.latencies = b.latencies
  && a.recovery_s = b.recovery_s

let host_ms_per_payload (s : sim) : float =
  1000.0 *. ratio s.clock.Hostclock.scaled_s (float_of_int s.out.payloads)

(* --- output --- *)

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

let emit ~(correct : bool) ~(attempted : int) ~(failed : int)
    (metrics : metric list) : unit =
  let correct = correct && List.for_all (fun x -> Float.is_finite x.value) metrics in
  List.iter
    (fun x -> Printf.printf "  %-44s %16.6f %s\n" x.name x.value x.unit_)
    metrics;
  let body =
    String.concat ", "
      (List.map
         (fun x ->
           Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" x.name
             (if Float.is_finite x.value then x.value else 0.0)
             x.unit_)
         metrics)
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed body

let report_gate (label : string) (o : Workload.outcome) : bool =
  List.iter (fun e -> Printf.eprintf "GATE FAILED [%s]: %s\n%!" label e) o.gate;
  if not o.plant_caught then
    Printf.eprintf "GATE FAILED [%s]: a planted divergence was not caught\n%!"
      label;
  o.gate = [] && o.plant_caught

(* --- --trace 0: end-to-end --- *)

let setups = 5

let end_to_end (a : args) : unit =
  let w = a.workload in
  (* Set-up: dealer, cluster and channel construction, median of several. *)
  let setup_s =
    median
      (List.init setups (fun _ ->
         snd
           (Hostclock.timed (fun () ->
              Workload.prepare w ~dealer:(Workload.deal w ~seed:a.seed)
                ~seed:(subseed a.seed 0)))))
  in
  let dealer = Workload.deal w ~seed:a.seed in
  let t0 = Unix.gettimeofday () in
  (* Keep only each simulation's outcome, host cost and peak heap. *)
  let pass () =
    List.init w.subruns (fun k ->
      let s = simulate w ~dealer ~seed:(subseed a.seed k) in
      (s.out, (host_ms_per_payload s, s.heap_mb)))
  in
  let first = pass () in
  let pass_s = Unix.gettimeofday () -. t0 in
  let rec more acc =
    if Unix.gettimeofday () -. t0 +. pass_s <= a.seconds then more (pass () :: acc)
    else acc
  in
  let extra = more [] in
  let deterministic =
    List.for_all
      (fun p -> List.for_all2 (fun (x, _) (y, _) -> same_virtual x y) first p)
      extra
  in
  if not deterministic then
    prerr_endline "sintra_benchmark: a repeated pass changed the virtual results";
  let outs = List.map fst first in
  let gates_ok =
    List.for_all Fun.id
      (List.mapi (fun k o -> report_gate (subseed a.seed k) o) outs)
  in
  let sum f = List.fold_left (fun acc o -> acc + f o) 0 outs in
  let issued = sum (fun o -> o.issued) and completed = sum (fun o -> o.completed) in
  let sorted l =
    let a = Array.of_list l in
    Array.sort Float.compare a;
    a
  in
  let lats = sorted (List.concat_map (fun o -> o.Workload.latencies) outs) in
  (* p99 per simulation, then the median: a slow-agreement episode sets the
     p99 of the simulation it falls in, and only one in several has one. *)
  let p99s =
    List.map (fun (o : Workload.outcome) -> Load.Sweep.quantile (sorted o.latencies) 0.99) outs
  in
  List.iteri
    (fun k (((o : Workload.outcome), (host, heap)), p99) ->
      Printf.printf
        "  simulation %s: %d issued, %d completed, %d delivered at party 0, p99 \
         %.4f s, %.3f host ms/payload, heap %.1f MB\n"
        (subseed a.seed k) o.issued o.completed o.payloads p99 host heap)
    (List.combine first p99s);
  Printf.printf
    "%s seed %s: %d simulations x %d passes, %d latency samples; open-loop \
     generator lateness 0 s (virtual clock)\n"
    w.name a.seed w.subruns (1 + List.length extra) (Array.length lats);
  emit
    ~correct:(gates_ok && deterministic)
    ~attempted:issued ~failed:(issued - completed)
    [ m "throughput_rps" "1/s"
        (float_of_int (sum (fun o -> o.delivered_in_window))
         /. (float_of_int w.subruns *. w.window));
      m "latency_p50_s" "s" (Load.Sweep.quantile lats 0.5);
      m "latency_p99_s" "s" (median p99s);
      m "completed_ratio" "ratio" (ratio (float_of_int completed) (float_of_int issued));
      m "host_ms_per_payload" "ms"
        (median (List.concat_map (List.map (fun (_, (h, _)) -> h)) (first :: extra)));
      m "peak_heap_mb" "MB" (median (List.map (fun (_, (_, mb)) -> mb) first));
      m "setup_s" "s" setup_s ]

(* --- --trace 1: per-layer --- *)

let per_layer (a : args) : unit =
  let w = a.workload in
  let dealer = Workload.deal w ~seed:a.seed in
  let seed = subseed a.seed 0 in
  let plain = simulate w ~dealer ~seed in
  let recording = ref None in
  let traced =
    simulate w ~dealer ~seed ~record:(fun c -> recording := Some (Layers.record c))
  in
  let r = Option.get !recording in
  let events = List.rev r.Layers.events and frames = List.rev r.Layers.frames in
  r.Layers.events <- [];
  r.Layers.frames <- [];
  let o = plain.out in
  let equivalent = same_virtual o traced.out in
  if not equivalent then
    prerr_endline
      "sintra_benchmark: the traced run did not reproduce the untraced run";
  let gates_ok = report_gate seed o && report_gate (seed ^ " traced") traced.out in
  let payloads = o.payloads in
  let per x = Layers.per x payloads in
  (* Host times measured inside the simulation are scaled like it. *)
  let speed = Hostclock.speed plain.clock in
  let metrics = Cluster.publish_metrics plain.prep.Workload.cluster in
  let charged =
    List.init w.n (fun i ->
      Layers.counter metrics (Printf.sprintf "p%d/cpu.charged_s" i))
  in
  (* wire *)
  let sizes = Array.of_list (List.map (fun f -> float_of_int (String.length f.Layers.bytes)) frames) in
  Array.sort Float.compare sizes;
  let wire_bytes = Array.fold_left ( +. ) 0.0 sizes in
  let nframes = Array.length sizes in
  let hmac_ms = 1000.0 *. Layers.hmac_replay dealer frames in
  (* crypto *)
  let counted = Layers.crypto_ops events in
  Hashtbl.iter
    (fun op _ ->
      if not (List.mem op Units.ops) then
        Printf.eprintf "sintra_benchmark: crypto span %s has no unit timer\n%!" op)
    counted;
  let batch_k = Layers.pooled_mean metrics ~name:"verify.batch_size" in
  let units =
    Units.crypto dealer
      ~msg_bytes:(int_of_float (ratio wire_bytes (float_of_int nframes)))
      ~batch_k:(if batch_k > 0.0 then batch_k else float_of_int (Config.coin_threshold (Workload.cfg w)))
  in
  let ops_per op = per (float_of_int (Option.value (Hashtbl.find_opt counted op) ~default:0)) in
  let crypto_ms =
    List.fold_left (fun acc (op, us) -> acc +. (ops_per op *. us /. 1000.0)) 0.0 units
  in
  let hits = Layers.sum_counters metrics ~suffix:"verify.cache_hit"
  and misses = Layers.sum_counters metrics ~suffix:"verify.cache_miss" in
  (* sintra *)
  let cp = Trace.Causal.analyze events in
  let phase name =
    ratio (List.assoc name (Trace.Causal.phases_fields cp.Trace.Causal.r_phases))
      cp.Trace.Causal.r_total
  in
  let hops =
    ratio
      (float_of_int
         (List.fold_left (fun acc p -> acc + p.Trace.Causal.p_hops) 0 cp.Trace.Causal.r_payloads))
      (float_of_int (List.length cp.Trace.Causal.r_payloads))
  in
  let rounds0 = Layers.counter metrics "p0/abc.rounds" in
  (* store *)
  let store =
    match (w.checkpoint_interval, w.fault) with
    | Some _, Some f ->
      let newest i = List.hd !(plain.prep.Workload.durables.(i)) in
      let log = Store.Log.replay (Durable.device (newest 0)) in
      let round_bytes, rounds =
        List.fold_left
          (fun (b, n) r ->
            match r with
            | Store.Log.Round _ -> (b + String.length (Store.Log.frame r), n + 1)
            | _ -> (b, n))
          (0, 0) log.Store.Log.records
      in
      [ ratio (float_of_int round_bytes) (float_of_int rounds);
        float_of_int (Durable.checkpoints (newest 0));
        float_of_int (Durable.snapshots_adopted (newest f.victim));
        float_of_int (Durable.replayed_rounds (newest f.victim));
        float_of_int
          (Layers.catchup_rounds ~pid:"bench" ~victim:f.victim ~since:f.restart_at frames);
        1000.0 *. plain.prep.Workload.recover_s *. speed;
        o.recovery_s ]
    | _ -> List.init 7 (fun _ -> 0.0)
  in
  let store_names =
    [ ("store.wal_bytes_per_round", "bytes"); ("store.checkpoints", "count");
      ("store.snapshots_adopted", "count"); ("store.replayed_rounds", "count");
      ("store.catchup_rounds", "count"); ("store.recover_host_ms", "ms");
      ("store.recovery_s", "s") ]
  in
  let host_ms = host_ms_per_payload plain in
  let gc f = f plain.gc1 -. f plain.gc0 in
  Printf.printf "%s seed %s: traced simulation, %d payloads, %d events, %d frames\n"
    w.name seed payloads o.events nframes;
  emit
    ~correct:(gates_ok && equivalent)
    ~attempted:o.issued ~failed:(o.issued - o.completed)
    ([ m "sim.events_per_payload" "count" (per (float_of_int o.events));
       m "sim.host_us_per_event" "us"
         (1e6 *. ratio plain.clock.Hostclock.scaled_s (float_of_int o.events));
       m "sim.vcpu_ms_per_payload" "ms" (per (1000.0 *. List.fold_left ( +. ) 0.0 charged));
       m "sim.vcpu_busy_max" "ratio" (ratio (List.fold_left Float.max 0.0 charged) o.end_s);
       m "wire.frames_per_payload" "count" (per (float_of_int nframes));
       m "wire.bytes_per_payload" "bytes" (per wire_bytes);
       m "wire.frame_bytes_p99" "bytes" (Load.Sweep.quantile sizes 0.99);
       m "hashes.hmac_ms_per_payload" "ms" (per hmac_ms) ]
    @ List.map (fun op -> m ("crypto.ops_per_payload." ^ op) "count" (ops_per op)) Units.ops
    @ List.map (fun (op, us) -> m ("crypto.us." ^ op) "us" us) units
    @ [ m "crypto.host_ms_per_payload" "ms" crypto_ms;
        m "crypto.cache_hit_ratio" "ratio" (ratio hits (hits +. misses));
        m "crypto.batch_size_mean" "count" batch_k ]
    @ List.map
        (fun (name, v) -> m name (if String.ends_with ~suffix:"_us" name then "us" else "ratio") v)
        (Units.bignum dealer)
    @ [ m "sintra.rounds_per_s" "1/s" (ratio rounds0 o.end_s);
        m "sintra.payloads_per_round" "count"
          (ratio (Layers.counter metrics "p0/abc.batch_payloads") rounds0);
        m "sintra.queue_depth_p99" "count"
          (Layers.pooled_quantile metrics ~name:"abc.queue_depth" 0.99);
        m "sintra.reorder_depth_max" "count"
          (Layers.pooled_quantile metrics ~name:"abc.reorder_depth" 1.0) ]
    @ List.map
        (fun ph -> m (Printf.sprintf "sintra.cp.%s_frac" ph) "ratio" (phase ph))
        [ "pending"; "queue"; "transit"; "crypto"; "compute" ]
    @ [ m "sintra.cp.hops_mean" "count" hops;
        m "sintra.send_us" "us"
          (1e6 *. speed
           *. ratio plain.prep.Workload.send_s (float_of_int plain.prep.Workload.sends)) ]
    @ List.map2 (fun (name, u) v -> m name u v) store_names store
    @ [ m "trace.events_per_payload" "count" (per (float_of_int (List.length events)));
        m "trace.overhead_frac" "ratio"
          (ratio traced.clock.Hostclock.scaled_s plain.clock.Hostclock.scaled_s -. 1.0);
        m "gc.minor_words_per_payload" "words" (per (gc (fun s -> s.Gc.minor_words)));
        m "gc.major_words_per_payload" "words" (per (gc (fun s -> s.Gc.major_words)));
        m "gc.major_collections" "count"
          (gc (fun s -> float_of_int s.Gc.major_collections));
        m "host.attributed_frac" "ratio" (ratio (crypto_ms +. per hmac_ms) host_ms);
        m "host.raw_ms_per_payload" "ms" (per (1000.0 *. plain.clock.Hostclock.raw_s));
        m "host.speed" "ratio" speed ])

let () =
  let a = parse () in
  if a.trace then per_layer a else end_to_end a
