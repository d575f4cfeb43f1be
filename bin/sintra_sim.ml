(* sintra_sim: a command-line driver for the SINTRA simulator.

     dune exec bin/sintra_sim.exe -- run --channel atomic --topology internet \
         --senders 0,1,2 --messages 30
     dune exec bin/sintra_sim.exe -- agree --proposals 1,0,1,0
     dune exec bin/sintra_sim.exe -- explore --workload secure --seeds 50

   Eight subcommands: run and agree drive the protocols over a simulated
   test-bed (pick a channel, topology, fault set and workload; get the
   delivery trace and per-host statistics); explore sweeps adversarial
   schedules; trace-check, critical-path, bench-check, store-check and
   durability-check judge what the others write.  Each is argument parsing
   plus calls into the library, where the logic lives next to its tests. *)

open Cmdliner
open Sintra

(* --- shared arguments --- *)

let topology_of_string = function
  | "lan" -> Ok Sim.Topology.lan
  | "internet" -> Ok Sim.Topology.internet
  | "combined" -> Ok Sim.Topology.combined
  | s ->
    (match int_of_string_opt s with
     | Some n when n >= 4 -> Ok (Sim.Topology.uniform ~count:n ())
     | _ -> Error (`Msg (Printf.sprintf "unknown topology %S (lan|internet|combined|<n>)" s)))

let topology_conv =
  Arg.conv
    ((fun s -> topology_of_string s),
     fun fmt t -> Format.pp_print_string fmt t.Sim.Topology.label)

let topology_arg =
  Arg.(value & opt topology_conv Sim.Topology.lan
       & info [ "topology" ] ~docv:"TOPO" ~doc:"lan, internet, combined, or a node count.")

(* Party-id lists checked against the group size n of --topology: an id
   outside 0..n-1 is a usage error (exit 2), caught before anything runs.
   Returns the topology. *)
let group_arg ~(cmd : string) (lists : (string * int list Term.t) list) :
    Sim.Topology.t Term.t =
  let check topo flag ids =
    let n = Sim.Topology.n topo in
    (match List.find_opt (fun i -> i < 0 || i >= n) ids with
     | Some i ->
       Printf.eprintf "sintra_sim %s: %s: party %d is outside 0..%d\n" cmd flag i
         (n - 1);
       exit 2
     | None -> ());
    topo
  in
  List.fold_left
    (fun topo (flag, ids) -> Term.(const check $ topo $ const flag $ ids))
    topology_arg lists

(* Counts: a value below [min] is a usage error, like a malformed integer. *)
let count ~(min : int) : int Arg.conv =
  let parse s =
    Result.bind (Arg.conv_parser Arg.int s) (fun v ->
      if v >= min then Ok v
      else Error (`Msg (Printf.sprintf "%d is below the minimum %d" v min)))
  in
  Arg.conv (parse, Format.pp_print_int)

let non_negative = count ~min:0
let positive = count ~min:1

let seed_arg =
  Arg.(value & opt string "cli" & info [ "seed" ] ~docv:"SEED" ~doc:"Determinism seed.")

let scheme_arg =
  let scheme_conv =
    Arg.enum [ ("multi", Config.Multi); ("shoup", Config.Shoup) ]
  in
  Arg.(value & opt scheme_conv Config.Multi
       & info [ "scheme" ] ~docv:"SCHEME" ~doc:"Threshold signatures: multi or shoup.")

let crashes_arg =
  Arg.(value & opt (list int) [] & info [ "crash" ] ~docv:"IDS" ~doc:"Parties to crash at t=0.")

let int_list_arg name ~doc ~default =
  Arg.(value & opt (list int) default & info [ name ] ~docv:"IDS" ~doc)

let faults_t (topo : Sim.Topology.t) : int =
  (Sim.Topology.n topo - 1) / 3

let no_batching_arg =
  Arg.(value & flag
       & info [ "no-batching" ]
           ~doc:"Force max_batch = 1: one payload per party per atomic \
                 round, the pre-batching baseline of the throughput \
                 benchmarks.")

let pipeline_depth_arg =
  Arg.(value & opt (some ~none:"Config default" positive) None
       & info [ "pipeline-depth" ] ~docv:"W"
           ~doc:"Atomic-broadcast rounds in flight concurrently (the \
                 pipeline window); 1 reproduces the strictly sequential \
                 protocol.")

let durable_arg =
  Arg.(value & flag
       & info [ "durable" ]
           ~doc:"Attach the durability layer to every party (atomic channel \
                 only): write-ahead logging of delivered rounds, \
                 threshold-signed checkpoints, and log/backlog garbage \
                 collection below the latest stable checkpoint.")

let checkpoint_interval_arg count ~default ~doc =
  Arg.(value & opt count default & info [ "checkpoint-interval" ] ~docv:"R" ~doc)

let store_dir_arg =
  Arg.(value & opt (some string) None
       & info [ "store-dir" ] ~docv:"DIR"
           ~doc:"Back each party's write-ahead log with a real file \
                 $(docv)/p<i>.wal (inspectable with store-check) instead of \
                 an in-memory device.  The directory is created if missing.                  Requires --durable.")

let make_cluster ~seed ~scheme ?(no_batching = false) ?pipeline_depth
    (topo : Sim.Topology.t) : Cluster.t =
  let n = Sim.Topology.n topo in
  let t = faults_t topo in
  let cfg =
    Config.make ~tsig_scheme:scheme ~perm_mode:Config.Random_local
      ?max_batch:(if no_batching then Some 1 else None)
      ?pipeline_depth ~n ~t ()
  in
  Cluster.create ~seed ~topo cfg

(* --- tracing and metrics options --- *)

type trace_format = Jsonl | Chrome

let trace_file_arg =
  Arg.(value & opt (some string) None
       & info [ "trace" ] ~docv:"FILE" ~doc:"Write a structured event trace to $(docv).")

let trace_format_arg =
  let fmt_conv = Arg.enum [ ("jsonl", Jsonl); ("chrome", Chrome) ] in
  Arg.(value & opt fmt_conv Jsonl
       & info [ "trace-format" ] ~docv:"FMT"
           ~doc:"Trace format: jsonl (one event per line) or chrome \
                 (trace-event JSON, loadable in Perfetto / chrome://tracing).")

let stats_arg =
  Arg.(value & flag
       & info [ "stats" ] ~doc:"Print per-party metrics after the run.")

let write_file (path : string) (contents : string) : unit =
  Out_channel.with_open_bin path (fun oc -> output_string oc contents)

let read_file (path : string) : string = In_channel.with_open_bin path In_channel.input_all

(* Install the requested sink on [c]; returns a finalizer that writes the
   file and reports the event count. *)
let setup_trace (c : Cluster.t) (file : string option) (fmt : trace_format)
  : unit -> unit =
  match file, fmt with
  | None, _ -> ignore
  | Some path, Jsonl ->
    let buf = Buffer.create (1 lsl 16) in
    Cluster.set_sink c (Trace.Sink.jsonl buf);
    fun () ->
      write_file path (Buffer.contents buf);
      Printf.printf "trace: wrote %s (jsonl)\n" path
  | Some path, Chrome ->
    let ch = Trace.Sink.chrome () in
    Cluster.set_sink c (Trace.Sink.chrome_sink ch);
    fun () ->
      write_file path (Trace.Sink.chrome_contents ch);
      Printf.printf "trace: wrote %s (chrome, %d events)\n" path
        (Trace.Sink.chrome_count ch)

(* --- run: drive a channel --- *)

let channel_arg =
  let channel_conv =
    Arg.enum (List.map (fun k -> (Cluster.channel_name k, k)) Cluster.channels)
  in
  Arg.(value & opt channel_conv Cluster.Atomic
       & info [ "channel" ] ~docv:"KIND" ~doc:"atomic, secure, reliable or consistent.")

let run_cmd =
  let run channel topo seed scheme no_batching pipeline_depth
      durable checkpoint_interval store_dir
      senders messages crashes verbose trace_file trace_format stats =
    if durable && channel <> Cluster.Atomic then begin
      prerr_endline "sintra_sim run: --durable requires --channel atomic";
      exit 2
    end;
    if store_dir <> None && not durable then begin
      prerr_endline "sintra_sim run: --store-dir requires --durable";
      exit 2
    end;
    let n = Sim.Topology.n topo in
    let c = make_cluster ~seed ~scheme ~no_batching ?pipeline_depth topo in
    let finish_trace = setup_trace c trace_file trace_format in
    let deliveries = ref [] in
    let record i ~sender msg =
      if i = 0 then deliveries := (Cluster.now c, sender, msg) :: !deliveries
    in
    let rt = Cluster.runtime c in
    let sends, durables =
      if durable then begin
        (match store_dir with
         | Some dir when not (Sys.file_exists dir) -> Sys.mkdir dir 0o755
         | Some _ | None -> ());
        let parties =
          Array.init n (fun i ->
            let ch = Atomic_channel.create (rt i) ~pid:"cli" ~on_deliver:(record i) () in
            let dev =
              match store_dir with
              | Some dir ->
                Store.Device.file (Filename.concat dir (Printf.sprintf "p%d.wal" i))
              | None -> Store.Device.mem ()
            in
            ( Atomic_channel.send ch,
              Durable.attach (rt i) ~chan:ch ~pid:"cli" ~dev
                ~interval:checkpoint_interval () ))
        in
        (Array.map fst parties, Array.map snd parties)
      end
      else
        ( Array.init n (fun i ->
            Cluster.join channel (rt i) ~pid:"cli" ~on_deliver:(record i)),
          [||] )
    in
    List.iter (Cluster.crash c) crashes;
    List.iter
      (fun s ->
        if not (List.mem s crashes) then
          for k = 0 to messages - 1 do
            Cluster.inject c s (fun () -> sends.(s) (Printf.sprintf "msg-%d.%d" s k))
          done)
      senders;
    let events = Cluster.run c in
    let ds = List.rev !deliveries in
    Printf.printf "topology %s, n=%d t=%d, %d events, %.3f virtual seconds\n"
      topo.Sim.Topology.label n (faults_t topo) events (Cluster.now c);
    Printf.printf "%d deliveries observed at party 0%s\n" (List.length ds)
      (if crashes = [] then "" else
         Printf.sprintf " (crashed: %s)" (String.concat "," (List.map string_of_int crashes)));
    if verbose then
      List.iter
        (fun (time, sender, msg) -> Printf.printf "  %8.3fs  P%d  %s\n" time sender msg)
        ds
    else begin
      (match ds with
       | [] -> ()
       | (t0, _, _) :: _ ->
         let tn = List.fold_left (fun _ (time, _, _) -> time) t0 ds in
         let count = List.length ds in
         Printf.printf "first delivery %.3fs, last %.3fs, avg inter-delivery %.3fs\n"
           t0 tn
           (if count > 1 then (tn -. t0) /. float_of_int (count - 1) else 0.0))
    end;
    if durable then begin
      Printf.printf "store (checkpoint interval %d):\n" checkpoint_interval;
      Array.iteri
        (fun i d ->
          Printf.printf
            "  p%d  log=%dB  ckpts=%d  stable=%s  served=%d  adopted=%d\n" i
            (Store.Device.size (Durable.device d))
            (Durable.checkpoints d)
            (match Durable.stable_checkpoint d with
             | Some cp -> string_of_int cp.Store.Checkpoint.round
             | None -> "-")
            (Durable.snapshots_served d) (Durable.snapshots_adopted d))
        durables
    end;
    finish_trace ();
    if stats then print_string (Cluster.stats c)
  in
  let senders =
    int_list_arg "senders" ~doc:"Comma-separated sending parties." ~default:[ 0 ]
  in
  let messages =
    Arg.(value & opt non_negative 10
         & info [ "messages" ] ~docv:"N" ~doc:"Messages per sender.")
  in
  let verbose =
    Arg.(value & flag & info [ "verbose"; "v" ] ~doc:"Print the full delivery trace.")
  in
  let checkpoint_interval =
    checkpoint_interval_arg non_negative ~default:256
      ~doc:"Rounds between checkpoints; 0 disables checkpointing (log only)."
  in
  Cmd.v (Cmd.info "run" ~doc:"Drive a broadcast channel over a simulated test-bed.")
    Term.(const run $ channel_arg
          $ group_arg ~cmd:"run" [ ("--senders", senders); ("--crash", crashes_arg) ]
          $ seed_arg $ scheme_arg $ no_batching_arg $ pipeline_depth_arg
          $ durable_arg $ checkpoint_interval $ store_dir_arg
          $ senders $ messages
          $ crashes_arg $ verbose $ trace_file_arg $ trace_format_arg
          $ stats_arg)

(* --- agree: one multi-valued or binary agreement --- *)

let agree_cmd =
  let run topo seed scheme proposals binary =
    let c = make_cluster ~seed ~scheme topo in
    let n = Cluster.n c in
    let decided = Array.make n None in
    if binary then begin
      let insts =
        Array.init n (fun i ->
          Binary_agreement.create (Cluster.runtime c i) ~pid:"cli-aba"
            ~on_decide:(fun b _ -> decided.(i) <- Some (string_of_bool b)))
      in
      List.iteri
        (fun i v ->
          Cluster.inject c i (fun () -> Binary_agreement.propose insts.(i) (v <> 0)))
        proposals
    end
    else begin
      let insts =
        Array.init n (fun i ->
          Array_agreement.create (Cluster.runtime c i) ~pid:"cli-mvba"
            ~validator:(fun _ -> true)
            ~on_decide:(fun v -> decided.(i) <- Some v))
      in
      List.iteri
        (fun i v ->
          Cluster.inject c i (fun () ->
            Array_agreement.propose insts.(i) (Printf.sprintf "value-%d" v)))
        proposals
    end;
    let events = Cluster.run c in
    Printf.printf "%d events, %.3f virtual seconds\n" events (Cluster.now c);
    Array.iteri
      (fun i d ->
        Printf.printf "party %d decided: %s\n" i
          (match d with Some v -> v | None -> "(nothing)"))
      decided
  in
  let proposals =
    int_list_arg "proposals"
      ~doc:"Per-party proposals (ints; binary uses 0/non-0), at most one per party."
      ~default:[ 1; 0; 1; 0 ]
  in
  let binary =
    Arg.(value & flag & info [ "binary" ] ~doc:"Run binary agreement instead of multi-valued.")
  in
  (* Proposal i is party i's: a list longer than the group names a party
     outside it. *)
  let proposers = Term.(const (List.mapi (fun i _ -> i)) $ proposals) in
  Cmd.v (Cmd.info "agree" ~doc:"Run one Byzantine agreement instance.")
    Term.(const run $ group_arg ~cmd:"agree" [ ("--proposals", proposers) ]
          $ seed_arg $ scheme_arg $ proposals $ binary)

(* --- trace-check: validate a trace file written by --trace --- *)

let trace_check_cmd =
  let run file =
    match Trace.Sink.check (read_file file) with
    | Ok (kind, n) -> Printf.printf "%s: valid %s trace, %d events\n" file kind n
    | Error msg ->
      Printf.eprintf "%s: INVALID trace: %s\n" file msg;
      exit 1
  in
  let file =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"FILE" ~doc:"Trace file to validate.")
  in
  Cmd.v
    (Cmd.info "trace-check"
       ~doc:"Validate a trace file (chrome: JSON + balanced spans; jsonl: \
             parses and is causally well-formed).")
    Term.(const run $ file)

(* --- critical-path: causal-DAG latency attribution over a JSONL trace --- *)

let critical_path_cmd =
  let run file json min_coverage =
    match Trace.Causal.of_jsonl (read_file file) with
    | Error e ->
      Printf.eprintf "%s: not a JSONL trace: %s\n" file e;
      exit 1
    | Ok events ->
      (match Trace.Causal.validate events with
       | [] -> ()
       | errs ->
         Printf.eprintf "%s: causally ill-formed trace:\n  %s\n" file
           (String.concat "\n  " errs);
         exit 1);
      let rep = Trace.Causal.analyze events in
      print_string
        (if json then Trace.Causal.report_json rep
         else Trace.Causal.report_text rep);
      let worst = Trace.Causal.min_coverage rep in
      if worst < min_coverage then begin
        Printf.eprintf
          "critical-path: worst per-payload coverage %.4f is below the %.4f \
           floor\n"
        worst min_coverage;
        exit 1
      end
  in
  let file =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"FILE" ~doc:"JSONL trace file (written by --trace).")
  in
  let json =
    let fmt_conv = Arg.enum [ ("text", false); ("json", true) ] in
    Arg.(value & opt fmt_conv false
         & info [ "format" ] ~docv:"FMT"
             ~doc:"Output format: text (tables) or json \
                   (sintra-critical-path-v1).")
  in
  let min_coverage =
    Arg.(value & opt float 0.0
         & info [ "min-coverage" ] ~docv:"X"
             ~doc:"Fail unless every delivered payload's attributed fraction \
                   is at least $(docv) (the smoke gate uses 0.95).")
  in
  Cmd.v
    (Cmd.info "critical-path"
       ~doc:"Reconstruct the causal message DAG from a JSONL trace and \
             attribute each delivered payload's enqueue-to-deliver latency \
             to named phases (pending, queue, transit, crypto, compute) \
             along its critical path.")
    Term.(const run $ file $ json $ min_coverage)

(* --- explore: the vopr seed-sweeping schedule explorer --- *)

let explore_cmd =
  let run kind seeds seed index mutations max_failures shrink_budget progress
      verbose =
    let catchup = Hashtbl.create 8 in
    let runner =
      let run = Vopr.Workload.runner ~kind () in
      fun ~seed sched ->
        let obs = run ~seed sched in
        List.iter
          (fun (name, v) ->
            Hashtbl.replace catchup name
              (v +. Option.value (Hashtbl.find_opt catchup name) ~default:0.0))
          obs.Vopr.Oracle.catchup;
        obs
    in
    let oracles = Vopr.Oracle.all kind in
    let generate ~run_seed = Vopr.Workload.schedule ~kind ~run_seed in
    if mutations <> None || index <> None then begin
      (* Replay one sweep index, under a repro line's mutations if given. *)
      let sched =
        Option.map
          (fun muts ->
            match Vopr.Schedule.of_string muts with
            | Some sched -> sched
            | None ->
              Printf.eprintf "malformed --mutations %S\n" muts;
              exit 2)
          mutations
      in
      let report, clean =
        Vopr.Explorer.replay ~verbose ~runner ~oracles ~generate ~seed
          ~index:(Option.value index ~default:0) sched
      in
      print_string report;
      if not clean then exit 1
    end
    else begin
      let t0 = Sys.time () in
      let tick k = if k > 0 && k mod 50 = 0 then Printf.printf "  ... %d seeds\n%!" k in
      let report =
        Vopr.Explorer.explore ?progress:(if progress then Some tick else None) ~max_failures
          ~shrink_budget ~runner ~oracles ~generate ~seed ~seeds ()
      in
      let dt = Sys.time () -. t0 in
      List.iter
        (fun f ->
          print_string (Vopr.Explorer.failure_report ~workload:kind ~base_seed:seed f))
        report.Vopr.Explorer.failures;
      Printf.printf
        "explore workload=%s seed=%s: %d seeds, %d runs, %d failure(s)%s\n"
        (Vopr.Oracle.kind_to_string kind)
        seed seeds report.Vopr.Explorer.runs
        (List.length report.Vopr.Explorer.failures)
        (if dt > 0.0 then
           Printf.sprintf " (%.1f seeds/sec)" (float_of_int seeds /. dt)
         else "");
      (* Every catch-up path's firings, summed over the sweep's runs. *)
      if Hashtbl.length catchup > 0 then
        Printf.printf "  catch-up:%s\n"
          (String.concat ""
             (List.map
                (fun (name, v) -> Printf.sprintf " %s=%.0f" name v)
                (Det.bindings catchup ~compare:String.compare)));
      if report.Vopr.Explorer.failures <> [] then exit 1
    end
  in
  let workload =
    let workload_conv =
      Arg.enum
        (List.map (fun k -> (Vopr.Oracle.kind_to_string k, k))
           Vopr.Oracle.all_kinds)
    in
    Arg.(value & opt workload_conv Vopr.Oracle.Atomic
         & info [ "workload" ] ~docv:"KIND"
             ~doc:"reliable, consistent, aba, mvba, atomic, secure, \
                   throughput, pipeline, crypto-amortized or durable.")
  in
  let seeds =
    Arg.(value & opt non_negative 100
         & info [ "seeds" ] ~docv:"N" ~doc:"Seed indices to sweep.")
  in
  let base_seed =
    Arg.(value & opt string "vopr"
         & info [ "seed" ] ~docv:"SEED" ~doc:"Base seed of the sweep.")
  in
  let index =
    Arg.(value & opt (some non_negative) None
         & info [ "index" ] ~docv:"K"
             ~doc:"Run only sweep index $(docv) (with its generated \
                   schedule, or --mutations if given).")
  in
  let mutations =
    Arg.(value & opt (some string) None
         & info [ "mutations" ] ~docv:"LIST"
             ~doc:"Replay an explicit comma-separated mutation list (from a \
                   repro line) instead of generating one.")
  in
  let max_failures =
    Arg.(value & opt positive 1
         & info [ "max-failures" ] ~docv:"N"
             ~doc:"Stop the sweep after $(docv) failing seeds.")
  in
  let shrink_budget =
    Arg.(value & opt non_negative 200
         & info [ "shrink-budget" ] ~docv:"N"
             ~doc:"Extra runs the shrinker may spend per failure.")
  in
  let progress =
    Arg.(value & flag & info [ "progress" ] ~doc:"Print sweep progress.")
  in
  let verbose =
    Arg.(value & flag
         & info [ "verbose"; "v" ]
             ~doc:"With --mutations: dump the full observation record \
                   (per-party deliveries, decisions, flags).")
  in
  Cmd.v
    (Cmd.info "explore"
       ~doc:"Sweep seeded adversarial schedules over a protocol workload, \
             check the protocol oracles, and shrink any counterexample to \
             a minimal replayable schedule.")
    Term.(const run $ workload $ seeds $ base_seed $ index $ mutations
          $ max_failures $ shrink_budget $ progress $ verbose)

(* --- bench-check: judge BENCH_*.json artifacts by the floor table --- *)

let bench_check_cmd =
  let run baseline files =
    let parse file =
      match Trace.Json.parse (read_file file) with
      | Error e -> Error [ "not JSON: " ^ e ]
      | Ok doc -> Ok doc
      | exception Sys_error e -> Error [ e ]
    in
    let base =
      Option.map
        (fun file ->
          match parse file with
          | Ok doc -> (file, doc)
          | Error es ->
            List.iter (Printf.eprintf "%s: INVALID: %s\n" file) es;
            exit 1)
        baseline
    in
    let schema doc = Option.bind (Trace.Json.member "schema" doc) Trace.Json.str_opt in
    let ok =
      List.fold_left
        (fun ok file ->
          match Result.bind (parse file) (fun doc ->
                  Result.map (fun s -> (doc, s)) (Load.Artifact.check ~file doc))
          with
          | Ok (doc, s) ->
            Printf.printf "%s: valid %s\n" file s;
            (match base with
             | None -> ok
             | Some (bfile, bdoc) when schema bdoc = Some s ->
               Printf.printf "%s against %s:\n" file bfile;
               print_string
                 (Load.Artifact.changes_table (Load.Artifact.diff ~baseline:bdoc doc));
               ok
             | Some (bfile, _) ->
               Printf.eprintf "%s: INVALID: baseline %s is not a %s report\n" file
                 bfile s;
               false)
          | Error violations ->
            List.iter (Printf.eprintf "%s: INVALID: %s\n" file) violations;
            false)
        true files
    in
    if not ok then exit 1
  in
  let baseline =
    Arg.(value & opt (some string) None
         & info [ "baseline" ] ~docv:"OLD"
             ~doc:"Also print every numeric row of each FILE against the \
                   same artifact in $(docv) (typically the committed one): \
                   old value, new value, relative change.")
  in
  let files =
    Arg.(non_empty & pos_all string []
         & info [] ~docv:"FILE" ~doc:"BENCH_*.json artifact(s) to judge.")
  in
  Cmd.v
    (Cmd.info "bench-check"
       ~doc:"Judge benchmark artifacts: the shared envelope (schema, \
             generator, seed, smoke) and the floors of each artifact's \
             schema.  A file named BENCH_<name>.json must hold that \
             artifact, and the committed perf report must be the full \
             1024-bit run.  With --baseline, also print each report's \
             change row by row.  Exit 1 on any violation.")
    Term.(const run $ baseline $ files)

(* --- store-check: validate write-ahead log files --- *)

let store_check_cmd =
  let run verbose files =
    let ok =
      List.fold_left
        (fun ok file ->
          if not (Sys.file_exists file) then begin
            Printf.eprintf "%s: INVALID: no such file\n" file;
            false
          end
          else begin
            let rp = Store.Log.replay_string (read_file file) in
            if verbose then
              List.iter
                (fun r -> Printf.printf "  %s\n" (Store.Log.describe r))
                rp.Store.Log.records;
            match (Store.Log.bad_snapshot rp, rp.Store.Log.status) with
            | Some r, _ ->
              Printf.eprintf
                "%s: INVALID: snapshot at round %d: state does not match the \
                 certified digest\n" file r;
              false
            | None, Store.Log.Corrupt (off, why) ->
              Printf.eprintf "%s: INVALID: corrupt frame at offset %d: %s\n"
                file off why;
              false
            | None, Store.Log.Torn off ->
              Printf.printf
                "%s: valid prefix, %s; torn tail at offset %d (crash \
                 mid-append — replay drops it)\n" file (Store.Log.summary rp) off;
              ok
            | None, Store.Log.Complete ->
              Printf.printf "%s: valid log, %s\n" file (Store.Log.summary rp);
              ok
          end)
        true files
    in
    if not ok then exit 1
  in
  let files =
    Arg.(non_empty & pos_all string []
         & info [] ~docv:"FILE" ~doc:"Write-ahead log file(s) to validate.")
  in
  let verbose =
    Arg.(value & flag & info [ "verbose"; "v" ] ~doc:"Print every record.")
  in
  Cmd.v
    (Cmd.info "store-check"
       ~doc:"Validate write-ahead log files (framing, CRC, snapshot \
             digests).  A torn tail is reported but accepted — that is the \
             normal aftermath of a crash mid-append; corruption or a \
             digest mismatch fails with exit 1.")
    Term.(const run $ verbose $ files)

(* --- durability-check: the durability layer's end-to-end gate --- *)

let durability_check_cmd =
  let run topo seed rounds interval =
    (* The wiped party can only adopt a peer snapshot once the GC floor has
       risen, which takes two checkpoints' worth of history. *)
    if rounds < 2 * interval then begin
      Printf.eprintf
        "sintra_sim durability-check: --rounds %d is below 2 x \
         --checkpoint-interval (%d): too short to raise the GC floor\n"
        rounds (2 * interval);
      exit 2
    end;
    let report, failures =
      Load.Rebuild.gate ~rounds ~interval
        ~make:(fun () -> make_cluster ~seed ~scheme:Config.Multi topo)
    in
    Printf.printf
      "durability-check topology=%s seed=%s: %d rounds, checkpoint interval %d\n"
      topo.Sim.Topology.label seed rounds interval;
    print_string report;
    if failures <> [] then begin
      List.iter (Printf.eprintf "INVALID: %s\n") failures;
      exit 1
    end
  in
  let rounds =
    Arg.(value & opt positive 48
         & info [ "rounds" ] ~docv:"N"
             ~doc:"History length in atomic-broadcast rounds (one payload \
                   per round); at least twice the checkpoint interval.")
  in
  Cmd.v
    (Cmd.info "durability-check"
       ~doc:"End-to-end durability gate: runs the same seed with and \
             without the durability layer and checks byte-identical \
             delivery order, a bounded DECIDED backlog, snapshot adoption \
             by a party restarted on a wiped disk, and a byte-exact log \
             round-trip.")
    Term.(const run $ topology_arg $ seed_arg $ rounds
          $ checkpoint_interval_arg positive ~default:8
              ~doc:"Rounds between checkpoints.")

let () =
  let doc = "SINTRA: secure intrusion-tolerant replication (DSN 2002), simulated" in
  exit
    (Cmd.eval
       (Cmd.group (Cmd.info "sintra_sim" ~doc)
          [ run_cmd; agree_cmd; explore_cmd; trace_check_cmd; critical_path_cmd;
            bench_check_cmd; store_check_cmd; durability_check_cmd ]))
