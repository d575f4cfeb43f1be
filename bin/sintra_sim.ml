(* sintra_sim: a command-line driver for the SINTRA simulator.

     dune exec bin/sintra_sim.exe -- run --channel atomic --topology internet \
         --senders 0,1,2 --messages 30
     dune exec bin/sintra_sim.exe -- topologies
     dune exec bin/sintra_sim.exe -- agree --proposals 1,0,1,0
     dune exec bin/sintra_sim.exe -- crypto --op coin

   Useful for poking at the system interactively: pick a channel, topology,
   fault set and workload; get the delivery trace and per-host statistics. *)

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
  Arg.(value & opt (some ~none:"Config default" int) None
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

let checkpoint_interval_arg ~default =
  Arg.(value & opt int default
       & info [ "checkpoint-interval" ] ~docv:"R"
           ~doc:"Rounds between checkpoints; 0 disables checkpointing (log \
                 only).")

let store_dir_arg =
  Arg.(value & opt (some string) None
       & info [ "store-dir" ] ~docv:"DIR"
           ~doc:"Back each party's write-ahead log with a real file \
                 $(docv)/p<i>.wal (inspectable with store-check) instead of \
                 an in-memory device.  The directory is created if missing.")

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
  let oc = open_out_bin path in
  output_string oc contents;
  close_out oc

let read_file (path : string) : string =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Install the requested sink on [c]; returns a finalizer that writes the
   file and reports the event count. *)
let setup_trace (c : Cluster.t) (file : string option) (fmt : trace_format)
  : unit -> unit =
  match file with
  | None -> (fun () -> ())
  | Some path ->
    (match fmt with
     | Jsonl ->
       let buf = Buffer.create (1 lsl 16) in
       Cluster.set_sink c (Trace.Sink.jsonl buf);
       fun () ->
         write_file path (Buffer.contents buf);
         Printf.printf "trace: wrote %s (jsonl)\n" path
     | Chrome ->
       let ch = Trace.Sink.chrome () in
       Cluster.set_sink c (Trace.Sink.chrome_sink ch);
       fun () ->
         write_file path (Trace.Sink.chrome_contents ch);
         Printf.printf "trace: wrote %s (chrome, %d events)\n" path
           (Trace.Sink.chrome_count ch))

let print_stats (c : Cluster.t) : unit =
  let m = Cluster.publish_metrics c in
  let get name =
    match Trace.Metrics.find_counter m name with
    | Some ct -> Trace.Metrics.value ct
    | None -> 0.0
  in
  let n = Cluster.n c in
  Printf.printf "\nper-party metrics:\n";
  Printf.printf "  %5s %10s %12s %10s %9s %8s %9s %7s %7s %7s\n"
    "party" "sent_msgs" "sent_bytes" "recv_msgs" "loopback" "macs" "cpu_s"
    "exps" "exp2s" "fixed";
  for i = 0 to n - 1 do
    let p fmt = Printf.sprintf fmt i in
    Printf.printf "  %5d %10.0f %12.0f %10.0f %9.0f %8.0f %9.2f %7.0f %7.0f %7.0f\n" i
      (get (p "p%d/net.sent_msgs")) (get (p "p%d/net.sent_bytes"))
      (get (p "p%d/net.recv_msgs")) (get (p "p%d/net.loopback_msgs"))
      (get (p "p%d/net.macs")) (get (p "p%d/cpu.charged_s"))
      (get (p "p%d/crypto.exps")) (get (p "p%d/crypto.exp2s"))
      (get (p "p%d/crypto.fixed"))
  done;
  (* The bounded tables side by side, so a leak shows: share-cache entries
     live now and at peak, the peak of the FIFO behind them, and the
     statement table's peak. *)
  Printf.printf "\nper-party tables:\n";
  Printf.printf "  %5s %10s %14s %12s %14s\n"
    "party" "cache_size" "cache_size_max" "retained_max" "stmt_table_max";
  for i = 0 to n - 1 do
    let p fmt = Printf.sprintf fmt i in
    Printf.printf "  %5d %10.0f %14.0f %12.0f %14.0f\n" i
      (get (p "p%d/verify.cache_size")) (get (p "p%d/verify.cache_size/max"))
      (get (p "p%d/verify.cache_retained/max"))
      (get (p "p%d/tsig.stmt_table/max"))
  done;
  (* Everything else (protocol counters, drops), minus the table columns
     and the per-link detail. *)
  let tabled name =
    List.exists (fun suffix ->
      String.length name > String.length suffix
      && String.sub name (String.length name - String.length suffix)
           (String.length suffix) = suffix)
      [ "/net.sent_msgs"; "/net.sent_bytes"; "/net.recv_msgs";
        "/net.loopback_msgs"; "/net.macs"; "/cpu.charged_s"; "/crypto.exps";
        "/crypto.exp2s"; "/crypto.fixed";
        "/verify.cache_size"; "/verify.cache_size/max";
        "/verify.cache_retained/max"; "/tsig.stmt_table/max";
        (* published histogram quantiles render in the histogram table *)
        "/p50"; "/p90"; "/p99" ]
    || (String.length name >= 5 && String.sub name 0 5 = "link/")
  in
  let rest = List.filter (fun (name, _) -> not (tabled name)) (Trace.Metrics.dump m) in
  if rest <> [] then begin
    Printf.printf "\ncounters:\n";
    List.iter (fun (name, v) -> Printf.printf "  %-40s %12.0f\n" name v) rest
  end;
  let hists = Trace.Metrics.hists m in
  if hists <> [] then begin
    Printf.printf "\nlatency histograms (seconds):\n";
    List.iter
      (fun h ->
        Printf.printf "  %-40s n=%-6d mean=%.3f p50=%.3f p90=%.3f p99=%.3f\n"
          (Trace.Metrics.hist_name h) (Trace.Metrics.hist_count h)
          (Trace.Metrics.hist_mean h)
          (Trace.Metrics.hist_quantile h 0.5)
          (Trace.Metrics.hist_quantile h 0.9)
          (Trace.Metrics.hist_quantile h 0.99))
      hists
  end

(* --- run: drive a channel --- *)

type channel_kind = Atomic | Secure | Reliable | Consistent

let channel_arg =
  let channel_conv =
    Arg.enum
      [ ("atomic", Atomic); ("secure", Secure); ("reliable", Reliable);
        ("consistent", Consistent) ]
  in
  Arg.(value & opt channel_conv Atomic
       & info [ "channel" ] ~docv:"KIND" ~doc:"atomic, secure, reliable or consistent.")

let run_cmd =
  let run channel topo seed scheme no_batching pipeline_depth
      durable checkpoint_interval store_dir
      senders messages crashes verbose trace_file trace_format stats =
    if durable && channel <> Atomic then begin
      prerr_endline "sintra_sim run: --durable requires --channel atomic";
      exit 2
    end;
    let n = Sim.Topology.n topo in
    List.iter
      (fun (flag, ids) ->
        match List.find_opt (fun i -> i < 0 || i >= n) ids with
        | Some i ->
          Printf.eprintf "sintra_sim run: %s: party %d is outside 0..%d\n" flag
            i (n - 1);
          exit 2
        | None -> ())
      [ ("--senders", senders); ("--crash", crashes) ];
    let c = make_cluster ~seed ~scheme ~no_batching ?pipeline_depth topo in
    let finish_trace = setup_trace c trace_file trace_format in
    let deliveries = ref [] in
    let record i ~sender msg =
      if i = 0 then deliveries := (Cluster.now c, sender, msg) :: !deliveries
    in
    let durables : (int * Durable.t) list ref = ref [] in
    let senders_fn =
      match channel with
      | Atomic ->
        (match store_dir with
         | Some dir when not (Sys.file_exists dir) -> Sys.mkdir dir 0o755
         | Some _ | None -> ());
        let chans =
          Array.init n (fun i ->
            let ch =
              Atomic_channel.create (Cluster.runtime c i) ~pid:"cli"
                ~on_deliver:(record i) ()
            in
            if durable then begin
              let dev =
                match store_dir with
                | Some dir ->
                  Store.Device.file
                    (Filename.concat dir (Printf.sprintf "p%d.wal" i))
                | None -> Store.Device.mem ()
              in
              let d =
                Durable.attach (Cluster.runtime c i) ~chan:ch ~pid:"cli" ~dev
                  ~interval:checkpoint_interval ()
              in
              durables := (i, d) :: !durables
            end;
            ch)
        in
        fun s m -> Atomic_channel.send chans.(s) m
      | Secure ->
        let chans =
          Array.init n (fun i ->
            Secure_atomic_channel.create (Cluster.runtime c i) ~pid:"cli"
              ~on_deliver:(record i) ())
        in
        fun s m -> Secure_atomic_channel.send chans.(s) m
      | Reliable ->
        let chans =
          Array.init n (fun i ->
            Reliable_channel.create (Cluster.runtime c i) ~pid:"cli"
              ~on_deliver:(record i) ())
        in
        fun s m -> Reliable_channel.send chans.(s) m
      | Consistent ->
        let chans =
          Array.init n (fun i ->
            Consistent_channel.create (Cluster.runtime c i) ~pid:"cli"
              ~on_deliver:(record i) ())
        in
        fun s m -> Consistent_channel.send chans.(s) m
    in
    List.iter (Cluster.crash c) crashes;
    List.iter
      (fun s ->
        if not (List.mem s crashes) then
          for k = 0 to messages - 1 do
            Cluster.inject c s (fun () ->
              senders_fn s (Printf.sprintf "msg-%d.%d" s k))
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
      List.iter
        (fun (i, d) ->
          Printf.printf
            "  p%d  log=%dB  ckpts=%d  stable=%s  served=%d  adopted=%d\n" i
            (Store.Device.size (Durable.device d))
            (Durable.checkpoints d)
            (match Durable.stable_checkpoint d with
             | Some cp -> string_of_int cp.Store.Checkpoint.round
             | None -> "-")
            (Durable.snapshots_served d) (Durable.snapshots_adopted d))
        (List.sort compare !durables)
    end;
    finish_trace ();
    if stats then print_stats c
  in
  let senders =
    int_list_arg "senders" ~doc:"Comma-separated sending parties." ~default:[ 0 ]
  in
  let messages =
    Arg.(value & opt int 10 & info [ "messages" ] ~docv:"N" ~doc:"Messages per sender.")
  in
  let verbose =
    Arg.(value & flag & info [ "verbose"; "v" ] ~doc:"Print the full delivery trace.")
  in
  Cmd.v (Cmd.info "run" ~doc:"Drive a broadcast channel over a simulated test-bed.")
    Term.(const run $ channel_arg $ topology_arg $ seed_arg $ scheme_arg
          $ no_batching_arg $ pipeline_depth_arg
          $ durable_arg
          $ checkpoint_interval_arg ~default:256 $ store_dir_arg
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
          if i < n then
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
          if i < n then
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
    int_list_arg "proposals" ~doc:"Per-party proposals (ints; binary uses 0/non-0)."
      ~default:[ 1; 0; 1; 0 ]
  in
  let binary =
    Arg.(value & flag & info [ "binary" ] ~doc:"Run binary agreement instead of multi-valued.")
  in
  Cmd.v (Cmd.info "agree" ~doc:"Run one Byzantine agreement instance.")
    Term.(const run $ topology_arg $ seed_arg $ scheme_arg $ proposals $ binary)

(* --- topologies: list the built-in test-beds --- *)

let topologies_cmd =
  let run () =
    List.iter
      (fun (t : Sim.Topology.t) ->
        Printf.printf "%s (n=%d):\n" t.Sim.Topology.label (Sim.Topology.n t);
        Array.iter
          (fun h ->
            Printf.printf "  %-18s exp(1024-bit) = %5.0f ms\n"
              h.Sim.Topology.name h.Sim.Topology.exp_ms)
          t.Sim.Topology.hosts)
      [ Sim.Topology.lan; Sim.Topology.internet; Sim.Topology.combined ]
  in
  Cmd.v (Cmd.info "topologies" ~doc:"List the built-in test-beds (Section 4).")
    Term.(const run $ const ())

(* --- crypto: exercise one threshold primitive --- *)

let crypto_cmd =
  let run seed op =
    let drbg = Hashes.Drbg.create ~seed in
    let group = Crypto.Group.generate ~drbg ~pbits:512 ~qbits:160 in
    match op with
    | `Coin ->
      let keys = Crypto.Threshold_coin.deal ~drbg ~group ~n:4 ~k:2 ~t:1 in
      let pub = keys.Crypto.Threshold_coin.public in
      for round = 1 to 5 do
        let name = Printf.sprintf "round-%d" round in
        let shares =
          List.map
            (fun i ->
              Crypto.Threshold_coin.release ~drbg pub
                keys.Crypto.Threshold_coin.shares.(i) ~name)
            [ 0; 2 ]
        in
        Printf.printf "coin %-8s = %b\n" name
          (Crypto.Threshold_coin.assemble_bit pub ~name shares)
      done
    | `Sign ->
      let keys =
        Crypto.Threshold_sig.deal ~drbg ~modulus_bits:512 ~nparties:4 ~k:3 ~t:1 ()
      in
      let pub = keys.Crypto.Threshold_sig.public in
      let stmt =
        Crypto.Rsa.stmt_for pub.Crypto.Threshold_sig.rsa ~ctx:"cli"
          "the quick brown fox"
      in
      let shares =
        List.map
          (fun i ->
            Crypto.Threshold_sig.release ~drbg pub
              keys.Crypto.Threshold_sig.shares.(i) stmt)
          [ 0; 1; 3 ]
      in
      let signature = Crypto.Threshold_sig.assemble pub stmt shares in
      Printf.printf "assembled %d-byte RSA signature from shares {1,2,4}; verifies: %b\n"
        (String.length signature)
        (Crypto.Threshold_sig.verify pub ~signature stmt)
    | `Encrypt ->
      let keys = Crypto.Threshold_enc.deal ~drbg ~group ~n:4 ~k:2 ~t:1 in
      let pub = keys.Crypto.Threshold_enc.public in
      let sent = Crypto.Threshold_enc.encrypt ~drbg pub ~label:"cli" "hello threshold world" in
      (* What a server receives: wire bytes, validated once before any
         decryption share is released. *)
      let received =
        Option.bind
          (Crypto.Threshold_enc.ciphertext_of_bytes
             (Crypto.Threshold_enc.ciphertext_to_bytes pub sent))
          (Crypto.Threshold_enc.check pub)
      in
      (match received with
       | None -> print_endline "ciphertext rejected"
       | Some ct ->
         let shares =
           List.filter_map
             (fun i ->
               Crypto.Threshold_enc.dec_share ~drbg pub
                 keys.Crypto.Threshold_enc.shares.(i) ct)
             [ 1; 2 ]
         in
         (match Crypto.Threshold_enc.combine pub ct shares with
          | Some m -> Printf.printf "decrypted with shares {2,3}: %S\n" m
          | None -> print_endline "decryption failed"))
  in
  let op =
    Arg.(value
         & opt (enum [ ("coin", `Coin); ("sign", `Sign); ("encrypt", `Encrypt) ]) `Coin
         & info [ "op" ] ~docv:"OP" ~doc:"coin, sign or encrypt.")
  in
  Cmd.v (Cmd.info "crypto" ~doc:"Exercise one threshold-cryptography primitive.")
    Term.(const run $ seed_arg $ op)

(* --- trace-check: validate a trace file written by --trace --- *)

let trace_check_cmd =
  (* Balanced B/E per (pid, tid) lane: the count never goes negative and
     ends at zero. *)
  let check_chrome (events : Trace.Json.value list) : (int, string) result =
    let lanes : (string, int) Hashtbl.t = Hashtbl.create 64 in
    let lane_order : string list ref = ref [] in
    let depth k = Option.value ~default:0 (Hashtbl.find_opt lanes k) in
    let bump k d =
      if not (Hashtbl.mem lanes k) then lane_order := k :: !lane_order;
      Hashtbl.replace lanes k (depth k + d)
    in
    let key ev =
      let num f =
        match Option.bind (Trace.Json.member f ev) Trace.Json.num_opt with
        | Some v -> int_of_float v
        | None -> -1
      in
      Printf.sprintf "%d:%d" (num "pid") (num "tid")
    in
    let bad = ref None in
    List.iter
      (fun ev ->
        match Option.bind (Trace.Json.member "ph" ev) Trace.Json.str_opt with
        | Some "B" -> bump (key ev) 1
        | Some "E" ->
          let k = key ev in
          if depth k <= 0 && !bad = None then
            bad := Some (Printf.sprintf "unmatched E on lane %s" k);
          bump k (-1)
        | Some _ -> ()
        | None -> if !bad = None then bad := Some "event without a \"ph\" field")
      events;
    (match !bad with
     | None ->
       List.iter
         (fun k ->
           let d = depth k in
           if d <> 0 && !bad = None then
             bad := Some (Printf.sprintf "%d unclosed span(s) on lane %s" d k))
         (List.rev !lane_order)
     | Some _ -> ());
    match !bad with
    | Some msg -> Error msg
    | None -> Ok (List.length events)
  in
  let run file =
    let contents = read_file file in
    let outcome =
      match Trace.Json.parse contents with
      | Ok doc when Trace.Json.member "traceEvents" doc <> None ->
        (match Option.bind (Trace.Json.member "traceEvents" doc) Trace.Json.list_opt with
         | None -> Error "\"traceEvents\" is not an array"
         | Some events ->
           (match check_chrome events with
            | Ok n -> Ok ("chrome", n)
            | Error e -> Error e))
      | Ok _ -> Error "a JSON document without \"traceEvents\" is not a trace"
      | Error _ ->
        (* Not one JSON document: try JSONL, then check the event stream's
           causal well-formedness (every cause id emitted, edges monotone,
           per-message times ordered). *)
        (match Trace.Json.parse_lines contents with
         | Ok events ->
           (match Trace.Causal.validate (List.filter_map Trace.Causal.of_json events) with
            | [] -> Ok ("jsonl", List.length events)
            | errs ->
              Error ("causally ill-formed:\n  " ^ String.concat "\n  " errs))
         | Error e -> Error e)
    in
    match outcome with
    | Ok (kind, n) ->
      Printf.printf "%s: valid %s trace, %d events\n" file kind n
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
  let print_failure ~kind ~base_seed (f : Vopr.Explorer.failure) : unit =
    Printf.printf "seed #%d (%s): oracle=%s: %s\n" f.Vopr.Explorer.index
      f.Vopr.Explorer.run_seed f.Vopr.Explorer.outcome.Vopr.Explorer.oracle
      f.Vopr.Explorer.outcome.Vopr.Explorer.reason;
    Printf.printf "  schedule: %s\n"
      (match Vopr.Schedule.to_string f.Vopr.Explorer.schedule with
       | "" -> "(empty)"
       | s -> s);
    Printf.printf "  shrunk (%d runs): %s -> oracle=%s: %s\n"
      f.Vopr.Explorer.shrink_runs
      (match Vopr.Schedule.to_string f.Vopr.Explorer.shrunk with
       | "" -> "(empty)"
       | s -> s)
      f.Vopr.Explorer.shrunk_outcome.Vopr.Explorer.oracle
      f.Vopr.Explorer.shrunk_outcome.Vopr.Explorer.reason;
    Printf.printf "  repro: %s\n"
      (Vopr.Explorer.repro ~workload:kind ~base_seed f)
  in
  let print_obs (o : Vopr.Oracle.obs) : unit =
    Printf.printf
      "  run: %d events, %.3f virtual seconds, quiesced=%b, degraded=[%s], corrupted=[%s]\n"
      o.Vopr.Oracle.events o.Vopr.Oracle.vtime o.Vopr.Oracle.quiesced
      (String.concat ";" (List.map string_of_int o.Vopr.Oracle.degraded))
      (String.concat ";" (List.map string_of_int o.Vopr.Oracle.corrupted));
    Printf.printf "  sent: %d\n" (List.length o.Vopr.Oracle.sent);
    Array.iteri
      (fun p log ->
        Printf.printf "  party %d: %d delivered%s%s%s\n" p (List.length log)
          (match o.Vopr.Oracle.decisions.(p) with
           | Some d -> Printf.sprintf ", decided %s" d
           | None -> "")
          (match o.Vopr.Oracle.proposals.(p) with
           | Some v -> Printf.sprintf ", proposed %s" v
           | None -> "")
          (match o.Vopr.Oracle.flagged.(p) with
           | [] -> ""
           | fl ->
             Printf.sprintf ", flagged [%s]"
               (String.concat "; "
                  (List.map
                     (fun (off, why) -> Printf.sprintf "%d: %s" off why)
                     fl)));
        List.iter
          (fun (sender, m) -> Printf.printf "    %d: %S\n" sender m)
          log)
      o.Vopr.Oracle.delivered
  in
  let run kind seeds seed index mutations max_failures shrink_budget progress
      verbose =
    let runner = Vopr.Workload.runner ~kind () in
    let oracles = Vopr.Oracle.all kind in
    let generate ~run_seed = Vopr.Workload.schedule ~kind ~run_seed in
    match (mutations, index) with
    | Some muts, _ ->
      (* Replay one run under an explicit schedule (a repro line). *)
      let idx = Option.value index ~default:0 in
      let run_seed = Vopr.Explorer.run_seed_of ~base:seed idx in
      (match Vopr.Schedule.of_string muts with
       | None ->
         Printf.eprintf "malformed --mutations %S\n" muts;
         exit 2
       | Some sched ->
         if verbose then (
           match runner ~seed:run_seed sched with
           | obs -> print_obs obs
           | exception e ->
             Printf.printf "  run raised: %s\n" (Printexc.to_string e));
         (match Vopr.Explorer.eval ~runner ~oracles ~seed:run_seed sched with
          | Vopr.Explorer.Clean ->
            Printf.printf "replay %s [%s]: clean\n" run_seed
              (Vopr.Schedule.to_string sched)
          | Vopr.Explorer.Failed f ->
            Printf.printf "replay %s [%s]: FAIL oracle=%s: %s\n" run_seed
              (Vopr.Schedule.to_string sched) f.Vopr.Explorer.oracle
              f.Vopr.Explorer.reason;
            exit 1))
    | None, Some idx ->
      (* Re-run one sweep index with its generated schedule. *)
      let run_seed = Vopr.Explorer.run_seed_of ~base:seed idx in
      let sched = generate ~run_seed in
      Printf.printf "seed #%d (%s): schedule %s\n" idx run_seed
        (match Vopr.Schedule.to_string sched with "" -> "(empty)" | s -> s);
      (match Vopr.Explorer.eval ~runner ~oracles ~seed:run_seed sched with
       | Vopr.Explorer.Clean -> Printf.printf "clean\n"
       | Vopr.Explorer.Failed f ->
         Printf.printf "FAIL oracle=%s: %s\n" f.Vopr.Explorer.oracle
           f.Vopr.Explorer.reason;
         exit 1)
    | None, None ->
      let t0 = Sys.time () in
      let progress_fn =
        if progress then
          Some
            (fun k ->
              if k > 0 && k mod 50 = 0 then (
                Printf.printf "  ... %d seeds\n" k;
                flush stdout))
        else None
      in
      let report =
        Vopr.Explorer.explore ?progress:progress_fn ~max_failures
          ~shrink_budget ~runner ~oracles ~generate ~seed ~seeds ()
      in
      let dt = Sys.time () -. t0 in
      List.iter (print_failure ~kind ~base_seed:seed)
        report.Vopr.Explorer.failures;
      Printf.printf
        "explore workload=%s seed=%s: %d seeds, %d runs, %d failure(s)%s\n"
        (Vopr.Oracle.kind_to_string kind)
        seed seeds report.Vopr.Explorer.runs
        (List.length report.Vopr.Explorer.failures)
        (if dt > 0.0 then
           Printf.sprintf " (%.1f seeds/sec)" (float_of_int seeds /. dt)
         else "");
      if report.Vopr.Explorer.failures <> [] then exit 1
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
    Arg.(value & opt int 100
         & info [ "seeds" ] ~docv:"N" ~doc:"Seed indices to sweep.")
  in
  let base_seed =
    Arg.(value & opt string "vopr"
         & info [ "seed" ] ~docv:"SEED" ~doc:"Base seed of the sweep.")
  in
  let index =
    Arg.(value & opt (some int) None
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
    Arg.(value & opt int 1
         & info [ "max-failures" ] ~docv:"N"
             ~doc:"Stop the sweep after $(docv) failing seeds.")
  in
  let shrink_budget =
    Arg.(value & opt int 200
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

(* One line per numeric leaf: baseline, this report, relative change. *)
let print_changes (changes : Load.Artifact.change list) : unit =
  let width =
    List.fold_left (fun w c -> max w (String.length c.Load.Artifact.path)) 0 changes
  in
  List.iter
    (fun { Load.Artifact.path; before; after } ->
      let value = function Some x -> Printf.sprintf "%g" x | None -> "-" in
      let delta =
        match before, after with
        | Some b, Some a when b = a -> "="
        | Some b, Some a when b <> 0.0 ->
          Printf.sprintf "%+.1f%%" (100.0 *. ((a -. b) /. Float.abs b))
        | Some _, Some _ -> "changed"
        | None, _ -> "new"
        | _, None -> "gone"
      in
      Printf.printf "  %-*s  %12s -> %-12s  %s\n" width path (value before)
        (value after) delta)
    changes

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
               print_changes (Load.Artifact.diff ~baseline:bdoc doc);
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
    let failed = ref false in
    List.iter
      (fun file ->
        if not (Sys.file_exists file) then begin
          Printf.eprintf "%s: INVALID: no such file\n" file;
          failed := true
        end
        else begin
          let rp = Store.Log.replay_string (read_file file) in
          let rounds = ref 0 and deltas = ref 0 and snaps = ref 0 in
          let bad_digest = ref None in
          List.iter
            (fun r ->
              match r with
              | Store.Log.Round { round; batch } ->
                incr rounds;
                if verbose then
                  Printf.printf "  round %-6d  batch %dB\n" round
                    (String.length batch)
              | Store.Log.Delta { key; data } ->
                incr deltas;
                if verbose then
                  Printf.printf "  delta %s = %dB\n" key (String.length data)
              | Store.Log.Snapshot { checkpoint; state } ->
                incr snaps;
                if
                  Hashes.Sha256.digest state
                  <> checkpoint.Store.Checkpoint.digest
                then bad_digest := Some checkpoint.Store.Checkpoint.round;
                if verbose then
                  Printf.printf "  snapshot round %-6d  state %dB  cert %dB\n"
                    checkpoint.Store.Checkpoint.round (String.length state)
                    (String.length checkpoint.Store.Checkpoint.cert))
            rp.Store.Log.records;
          let summary =
            Printf.sprintf "%d record(s) (%d round(s), %d delta(s), %d \
                            snapshot(s), %dB)"
              (List.length rp.Store.Log.records) !rounds !deltas !snaps
              rp.Store.Log.bytes
          in
          match (!bad_digest, rp.Store.Log.status) with
          | Some r, _ ->
            Printf.eprintf
              "%s: INVALID: snapshot at round %d: state does not match the \
               certified digest\n" file r;
            failed := true
          | None, Store.Log.Corrupt (off, why) ->
            Printf.eprintf "%s: INVALID: corrupt frame at offset %d: %s\n"
              file off why;
            failed := true
          | None, Store.Log.Torn off ->
            Printf.printf
              "%s: valid prefix, %s; torn tail at offset %d (crash \
               mid-append — replay drops it)\n" file summary off
          | None, Store.Log.Complete ->
            Printf.printf "%s: valid log, %s\n" file summary
        end)
      files;
    if !failed then exit 1
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
    if interval <= 0 then begin
      prerr_endline "sintra_sim durability-check: --checkpoint-interval must be positive";
      exit 2
    end;
    (* One variant of the run (Load.Rebuild): same cluster, same seed, same
       injected traffic, one drained payload per round so --rounds really
       is the history length.  The durable variant (given an [interval])
       additionally attaches the durability layer to every party and,
       after traffic has drained, power-fails the last party with a WIPED
       device — its restart must adopt a peer snapshot, not replay history
       it no longer has. *)
    let run_variant ?interval () =
      let c = make_cluster ~seed ~scheme:Config.Multi topo in
      let r = Load.Rebuild.create ?interval c ~pid:"dchk" in
      let events = Load.Rebuild.drive r ~rounds in
      if interval = None then (r, events)
      else (r, events + Load.Rebuild.power_fail r ~wipe:true)
    in
    let plain, plain_events = run_variant () in
    let dur, dur_events = run_variant ~interval () in
    let plain_log = Load.Rebuild.deliveries plain
    and dur_log = Load.Rebuild.deliveries dur in
    let dur_peak = dur.Load.Rebuild.backlog_peak in
    let devs = dur.Load.Rebuild.devs and durs = dur.Load.Rebuild.durs in
    Printf.printf
      "durability-check topology=%s seed=%s: %d rounds, checkpoint interval %d\n"
      topo.Sim.Topology.label seed rounds interval;
    Printf.printf "  plain:   %7d events, %4d deliveries at p0, backlog peak %d\n"
      plain_events (List.length plain_log) plain.Load.Rebuild.backlog_peak;
    Printf.printf "  durable: %7d events, %4d deliveries at p0, backlog peak %d\n"
      dur_events (List.length dur_log) dur_peak;
    (match durs.(0) with
     | d0 :: _ ->
       let ch = dur.Load.Rebuild.chans.(0) in
       Printf.printf
         "  history: %d round(s), stable checkpoint %s, GC floor %d, p0 log \
          %dB\n"
         (Atomic_channel.current_round ch)
         (match Durable.stable_checkpoint d0 with
          | Some cp -> string_of_int cp.Store.Checkpoint.round
          | None -> "none")
         (Atomic_channel.gc_floor ch)
         (Store.Device.size devs.(0))
     | [] -> ());
    let failures = ref [] in
    let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt in
    (* 1. The storage plane must not perturb the protocol schedule: the
       delivery sequence at party 0 is byte-identical with and without the
       durability layer. *)
    if plain_log <> dur_log then begin
      let describe log =
        String.concat " "
          (List.map (fun (s, m) -> Printf.sprintf "%d:%s" s m) log)
      in
      fail "delivery order diverged between the plain and durable runs";
      Printf.printf "    plain:   %s\n    durable: %s\n" (describe plain_log)
        (describe dur_log)
    end
    else Printf.printf "  delivery order: byte-identical across variants\n";
    (* 2. Checkpoint GC keeps the resident DECIDED backlog bounded by the
       checkpoint interval (plus one interval of straggler slack and the
       pipeline window), independent of history length. *)
    let pipeline_depth = dur.Load.Rebuild.cluster.Cluster.cfg.Config.pipeline_depth in
    let bound = (2 * interval) + (2 * pipeline_depth) + 4 in
    if dur_peak > bound then
      fail "durable backlog peak %d exceeds the bound %d" dur_peak bound
    else Printf.printf "  backlog bound:  peak %d <= %d\n" dur_peak bound;
    (* 3. The wiped party's restart adopted a verified peer snapshot and
       caught up without a full-history replay. *)
    let victim = Load.Rebuild.victim dur in
    (match durs.(victim) with
     | newest :: _ :: _ ->
       if Durable.restored_from newest <> -1 then
         fail "rebuilt p%d restored from a wiped disk (impossible)" victim;
       if Durable.snapshots_adopted newest < 1 then
         fail "rebuilt p%d adopted no peer snapshot" victim;
       let tip = Load.Rebuild.tip dur in
       if tip victim < tip 0 then
         fail "rebuilt p%d stopped at round %d, cluster is at %d" victim
           (tip victim) (tip 0);
       if !failures = [] then
         Printf.printf
           "  rebuilt p%d:    adopted a verified snapshot (stable round %s), \
            caught up to round %d\n"
           victim
           (match Durable.stable_checkpoint newest with
            | Some cp -> string_of_int cp.Store.Checkpoint.round
            | None -> "-")
           (tip victim)
     | _ -> fail "p%d was never rebuilt" victim);
    (* 4. Log round-trip: re-encoding party 0's parsed log reproduces the
       device bytes exactly. *)
    let rp = Store.Log.replay devs.(0) in
    let reenc =
      String.concat "" (List.map Store.Log.frame rp.Store.Log.records)
    in
    if rp.Store.Log.status <> Store.Log.Complete then
      fail "p0's log did not parse to completion"
    else if reenc <> Store.Device.contents devs.(0) then
      fail "re-encoding p0's parsed log does not reproduce the device bytes"
    else
      Printf.printf "  log round-trip: %d record(s), byte-identical re-encoding\n"
        (List.length rp.Store.Log.records);
    if !failures <> [] then begin
      List.iter (Printf.eprintf "INVALID: %s\n") (List.rev !failures);
      exit 1
    end
  in
  let rounds =
    Arg.(value & opt int 48
         & info [ "rounds" ] ~docv:"N"
             ~doc:"History length in atomic-broadcast rounds (one payload \
                   per round).")
  in
  Cmd.v
    (Cmd.info "durability-check"
       ~doc:"End-to-end durability gate: runs the same seed with and \
             without the durability layer and checks byte-identical \
             delivery order, a bounded DECIDED backlog, snapshot adoption \
             by a party restarted on a wiped disk, and a byte-exact log \
             round-trip.")
    Term.(const run $ topology_arg $ seed_arg $ rounds
          $ checkpoint_interval_arg ~default:8)

let () =
  let doc = "SINTRA: secure intrusion-tolerant replication (DSN 2002), simulated" in
  exit
    (Cmd.eval
       (Cmd.group (Cmd.info "sintra_sim" ~doc)
          [ run_cmd; agree_cmd; explore_cmd; topologies_cmd; crypto_cmd;
            trace_check_cmd; critical_path_cmd; bench_check_cmd;
            store_check_cmd; durability_check_cmd ]))
