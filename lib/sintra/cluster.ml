(* The test-bed harness: build a full SINTRA group — engine, network,
   dealer, one runtime per party — from a topology, a configuration and a
   seed.  Every driver builds its groups here: the tests, the examples, the
   load sweeps, the vopr workloads and the benchmarks. *)

type t = {
  engine : Sim.Engine.t;
  net : Sim.Net.t;
  cfg : Config.t;
  dealer : Dealer.t;
  runtimes : Runtime.t array;
}

let create ?(seed = "sintra") ?dealer ?engine_seed ?loss ~(topo : Sim.Topology.t)
    (cfg : Config.t) : t =
  if Sim.Topology.n topo <> cfg.Config.n then
    invalid_arg "Cluster.create: topology size differs from configured n";
  let dealer = match dealer with Some d -> d | None -> Dealer.deal ~seed cfg in
  let dealt = dealer.Dealer.cfg in
  if dealt.Config.n <> cfg.Config.n || dealt.Config.t <> cfg.Config.t then
    invalid_arg "Cluster.create: dealer dealt for another (n, t)";
  let engine =
    Sim.Engine.create ~seed:(Option.value engine_seed ~default:("engine|" ^ seed)) ()
  in
  let mac_keys = Dealer.net_mac_keys dealer in
  let net =
    match loss with
    | None -> Sim.Net.create ~engine ~topo ~mac_keys
    | Some loss -> Sim.Net.create_lossy ~loss ~engine ~topo ~mac_keys
  in
  let runtimes =
    Array.init cfg.Config.n (fun i ->
      Runtime.create ~engine ~net ~cfg ~keys:dealer.Dealer.parties.(i))
  in
  { engine; net; cfg; dealer; runtimes }

let runtime (c : t) (i : int) : Runtime.t = c.runtimes.(i)
let n (c : t) = c.cfg.Config.n

(* Run the simulation to quiescence (or a virtual-time/event bound).
   Returns the number of events executed. *)
let run ?until ?max_events (c : t) : int =
  Sim.Engine.run ?until ?max_events c.engine

let now (c : t) : float = Sim.Engine.now c.engine

(* Schedule an application action on party [i]'s virtual CPU at the current
   virtual time (e.g. a client request causing a channel send).  [cause]
   optionally names the causal flow id that triggered the action. *)
let inject ?cause (c : t) (i : int) (f : unit -> unit) : unit =
  Sim.Net.inject ?cause c.net i f

let at (c : t) ~(time : float) (f : unit -> unit) : unit =
  Sim.Engine.schedule_at c.engine ~time f

(* Fault injection. *)
let crash (c : t) (i : int) : unit = Sim.Net.crash c.net i
let recover (c : t) (i : int) : unit = Sim.Net.recover c.net i

let set_intercept (c : t) f = Sim.Net.set_intercept c.net f

(* Observability. *)

let set_sink (c : t) (s : Trace.Sink.t) : unit = Sim.Engine.set_sink c.engine s

(* Flush the network/CPU counters into the registry and return it. *)
let publish_metrics (c : t) : Trace.Metrics.t =
  Sim.Net.publish_metrics c.net;
  let set rt name v =
    Trace.Metrics.set
      (Trace.Metrics.counter (Sim.Engine.metrics c.engine)
         (Printf.sprintf "p%d/%s" rt.Runtime.me name))
      (float_of_int v)
  in
  Array.iter
    (fun rt ->
      (* Statement-table lookups: a miss hashed the statement, a hit
         reused an earlier preparation. *)
      let stmts = rt.Runtime.stmts in
      set rt "tsig.stmt_hashed" (Crypto.Stmt_table.hashed stmts);
      set rt "tsig.stmt_reused" (Crypto.Stmt_table.reused stmts);
      set rt "tsig.stmt_table/max" (Crypto.Stmt_table.peak stmts);
      (* Crypto work that runs only when its result is needed and not
         already known: multi-signature parts and shares answered from
         the statement's known list vs. really RSA-checked; coin-share
         nonces drawn (and charged) at round start vs. shares computed
         because a round revealed them; own ciphertexts delivered without
         a validity check.  The last five count where they happen; adding
         0 publishes those a run never reached. *)
      set rt "tsig.share_known" (Crypto.Stmt_table.share_known stmts);
      set rt "tsig.share_checked" (Crypto.Stmt_table.share_checked stmts);
      List.iter
        (fun name -> Trace.Ctx.count rt.Runtime.trace name 0.0)
        [ "aba.coin_pregen"; "aba.coin_finished"; "aba.cert_sent";
          "aba.cert_decided"; "sac.own_ct_reused" ];
      (* The share cache's live entries now (the insertion-time gauge
         misses group evictions) and its FIFO's high-water mark. *)
      let cache = rt.Runtime.cache in
      set rt "verify.cache_size" (Crypto.Share_cache.size cache);
      set rt "verify.cache_retained/max" (Crypto.Share_cache.peak_retained cache))
    c.runtimes;
  (* Percentile summaries of every histogram, as <name>/p50|p90|p99. *)
  Trace.Metrics.publish_quantiles (Sim.Engine.metrics c.engine);
  Sim.Engine.metrics c.engine

(* The per-party tables of `sintra_sim run --stats`. *)
let stats (c : t) : string =
  let m = publish_metrics c in
  let b = Buffer.create 4096 in
  let line fmt = Printf.bprintf b fmt in
  let get name =
    match Trace.Metrics.find_counter m name with
    | Some ct -> Trace.Metrics.value ct
    | None -> 0.0
  in
  let n = n c in
  line "\nper-party metrics:\n";
  line "  %5s %10s %12s %10s %9s %8s %9s %7s %7s %7s\n"
    "party" "sent_msgs" "sent_bytes" "recv_msgs" "loopback" "macs" "cpu_s"
    "exps" "exp2s" "fixed";
  for i = 0 to n - 1 do
    let p fmt = Printf.sprintf fmt i in
    line "  %5d %10.0f %12.0f %10.0f %9.0f %8.0f %9.2f %7.0f %7.0f %7.0f\n" i
      (get (p "p%d/net.sent_msgs")) (get (p "p%d/net.sent_bytes"))
      (get (p "p%d/net.recv_msgs")) (get (p "p%d/net.loopback_msgs"))
      (get (p "p%d/net.macs")) (get (p "p%d/cpu.charged_s"))
      (get (p "p%d/crypto.exps")) (get (p "p%d/crypto.exp2s"))
      (get (p "p%d/crypto.fixed"))
  done;
  (* The bounded tables side by side, so a leak shows: share-cache entries
     live now and at peak, the peak of the FIFO behind them, and the
     statement table's peak. *)
  line "\nper-party tables:\n";
  line "  %5s %10s %14s %12s %14s\n"
    "party" "cache_size" "cache_size_max" "retained_max" "stmt_table_max";
  for i = 0 to n - 1 do
    let p fmt = Printf.sprintf fmt i in
    line "  %5d %10.0f %14.0f %12.0f %14.0f\n" i
      (get (p "p%d/verify.cache_size")) (get (p "p%d/verify.cache_size/max"))
      (get (p "p%d/verify.cache_retained/max"))
      (get (p "p%d/tsig.stmt_table/max"))
  done;
  (* Everything else (protocol counters, drops), minus the table columns
     and the per-link detail. *)
  let tabled name =
    List.exists
      (fun suffix ->
        String.length name > String.length suffix && String.ends_with ~suffix name)
      [ "/net.sent_msgs"; "/net.sent_bytes"; "/net.recv_msgs";
        "/net.loopback_msgs"; "/net.macs"; "/cpu.charged_s"; "/crypto.exps";
        "/crypto.exp2s"; "/crypto.fixed";
        "/verify.cache_size"; "/verify.cache_size/max";
        "/verify.cache_retained/max"; "/tsig.stmt_table/max";
        (* published histogram quantiles render in the histogram table *)
        "/p50"; "/p90"; "/p99" ]
    || String.starts_with ~prefix:"link/" name
  in
  let rest = List.filter (fun (name, _) -> not (tabled name)) (Trace.Metrics.dump m) in
  if rest <> [] then begin
    line "\ncounters:\n";
    List.iter (fun (name, v) -> line "  %-40s %12.0f\n" name v) rest
  end;
  let hists = Trace.Metrics.hists m in
  if hists <> [] then begin
    line "\nlatency histograms (seconds):\n";
    List.iter
      (fun h ->
        line "  %-40s n=%-6d mean=%.3f p50=%.3f p90=%.3f p99=%.3f\n"
          (Trace.Metrics.hist_name h) (Trace.Metrics.hist_count h)
          (Trace.Metrics.hist_mean h)
          (Trace.Metrics.hist_quantile h 0.5)
          (Trace.Metrics.hist_quantile h 0.9)
          (Trace.Metrics.hist_quantile h 0.99))
      hists
  end;
  Buffer.contents b

(* The paper's four broadcast channels, behind one send function per party. *)
type channel = Atomic | Secure | Reliable | Consistent

let channels = [ Atomic; Secure; Reliable; Consistent ]

let channel_name = function
  | Atomic -> "atomic"
  | Secure -> "secure"
  | Reliable -> "reliable"
  | Consistent -> "consistent"

let join (kind : channel) (rt : Runtime.t) ~(pid : string)
    ~(on_deliver : sender:int -> string -> unit) : string -> unit =
  match kind with
  | Atomic -> Atomic_channel.send (Atomic_channel.create rt ~pid ~on_deliver ())
  | Secure ->
    Secure_atomic_channel.send (Secure_atomic_channel.create rt ~pid ~on_deliver ())
  | Reliable -> Reliable_channel.send (Reliable_channel.create rt ~pid ~on_deliver ())
  | Consistent ->
    Consistent_channel.send (Consistent_channel.create rt ~pid ~on_deliver ())
