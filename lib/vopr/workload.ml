(* Workloads: one seeded, schedule-mutated run of a protocol family over a
   fresh 4-party cluster, producing the observation record the oracles
   consume.

   A runner deals the key material once (it dominates start-up cost and is
   independent of the run seed); the engine — and with it every latency
   draw and protocol coin — is seeded per run, so a run is a pure function
   of [(kind, tweaks, seed, schedule)].

   Corrupted parties (Byz_equivocate mutations) are replaced by the
   Byzantine harnesses from {!Sintra.Faults}; all other mutations act at
   the network layer via {!Schedule.arm}. *)

open Sintra

type chan = { send : string -> unit }

type tweaks = {
  make_channel :
    (Runtime.t -> party:int -> on_deliver:(sender:int -> string -> unit) ->
     chan)
      option;
  wrap_deliver : (party:int -> (int * string -> unit) -> int * string -> unit) option;
  unanimous : bool option;
  flip_decisions : bool;
  spurious_flag : bool;
}

let no_tweaks : tweaks =
  {
    make_channel = None;
    wrap_deliver = None;
    unanimous = None;
    flip_decisions = false;
    spurious_flag = false;
  }

let byz_supported (k : Oracle.kind) : bool =
  match k with
  | Oracle.Reliable | Oracle.Consistent | Oracle.Aba | Oracle.Amortized ->
    true
  | Oracle.Mvba | Oracle.Atomic | Oracle.Secure | Oracle.Throughput
  | Oracle.Pipeline | Oracle.Durable ->
    false

(* The durable workload scripts a power failure of party 3 itself, which
   spends the whole t=1 fault budget: its schedules carry only benign noise
   (delays, dups, replays). *)
let schedule ~(kind : Oracle.kind) ~(run_seed : string) : Schedule.t =
  let max_faulty = match kind with Oracle.Durable -> 0 | _ -> 1 in
  Explorer.schedule_of ~run_seed ~n:4 ~max_faulty
    ~allow_equiv:(byz_supported kind)

let make_cluster ~(cfg : Config.t) ~(dealer : Dealer.t) ~(run_seed : string) :
    Cluster.t =
  let n = cfg.Config.n in
  let topo = Sim.Topology.uniform ~count:n () in
  let engine = Sim.Engine.create ~seed:("engine|" ^ run_seed) () in
  let net =
    Sim.Net.create ~engine ~topo ~mac_keys:(Dealer.net_mac_keys dealer)
  in
  let runtimes =
    Array.init n (fun i ->
      Runtime.create ~engine ~net ~cfg ~keys:dealer.Dealer.parties.(i))
  in
  { Cluster.engine; net; cfg; dealer; runtimes }

(* Broadcast_channel frames payloads with a leading 0x01; the Byzantine
   sender harnesses speak the inner-instance wire format directly. *)
let framed (s : string) : string = "\x01" ^ s

let runner ?(tweaks = no_tweaks) ?(until = 300.0) ?(max_events = 400_000)
    ~(kind : Oracle.kind) () : seed:string -> Schedule.t -> Oracle.obs =
  let n = 4 and t = 1 in
  (* The pipeline workload caps vectors low so its staggered waves spread
     over several concurrent rounds instead of one big batch; the durable
     workload does the same so its scripted power-fail lands with several
     rounds on disk. *)
  let max_batch =
    match kind with
    | Oracle.Pipeline -> Some 6
    | Oracle.Durable -> Some 8
    | _ -> None
  in
  let cfg = Config.test ~n ~t ?max_batch ~check_invariants:true () in
  (* Key material is independent of the run seed: deal once per runner. *)
  let dealer = Dealer.deal ~seed:"vopr-dealer" cfg in
  fun ~seed sched ->
  let c = make_cluster ~cfg ~dealer ~run_seed:seed in
  (* The amortized-crypto workload layers a deterministic retransmit storm
     over the generated schedule: every 4th frame duplicated, every 4th+2
     frame replayed out of FIFO order.  Dups and replays re-present
     already-verified echo shares and closings, so the verified-share cache
     and the batch verifier absorb them; on a frame collision Schedule.arm
     keeps the generated schedule's entry (it comes first). *)
  let sched =
    if kind = Oracle.Amortized then
      sched
      @ List.concat
          (List.init 60 (fun i ->
             [ Schedule.Dup_frame (4 * i);
               Schedule.Replay_frame ((4 * i) + 2, 300 + (17 * i mod 900)) ]))
    else sched
  in
  let corrupted =
    if byz_supported kind then Schedule.equivocators sched else []
  in
  let honest = List.filter (fun p -> not (List.mem p corrupted)) (List.init n Fun.id) in
  Schedule.arm c ~run_seed:seed sched;
  let sent : (int * string) list ref = ref [] in
  (* Durable workload only: every controller ever attached (restarts make
     several per party), inspected after the run — a party that adopted a
     peer snapshot jumped over history, so its app log legitimately has
     gaps and the full-history oracles must not hold it to totality. *)
  let durables : (int * Durable.t) list ref = ref [] in
  let delivered : (int * string) list array = Array.make n [] in
  let decisions : string option array = Array.make n None in
  let proposals : string option array = Array.make n None in
  let recorder (p : int) : int * string -> unit =
    let base (entry : int * string) = delivered.(p) <- entry :: delivered.(p) in
    match tweaks.wrap_deliver with Some w -> w ~party:p base | None -> base
  in
  if tweaks.spurious_flag then
    Invariant.flag (Cluster.runtime c 0).Runtime.inv ~offender:1
      "vopr planted spurious flag";
  (match kind with
   | Oracle.Reliable | Oracle.Consistent | Oracle.Atomic | Oracle.Secure
   | Oracle.Throughput | Oracle.Pipeline | Oracle.Amortized
   | Oracle.Durable ->
     let chans : chan option array = Array.make n None in
     (* Durable workload state: per-party in-memory devices held OUTSIDE
        the runtimes (a disk survives a power failure), and per-party
        dedup sets modelling an idempotent application — replaying the
        log after a restart re-delivers rounds the app already saw. *)
     let devs = Array.init n (fun _ -> Store.Device.mem ()) in
     let seen : (int * string, unit) Hashtbl.t array =
       Array.init n (fun _ -> Hashtbl.create 64)
     in
     List.iter
       (fun p ->
         let rt = Cluster.runtime c p in
         let record = recorder p in
         let on_deliver ~sender m = record (sender, m) in
         let ch =
           match tweaks.make_channel with
           | Some mk -> mk rt ~party:p ~on_deliver
           | None ->
             (match kind with
              | Oracle.Reliable ->
                let ch = Reliable_channel.create rt ~pid:"vopr" ~on_deliver () in
                { send = (fun m -> Reliable_channel.send ch m) }
              | Oracle.Consistent | Oracle.Amortized ->
                let ch =
                  Consistent_channel.create rt ~pid:"vopr" ~on_deliver ()
                in
                { send = (fun m -> Consistent_channel.send ch m) }
              | Oracle.Atomic | Oracle.Throughput | Oracle.Pipeline ->
                let ch = Atomic_channel.create rt ~pid:"vopr" ~on_deliver () in
                { send = (fun m -> Atomic_channel.send ch m) }
              | Oracle.Durable ->
                (* Atomic channel + the durability layer over the party's
                   device.  [cur] survives the scripted power-fail below;
                   the rebuild hook re-creates channel and controller from
                   the same device, exactly as a restarted process would. *)
                let cur = ref None in
                let make () =
                  let ch =
                    Atomic_channel.create rt ~pid:"vopr"
                      ~on_deliver:(fun ~sender m ->
                        if not (Hashtbl.mem seen.(p) (sender, m)) then begin
                          Hashtbl.add seen.(p) (sender, m) ();
                          record (sender, m)
                        end)
                      ()
                  in
                  let d =
                    Durable.attach rt ~chan:ch ~pid:"vopr" ~dev:devs.(p)
                      ~interval:2 ()
                  in
                  durables := (p, d) :: !durables;
                  cur := Some ch
                in
                make ();
                Runtime.on_rebuild rt make;
                { send =
                    (fun m ->
                      match !cur with
                      | Some ch -> Atomic_channel.send ch m
                      | None -> ()) }
              | Oracle.Secure ->
                let ch =
                  Secure_atomic_channel.create rt ~pid:"vopr" ~on_deliver ()
                in
                { send = (fun m -> Secure_atomic_channel.send ch m) }
              | Oracle.Aba | Oracle.Mvba -> { send = (fun _ -> ()) })
         in
         chans.(p) <- Some ch)
       honest;
     (* Two payloads per honest party, one burst at t=0 and one at t=2
        virtual seconds, so destructive mutations land mid-traffic.  The
        throughput workload sends four-payload bursts instead, so decided
        batches carry multi-item vectors and the oracles check the
        batched delivery path (deterministic union order, batch-wide
        catch-up) under the same adversarial schedules. *)
     let times =
       match kind with
       | Oracle.Throughput -> [ 0.0; 0.0; 0.0; 0.0; 2.0; 2.0; 2.0; 2.0 ]
       | Oracle.Pipeline ->
         (* staggered waves: fresh payloads arrive while earlier rounds are
            still in flight, keeping several rounds open concurrently *)
         [ 0.0; 0.0; 0.3; 0.6; 0.9; 2.0 ]
       | Oracle.Durable ->
         (* waves bracketing the scripted power-fail window (1.0..2.5):
            history lands on disk before the crash, traffic continues
            while party 3 is down, and a final wave exercises ordering
            after its restart-from-disk *)
         [ 0.0; 0.5; 2.0; 3.0 ]
       | _ -> [ 0.0; 2.0 ]
     in
     List.iter
       (fun p ->
         List.iteri
           (fun j time ->
             let payload = Printf.sprintf "p%d.m%d" p j in
             let submit () =
               Cluster.inject c p (fun () ->
                 match chans.(p) with
                 | Some ch ->
                   sent := (p, payload) :: !sent;
                   ch.send payload
                 | None -> ())
             in
             if time <= 0.0 then submit ()
             else Cluster.at c ~time submit)
           times)
       honest;
     List.iter
       (fun p ->
         let ipid = Printf.sprintf "vopr/%d.0" p in
         match kind with
         | Oracle.Consistent ->
           (* The closing needs echo_quorum - 1 = 2 honest shares for a. *)
           let to_a =
             match honest with q0 :: q1 :: _ -> [ q0; q1 ] | rest -> rest
           in
           Faults.equivocating_cbc_sender c ~party:p ~pid:ipid ~to_a
             ~a:(framed "equiv-a") ~b:(framed "equiv-b")
         | Oracle.Amortized ->
           (* Answer every honest sender's SEND — both instances — with a
              well-formed-but-invalid echo share: each sender's echo batch
              then carries a bad share for Batch bisection to isolate. *)
           let pids =
             List.concat_map
               (fun q ->
                 [ Printf.sprintf "vopr/%d.0" q; Printf.sprintf "vopr/%d.1" q ])
               honest
           in
           Faults.bad_share_cbc_responder c ~party:p ~pids
         | Oracle.Reliable | Oracle.Atomic | Oracle.Secure | Oracle.Aba
         | Oracle.Mvba | Oracle.Throughput | Oracle.Pipeline
         | Oracle.Durable ->
           let to_a = match honest with q0 :: _ -> [ q0 ] | [] -> [] in
           Faults.equivocate_send c ~party:p ~pid:ipid ~to_a
             ~a:(framed "equiv-a") ~b:(framed "equiv-b"))
       corrupted;
     (* The durable workload's signature event: a full power failure of
        party 3 — process state AND volatile protocol state lost, only the
        device survives — followed by a restart that restores from disk
        and catches up.  [Runtime.crash] (not the schedule's net-level
        [Cluster.crash]) so handlers and orphans really are discarded. *)
     if kind = Oracle.Durable then begin
       let rt3 = Cluster.runtime c 3 in
       Cluster.at c ~time:1.0 (fun () -> Runtime.crash rt3);
       Cluster.at c ~time:2.5 (fun () -> Runtime.recover rt3)
     end
   | Oracle.Aba ->
     let prop_drbg = Hashes.Drbg.create ~seed:("prop|" ^ seed) in
     List.iter
       (fun p ->
         let rt = Cluster.runtime c p in
         let aba =
           Binary_agreement.create rt ~pid:"vopr-aba"
             ~on_decide:(fun v _proof ->
               let v = if tweaks.flip_decisions then not v else v in
               decisions.(p) <- Some (string_of_bool v))
         in
         let v =
           match tweaks.unanimous with
           | Some u -> u
           | None -> Hashes.Drbg.bool prop_drbg
         in
         Cluster.inject c p (fun () ->
           proposals.(p) <- Some (string_of_bool v);
           Binary_agreement.propose aba v))
       honest;
     List.iter
       (fun p ->
         let to_true = match honest with q0 :: _ -> [ q0 ] | [] -> [] in
         Faults.equivocating_aba c ~party:p ~pid:"vopr-aba" ~to_true)
       corrupted
   | Oracle.Mvba ->
     List.iter
       (fun p ->
         let rt = Cluster.runtime c p in
         let ag =
           Array_agreement.create rt ~pid:"vopr-mvba"
             ~validator:(fun _ -> true)
             ~on_decide:(fun v ->
               decisions.(p) <-
                 Some (if tweaks.flip_decisions then v ^ "!" else v))
         in
         let v = Printf.sprintf "mv%d" p in
         Cluster.inject c p (fun () ->
           proposals.(p) <- Some v;
           Array_agreement.propose ag v))
       honest);
  let events = Cluster.run ~until ~max_events c in
  {
    Oracle.kind;
    n;
    t;
    degraded =
      (* The scripted power-fail makes party 3 a degraded party for the
         oracles: safety is still demanded of it, liveness is not.  So is
         any party that adopted a peer snapshot — state transfer jumps
         over history by design, so its app log has gaps and cannot be
         held to totality or position-wise consistency. *)
      (let d = Schedule.degraded sched in
       let d =
         if kind = Oracle.Durable && not (List.mem 3 d) then d @ [ 3 ] else d
       in
       let jumped =
         List.filter_map
           (fun (p, dur) ->
             if Durable.snapshots_adopted dur > 0 && not (List.mem p d) then
               Some p
             else None)
           !durables
       in
       d @ List.sort_uniq compare jumped);
    corrupted;
    sent = List.rev !sent;
    delivered = Array.map List.rev delivered;
    decisions;
    proposals;
    flagged =
      Array.init n (fun p ->
        Invariant.flagged (Cluster.runtime c p).Runtime.inv);
    quiesced = Sim.Engine.pending c.Cluster.engine = 0;
    events;
    vtime = Cluster.now c;
  }
