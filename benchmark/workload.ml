(* The benchmark workloads and one simulation of each.

   A workload is a group size, a channel, an open-loop load and an
   optional power failure.  Everything a simulation consumes derives from
   the workload name and the seed: the dealer's keys, the engine's randomness
   and the arrival processes.  Every party's deliveries are recorded so
   that the correctness gate ([Gate]) and the virtual metrics are computed
   after the simulation, without scheduling anything of their own. *)

open Sintra

type channel = Abc | Secure

type fault = { victim : int; crash_at : float; restart_at : float }

(* Why each workload exists is recorded in README.md and BENCHMARK.json. *)
type t = {
  name : string;
  n : int;
  t : int;
  channel : channel;
  rate : float;  (** Poisson arrivals, req/s in total *)
  clients : int list;  (** the parties the arrivals are split over *)
  window : float;  (** virtual seconds during which clients issue *)
  checkpoint_interval : int option;  (** [Some k]: [Durable] on every party *)
  fault : fault option;
  subruns : int;
      (** independent simulations per run, each with about 1000 or more
          completions *)
}

let all : t list =
  [ { name = "abc-open40";
      n = 4; t = 1; channel = Abc; rate = 40.0; clients = [ 0; 1; 2; 3 ];
      window = 30.0; checkpoint_interval = None; fault = None; subruns = 5 };
    { name = "secure-open30";
      n = 4; t = 1; channel = Secure; rate = 30.0; clients = [ 0; 1; 2; 3 ];
      window = 35.0; checkpoint_interval = None; fault = None; subruns = 3 };
    { name = "abc-recover";
      n = 4; t = 1; channel = Abc; rate = 30.0; clients = [ 0; 1; 2 ];
      window = 36.0; checkpoint_interval = Some 32;
      fault = Some { victim = 3; crash_at = 5.0; restart_at = 15.0 };
      subruns = 3 } ]

let find (name : string) : t option = List.find_opt (fun w -> w.name = name) all

let cfg (w : t) : Config.t = Load.Sweep.sweep_cfg ~n:w.n ~t:w.t ~max_batch:256 ()

(* The dealer depends on the run's seed only: every simulation of a run
   uses the same keys, as a deployed group would. *)
let deal (w : t) ~(seed : string) : Dealer.t =
  Dealer.deal ~seed:(Printf.sprintf "bench-dealer|%s|%s" w.name seed) (cfg w)

(* --- one prepared simulation --- *)

(* One party incarnation's deliveries, newest first, with their virtual
   delivery instants. *)
type log = { mutable entries : (float * string) list }

type prepared = {
  w : t;
  cluster : Cluster.t;
  gen : Load.Gen.t;
  logs : log list ref array;  (** per party, newest incarnation first *)
  issued_by : (string, int) Hashtbl.t;  (** marker -> issuing party *)
  issued_at : (string, float) Hashtbl.t;  (** marker -> virtual issue time *)
  durables : Durable.t list ref array;  (** per party, newest first *)
  mutable send_s : float;  (** host CPU seconds inside channel [send] calls *)
  mutable sends : int;
  mutable recover_s : float;
      (** host CPU seconds in [Runtime.recover] and the rebuild it triggers *)
}

(* Build the group, its channels and its clients.  Nothing runs yet. *)
let prepare (w : t) ~(dealer : Dealer.t) ~(seed : string) : prepared =
  let cfg = cfg w in
  let engine =
    Sim.Engine.create ~seed:(Printf.sprintf "bench-engine|%s|%s" w.name seed) ()
  in
  let topo = Sim.Topology.uniform ~count:w.n () in
  let net = Sim.Net.create ~engine ~topo ~mac_keys:(Dealer.net_mac_keys dealer) in
  let runtimes =
    Array.init w.n (fun i ->
      Runtime.create ~engine ~net ~cfg ~keys:dealer.Dealer.parties.(i))
  in
  let cluster = { Cluster.engine; net; cfg; dealer; runtimes } in
  let p =
    { w; cluster;
      gen = Load.Gen.create ~ctx_of:(Sim.Net.trace_ctx net) ~engine ();
      logs = Array.init w.n (fun _ -> ref []);
      issued_by = Hashtbl.create 4096;
      issued_at = Hashtbl.create 4096;
      durables = Array.init w.n (fun _ -> ref []);
      send_s = 0.0; sends = 0; recover_s = 0.0 }
  in
  let senders = Array.make w.n (fun (_ : string) -> ()) in
  let make_party i =
    let rt = Cluster.runtime cluster i in
    let log = { entries = [] } in
    p.logs.(i) := log :: !(p.logs.(i));
    let on_deliver ~sender:_ payload =
      log.entries <- (Sim.Engine.now engine, payload) :: log.entries;
      Load.Gen.deliver p.gen ~party:i payload
    in
    match w.channel with
    | Secure ->
      let ch = Secure_atomic_channel.create rt ~pid:"bench" ~on_deliver () in
      senders.(i) <- Secure_atomic_channel.send ch
    | Abc ->
      let ch = Atomic_channel.create rt ~pid:"bench" ~on_deliver () in
      senders.(i) <- Atomic_channel.send ch;
      Option.iter
        (fun interval ->
          (* The device outlives a crash, like a disk. *)
          let dev =
            match !(p.durables.(i)) with
            | d :: _ -> Durable.device d
            | [] -> Store.Device.mem ()
          in
          let d = Durable.attach rt ~chan:ch ~pid:"bench" ~dev ~interval () in
          p.durables.(i) := d :: !(p.durables.(i)))
        w.checkpoint_interval
  in
  let timed f =
    let t0 = Sys.time () in
    f ();
    Sys.time () -. t0
  in
  for i = 0 to w.n - 1 do
    make_party i;
    Runtime.on_rebuild (Cluster.runtime cluster i) (fun () ->
      p.recover_s <- p.recover_s +. timed (fun () -> make_party i))
  done;
  let submit party ~cause payload =
    Hashtbl.replace p.issued_by payload party;
    Hashtbl.replace p.issued_at payload (Sim.Engine.now engine);
    Cluster.inject ~cause cluster party (fun () ->
      p.send_s <- p.send_s +. timed (fun () -> senders.(party) payload);
      p.sends <- p.sends + 1)
  in
  let drbg =
    Hashes.Drbg.create ~seed:(Printf.sprintf "bench-arrivals|%s|%s" w.name seed)
  in
  let per = w.rate /. float_of_int (List.length w.clients) in
  List.iter
    (fun party ->
      let arrival =
        Load.Arrival.poisson ~rate:per (Hashes.Drbg.fork drbg (string_of_int party))
      in
      Load.Gen.add_open p.gen ~party ~arrival ~until:w.window ~submit:(submit party))
    w.clients;
  Option.iter
    (fun f ->
      let rt = Cluster.runtime cluster f.victim in
      Cluster.at cluster ~time:f.crash_at (fun () -> Runtime.crash rt);
      Cluster.at cluster ~time:f.restart_at (fun () ->
        p.recover_s <- p.recover_s +. timed (fun () -> Runtime.recover rt)))
    w.fault;
  p

(* --- the virtual outcome of a finished simulation --- *)

type outcome = {
  events : int;  (** engine events executed *)
  end_s : float;  (** virtual instant the run quiesced *)
  issued : int;
  completed : int;  (** requests that passed the exactly-once check *)
  latencies : float list;
      (** issue to delivery at the issuer, virtual seconds, per completed
          request *)
  delivered_in_window : int;  (** party 0's deliveries during the window *)
  payloads : int;  (** party 0's deliveries in total *)
  recovery_s : float;  (** 0 without a fault *)
  gate : string list;  (** correctness violations; empty when correct *)
  plant_caught : bool;  (** the gate rejects a planted divergence *)
  fingerprint : string;  (** digest of every delivery, for equivalence *)
}

(* Delivery sequences oldest first: [seqs.(p)] lists party [p]'s
   incarnations, oldest first. *)
let sequences (p : prepared) : Gate.seqs =
  Array.map
    (fun logs -> List.rev_map (fun l -> Array.of_list (List.rev l.entries)) !logs)
    p.logs

(* Virtual seconds from the restart until the victim delivers a payload
   that party 0 had not delivered by then — the moment the victim's state
   moves past party 0's state at the restart.  Total order makes that
   imply every earlier payload is in the victim's state, whether delivered
   or adopted through a snapshot. *)
let recovery (f : fault) (seqs : Gate.seqs) : float option =
  match (seqs.(0), List.rev seqs.(f.victim)) with
  | [ reference ], latest :: _ :: _ ->
    let before = Hashtbl.create 1024 in
    Array.iter
      (fun (t, x) -> if t <= f.restart_at then Hashtbl.replace before x ())
      reference;
    Array.fold_left
      (fun acc (t, x) ->
        match acc with
        | None when not (Hashtbl.mem before x) -> Some (t -. f.restart_at)
        | _ -> acc)
      None latest
  | _ -> None

let fingerprint (seqs : Gate.seqs) : string =
  Hashes.Sha256.digest_list
    (List.concat_map
       (fun incs ->
         List.concat_map
           (fun a ->
             "|"
             :: List.concat_map
                  (fun (t, x) -> [ Printf.sprintf "%h" t; x ])
                  (Array.to_list a))
           incs)
       (Array.to_list seqs))

let outcome (p : prepared) ~(events : int) : outcome =
  let w = p.w in
  let seqs = sequences p in
  let victim = Option.map (fun f -> f.victim) w.fault in
  let gate = Gate.check ~issued_by:p.issued_by ~victim seqs in
  let ok = Gate.passed_requests ~issued_by:p.issued_by ~victim seqs in
  let completed = Hashtbl.length ok in
  let gate =
    if Load.Gen.completed p.gen = completed then gate
    else
      gate
      @ [ Printf.sprintf "the generator saw %d completions, the gate %d"
            (Load.Gen.completed p.gen) completed ]
  in
  let latencies =
    Hashtbl.fold
      (fun marker delivered acc -> (delivered -. Hashtbl.find p.issued_at marker) :: acc)
      ok []
  in
  let reference = match seqs.(0) with r :: _ -> r | [] -> [||] in
  let delivered_in_window =
    Array.fold_left
      (fun n (t, _) -> if t <= w.window then n + 1 else n)
      0 reference
  in
  let recovery_s, gate =
    match w.fault with
    | None -> (0.0, gate)
    | Some f ->
      (match recovery f seqs with
       | Some r -> (r, gate)
       | None -> (0.0, gate @ [ "the restarted party never caught up" ]))
  in
  { events;
    end_s = Cluster.now p.cluster;
    issued = Load.Gen.issued p.gen;
    completed;
    latencies;
    delivered_in_window;
    payloads = Array.length reference;
    recovery_s;
    gate;
    plant_caught =
      Gate.check ~issued_by:p.issued_by ~victim (Gate.plant_divergence seqs)
      <> [];
    fingerprint = fingerprint seqs }
