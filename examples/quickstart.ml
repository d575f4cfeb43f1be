(* Quickstart: secure state-machine replication in ~40 lines.

   Four servers (one of which crashes mid-run) atomically broadcast client
   commands; every honest server delivers the identical sequence, even
   though the network is fully asynchronous and delivery order is decided
   by randomized Byzantine agreement.

     dune exec examples/quickstart.exe *)

open Sintra

let () =
  (* n = 4 servers tolerating t = 1 Byzantine fault; a uniform ~10 ms
     network.  All keys come from the (deterministic, seeded) dealer. *)
  let cfg = Config.make ~n:4 ~t:1 () in
  let topo = Sim.Topology.uniform ~count:4 () in
  let cluster = Cluster.create ~seed:"quickstart" ~topo cfg in

  (* One atomic broadcast channel, one delivery log per server. *)
  let logs = Array.init 4 (fun _ -> ref []) in
  let channels =
    Array.init 4 (fun i ->
      Atomic_channel.create (Cluster.runtime cluster i) ~pid:"demo"
        ~on_deliver:(fun ~sender msg ->
          logs.(i) := Printf.sprintf "P%d:%s" sender msg :: !(logs.(i)))
        ())
  in

  (* Three servers broadcast concurrently... *)
  List.iter
    (fun (server, msg) ->
      Cluster.inject cluster server (fun () ->
        Atomic_channel.send channels.(server) msg))
    [ (0, "credit alice 100"); (1, "debit bob 40"); (2, "credit carol 7");
      (0, "debit alice 60"); (1, "credit bob 5") ];

  (* ...and server 3 crashes before doing anything useful. *)
  Cluster.crash cluster 3;

  let events = Cluster.run cluster in
  Printf.printf "simulation: %d events, %.3f virtual seconds\n\n"
    events (Cluster.now cluster);

  for i = 0 to 2 do
    Printf.printf "server %d delivered: %s\n" i
      (String.concat " | " (List.rev !(logs.(i))))
  done;
  let seqs = List.init 3 (fun i -> List.rev !(logs.(i))) in
  match seqs with
  | first :: rest when List.for_all (( = ) first) rest ->
    Printf.printf "\nall honest servers agree on the order. state machine replicated.\n"
  | _ ->
    prerr_endline "DISAGREEMENT - this should be impossible";
    exit 1
