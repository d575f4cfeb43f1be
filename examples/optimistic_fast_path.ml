(* The optimistic fast path in action (the paper's Section 6 future work).

   Phase 1: the sequencer (party 0) is honest and the WAN is timely — each
   message costs one verifiable consistent broadcast plus an ACK round, an
   order of magnitude below the randomized protocol.

   Phase 2: the sequencer crashes mid-stream.  Complaints end the epoch,
   one recovery agreement fixes a common cut, and epoch 1 resumes at
   fast-path speed under the next leader.  Nothing is lost, nothing is
   duplicated.

     dune exec examples/optimistic_fast_path.exe *)

open Sintra

let () =
  let n = 4 in
  let cfg = Config.make ~n ~t:1 () in
  let topo = Sim.Topology.internet in
  let cluster = Cluster.create ~seed:"fast-path" ~topo cfg in

  let logs = Array.init n (fun _ -> ref []) in
  let chans =
    Array.init n (fun i ->
      Optimistic_channel.create ~timeout:6.0 (Cluster.runtime cluster i)
        ~pid:"demo"
        ~on_deliver:(fun ~sender msg ->
          logs.(i) := (Cluster.now cluster, sender, msg) :: !(logs.(i)))
        ())
  in

  (* Phase 1: ten messages under the honest sequencer. *)
  for k = 0 to 9 do
    Cluster.at cluster ~time:(0.3 *. float_of_int k) (fun () ->
      Cluster.inject cluster 1 (fun () ->
        Optimistic_channel.send chans.(1) (Printf.sprintf "fast-%d" k)))
  done;

  (* Phase 2: the sequencer dies at t=4s with traffic still flowing. *)
  Cluster.at cluster ~time:4.0 (fun () ->
    print_endline ">>> t=4.0s: crashing the epoch-0 sequencer (party 0)";
    Cluster.crash cluster 0);
  for k = 0 to 4 do
    Cluster.at cluster ~time:(4.2 +. (0.3 *. float_of_int k)) (fun () ->
      Cluster.inject cluster 2 (fun () ->
        Optimistic_channel.send chans.(2) (Printf.sprintf "after-crash-%d" k)))
  done;

  ignore (Cluster.run cluster ~until:600.0);

  Printf.printf "\ndeliveries at party 1 (leader of epoch 1):\n";
  List.iter
    (fun (time, sender, msg) -> Printf.printf "  t=%7.2fs  P%d  %s\n" time sender msg)
    (List.rev !(logs.(1)));

  Printf.printf "\nepoch: %d (leader now P%d)   fast-path deliveries: %d   recovered: %d\n"
    (Optimistic_channel.current_epoch chans.(1))
    (Optimistic_channel.current_leader chans.(1))
    (Optimistic_channel.deliveries_fast chans.(1))
    (Optimistic_channel.deliveries_recovered chans.(1));

  (* Safety check: the three live parties hold identical sequences. *)
  let strip l = List.rev_map (fun (_, s, m) -> (s, m)) !l in
  if strip logs.(1) = strip logs.(2) && strip logs.(2) = strip logs.(3) then
    print_endline "all live parties agree on the order despite the crash."
  else begin
    prerr_endline "order divergence!";
    exit 1
  end
