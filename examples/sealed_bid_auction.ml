(* A sealed-bid auction over the secure causal atomic broadcast channel
   (Section 2.6).

   Bids are threshold-encrypted under the group key, so no server — not
   even a Byzantine one colluding with a bidder — learns any bid before its
   position in the delivery order is fixed.  This kills the classic
   front-running attack: a corrupted server cannot observe Alice's bid and
   rush a higher one in front of it, because what travels the network until
   ordering completes is CCA-secure ciphertext.

   The example records every byte that crosses the wire and checks that no
   bid appears in cleartext before its delivery.

     dune exec examples/sealed_bid_auction.exe *)

open Sintra

let contains (hay : string) (needle : string) : bool =
  let n = String.length hay and m = String.length needle in
  let rec go i = i + m <= n && (String.sub hay i m = needle || go (i + 1)) in
  m > 0 && go 0

let () =
  let n = 4 in
  let cfg = Config.make ~n ~t:1 () in
  let topo = Sim.Topology.uniform ~count:n () in
  let cluster = Cluster.create ~seed:"auction" ~topo cfg in

  (* Auction servers: order and then open the bids. *)
  let opened = Array.init n (fun _ -> ref []) in
  let channels =
    Array.init n (fun i ->
      Secure_atomic_channel.create (Cluster.runtime cluster i) ~pid:"auction"
        ~on_deliver:(fun ~sender bid ->
          opened.(i) := (sender, bid, Cluster.now cluster) :: !(opened.(i)))
        ())
  in

  let bids =
    [ (0, "alice:1700"); (1, "bob:2450"); (2, "carol:2200"); (1, "dave:990") ]
  in

  (* Wire-tap everything; bids must never appear in cleartext in flight. *)
  let leaked = ref [] in
  Cluster.set_intercept cluster (fun ~src:_ ~dst:_ payload ->
    List.iter
      (fun (_, bid) -> if contains payload bid then leaked := bid :: !leaked)
      bids;
    Sim.Net.Deliver);

  List.iter
    (fun (server, bid) ->
      Cluster.inject cluster server (fun () ->
        Secure_atomic_channel.send channels.(server) bid))
    bids;

  let events = Cluster.run cluster in
  Printf.printf "simulation: %d events, %.3f virtual seconds\n\n"
    events (Cluster.now cluster);

  Printf.printf "bids opened (in agreed order) at server 0:\n";
  List.iter
    (fun (srv, bid, time) ->
      Printf.printf "  t=%.3fs  via server %d: %s\n" time srv bid)
    (List.rev !(opened.(0)));

  let orders = Array.map (fun l -> List.rev_map (fun (s, b, _) -> (s, b)) !l) opened in
  if not (Array.for_all (fun o -> o = orders.(0)) orders) then begin
    prerr_endline "servers opened bids in different orders!";
    exit 1
  end;
  if !leaked <> [] then begin
    Printf.eprintf "CONFIDENTIALITY VIOLATION: %s leaked in flight\n"
      (String.concat ", " !leaked);
    exit 1
  end;
  Printf.printf
    "\nno bid bytes appeared on the wire before opening (checked %d bids).\n"
    (List.length bids);

  (* Determine the winner from the (identical) opened list. *)
  let parse bid =
    match String.index_opt bid ':' with
    | Some i ->
      (String.sub bid 0 i,
       int_of_string (String.sub bid (i + 1) (String.length bid - i - 1)))
    | None -> (bid, 0)
  in
  let winner, amount =
    List.fold_left
      (fun (w, best) (_, bid, _) ->
        let who, amt = parse bid in
        if amt > best then (who, amt) else (w, best))
      ("", 0)
      (List.rev !(opened.(0)))
  in
  Printf.printf "winner: %s at %d\n" winner amount
