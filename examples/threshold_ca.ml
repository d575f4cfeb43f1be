(* A distributed certification authority in the style of COCA (the one
   Internet-deployed system the paper compares against, Section 5) — built
   here the SINTRA way: atomic broadcast orders the certificate requests,
   and the CA's signing key exists only as threshold shares, so certificates
   get issued even while t servers are corrupted, yet no coalition of t
   servers can forge one.

     dune exec examples/threshold_ca.exe *)

open Sintra

let cert_statement ~name ~pubkey ~serial =
  Printf.sprintf "cert|serial=%d|name=%s|key=%s" serial name pubkey

let () =
  let n = 4 and t = 1 in
  let cfg = Config.make ~n ~t () in
  let topo = Sim.Topology.uniform ~count:n () in
  let cluster = Cluster.create ~seed:"threshold-ca" ~topo cfg in
  let byzantine = 2 in   (* this server will refuse to sign *)

  (* Each CA server orders requests on an atomic channel and then releases a
     threshold-signature share for the certificate; shares are exchanged on
     the same runtime and assembled by everyone independently. *)
  let issued : (int, (string * string) list ref) Hashtbl.t = Hashtbl.create 4 in
  Array.iter (fun i -> Hashtbl.replace issued i (ref [])) [| 0; 1; 2; 3 |];

  let share_pool : (int, (string * Tsig.share list ref)) Hashtbl.t array =
    Array.init n (fun _ -> Hashtbl.create 8)
  in

  let channels = Array.make n None in
  let serials = Array.make n 0 in

  let share_pid = "ca/shares" in

  let try_issue i serial statement =
    let rt = Cluster.runtime cluster i in
    let pub = Tsig.public_of_secret rt.Runtime.keys.Dealer.bc_tsig in
    match Hashtbl.find_opt share_pool.(i) serial with
    | Some (stmt, shares) when stmt = statement && List.length !shares >= Tsig.k pub ->
      let signature = Tsig.assemble pub ~ctx:"ca" stmt !shares in
      if Tsig.verify pub ~ctx:"ca" ~signature stmt then begin
        let log = Hashtbl.find issued i in
        if not (List.mem_assoc stmt !log) then log := (stmt, signature) :: !log
      end
    | _ -> ()
  in

  (* Share exchange handler per server. *)
  Array.iteri
    (fun i _ ->
      let rt = Cluster.runtime cluster i in
      Runtime.register rt ~pid:share_pid (fun ~src body ->
        match
          Wire.decode body (fun d ->
            let serial = Wire.Dec.int d in
            let stmt = Wire.Dec.bytes d in
            let share = Tsig.dec_share d in
            (serial, stmt, share))
        with
        | None -> ()
        | Some (serial, stmt, share) ->
          let pub = Tsig.public_of_secret rt.Runtime.keys.Dealer.bc_tsig in
          if Tsig.share_origin share = src + 1
             && Tsig.verify_share pub ~ctx:"ca" stmt share
          then begin
            let _, shares =
              match Hashtbl.find_opt share_pool.(i) serial with
              | Some entry -> entry
              | None ->
                let entry = (stmt, ref []) in
                Hashtbl.replace share_pool.(i) serial entry;
                entry
            in
            shares := share :: !shares;
            try_issue i serial stmt
          end))
    channels;

  (* Atomic delivery of a request: everyone signs (except the corrupted
     server, which stays silent) and broadcasts its share. *)
  let on_request i payload =
    let rt = Cluster.runtime cluster i in
    let serial = serials.(i) in
    serials.(i) <- serial + 1;
    match String.index_opt payload '/' with
    | None -> ()
    | Some cut ->
      let name = String.sub payload 0 cut in
      let pubkey = String.sub payload (cut + 1) (String.length payload - cut - 1) in
      let statement = cert_statement ~name ~pubkey ~serial in
      (match Hashtbl.find_opt share_pool.(i) serial with
       | Some _ -> ()
       | None -> Hashtbl.replace share_pool.(i) serial (statement, ref []));
      if i <> byzantine then begin
        let share =
          Tsig.release ~drbg:rt.Runtime.drbg rt.Runtime.keys.Dealer.bc_tsig
            ~ctx:"ca" statement
        in
        let body =
          Wire.encode (fun b ->
            Wire.Enc.int b serial;
            Wire.Enc.bytes b statement;
            Tsig.enc_share b share)
        in
        Runtime.broadcast rt ~pid:share_pid body
      end
  in

  Array.iteri
    (fun i _ ->
      channels.(i) <-
        Some
          (Atomic_channel.create (Cluster.runtime cluster i) ~pid:"ca/requests"
             ~on_deliver:(fun ~sender:_ payload -> on_request i payload)
             ()))
    channels;

  (* Clients submit certificate requests through different servers. *)
  let request via name pubkey =
    Cluster.inject cluster via (fun () ->
      match channels.(via) with
      | Some ch -> Atomic_channel.send ch (name ^ "/" ^ pubkey)
      | None -> ())
  in
  request 0 "alice.example.org" "rsa:a1b2c3";
  request 1 "bob.example.org" "rsa:d4e5f6";
  request 3 "carol.example.org" "rsa:778899";

  let events = Cluster.run cluster in
  Printf.printf "simulation: %d events, %.3f virtual seconds\n" events
    (Cluster.now cluster);
  Printf.printf "(server %d is corrupted and refused to sign anything)\n\n" byzantine;

  (* Every honest server assembled every certificate.  (With the
     multi-signature scheme the signature bytes may differ between servers —
     each assembles whichever k shares arrived first — but the set of signed
     statements must match.) *)
  let statements i = List.sort compare (List.map fst !(Hashtbl.find issued i)) in
  let reference = List.sort compare !(Hashtbl.find issued 0) in
  List.iter
    (fun i ->
      Printf.printf "server %d issued %d certificates\n" i
        (List.length (statements i));
      if statements i <> statements 0 then begin
        prerr_endline "certificate sets differ between honest servers!";
        exit 1
      end)
    [ 0; 1; 3 ];

  print_newline ();
  List.iter
    (fun (stmt, signature) ->
      let rt = Cluster.runtime cluster 0 in
      let pub = Tsig.public_of_secret rt.Runtime.keys.Dealer.bc_tsig in
      let ok = Tsig.verify pub ~ctx:"ca" ~signature stmt in
      Printf.printf "  %-55s  signature: %s\n" stmt
        (if ok then "VALID (under the group key)" else "INVALID");
      if not ok then exit 1)
    (List.rev reference);

  Printf.printf
    "\n%d certificates issued despite %d corrupted server(s); no t-coalition\n\
     holds the CA key - it exists only as threshold shares.\n"
    (List.length reference) 1
