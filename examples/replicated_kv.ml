(* A replicated key-value store on top of SINTRA's atomic broadcast — the
   state-machine replication pattern of Section 2.5.

   Each replica applies SET/DEL commands in atomic delivery order, so all
   honest replicas hold byte-identical state although commands arrive from
   different frontends concurrently and one replica actively lies on the
   network (its forged frontend commands carry bad signatures and are
   filtered by the protocol).  Sintra.Service does the replication: it
   owns each replica's atomic channel, applies requests exactly once in
   delivery order, and keeps the store as an immutable map.

     dune exec examples/replicated_kv.exe *)

open Sintra

type command =
  | Set of string * string
  | Del of string

let encode_command = function
  | Set (k, v) -> Wire.encode (fun b -> Wire.Enc.u8 b 0; Wire.Enc.bytes b k; Wire.Enc.bytes b v)
  | Del k -> Wire.encode (fun b -> Wire.Enc.u8 b 1; Wire.Enc.bytes b k)

let decode_command s =
  Wire.decode s (fun d ->
    match Wire.Dec.u8 d with
    | 0 ->
      let k = Wire.Dec.bytes d in
      let v = Wire.Dec.bytes d in
      Set (k, v)
    | 1 -> Del (Wire.Dec.bytes d)
    | t -> Wire.fail "bad command tag %d" t)

module Kv = Map.Make (String)

(* The service's deterministic transition: the store is an immutable map,
   and the reply is the key's previous value ("" if unset).  A request
   that does not decode leaves the store as it is. *)
let apply (store : string Kv.t) (request : string) : string Kv.t * string =
  match decode_command request with
  | Some (Set (k, v)) ->
    (Kv.add k v store, Option.value ~default:"" (Kv.find_opt k store))
  | Some (Del k) ->
    (Kv.remove k store, Option.value ~default:"" (Kv.find_opt k store))
  | None -> (store, "")

let fingerprint (store : string Kv.t) : string =
  Kv.bindings store
  |> List.map (fun (k, v) -> k ^ "=" ^ v)
  |> String.concat ";"
  |> Hashes.Sha256.digest
  |> Hashes.Sha256.hex_of_digest

let () =
  let n = 4 in
  let cfg = Config.make ~n ~t:1 () in
  let topo = Sim.Topology.uniform ~count:n () in
  let cluster = Cluster.create ~seed:"kv-store" ~topo cfg in

  (* One service replica per party: each runs its own atomic channel
     endpoint and applies the delivered requests in order. *)
  let replicas =
    Array.init n (fun i ->
      Service.create (Cluster.runtime cluster i) ~pid:"kv" ~init:Kv.empty
        ~apply)
  in

  (* Frontends submit workloads through different replicas, concurrently. *)
  let submit replica cmd =
    Cluster.inject cluster replica (fun () ->
      ignore (Service.submit replicas.(replica) (encode_command cmd)))
  in
  submit 0 (Set ("user:1", "alice"));
  submit 1 (Set ("user:2", "bob"));
  submit 2 (Set ("user:1", "ALICE"));   (* conflicting write: order decides *)
  submit 0 (Set ("balance:1", "100"));
  submit 1 (Del "user:2");
  submit 2 (Set ("balance:1", "250"));
  submit 0 (Set ("user:3", "carol"));

  (* Replica 3 is corrupted: it floods the channel pid with junk that must
     be ignored by everyone. *)
  Cluster.inject cluster 3 (fun () ->
    let rt = Cluster.runtime cluster 3 in
    for dst = 0 to n - 1 do
      Runtime.send rt ~dst ~pid:"kv" "totally bogus protocol message";
      Runtime.send rt ~dst ~pid:"kv"
        (Wire.encode (fun b ->
           Wire.Enc.u8 b 0;
           Wire.Enc.int b 0;
           Wire.Enc.int b 0;
           Wire.Enc.int b 99;
           Wire.Enc.bytes b "\x01forged";
           Wire.Enc.int b 3;
           Wire.Enc.bytes b "not a signature"))
    done);

  let events = Cluster.run cluster in
  Printf.printf "simulation: %d events, %.3f virtual seconds\n\n"
    events (Cluster.now cluster);

  Array.iteri
    (fun i r ->
      Printf.printf "replica %d: applied=%d fingerprint=%s%s\n" i
        (Service.executed r)
        (String.sub (fingerprint (Service.state r)) 0 16)
        (if i = 3 then "  (corrupted node - ran protocol but its junk was dropped)" else ""))
    replicas;

  let fps =
    Array.to_list (Array.map (fun r -> fingerprint (Service.state r)) replicas)
  in
  (match fps with
   | f :: rest when List.for_all (( = ) f) rest ->
     print_endline "\nall replicas converged to identical state."
   | _ ->
     prerr_endline "replica divergence - impossible under n > 3t";
     exit 1);

  (* Read back through any replica. *)
  Printf.printf "\nfinal store (via replica 1):\n";
  Kv.iter
    (fun k v -> Printf.printf "  %-10s -> %s\n" k v)
    (Service.state replicas.(1))
