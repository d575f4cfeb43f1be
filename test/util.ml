(* Shared helpers for the test suites. *)

open Sintra

let default_topo ?(count = 4) () = Sim.Topology.uniform ~count ()

(* Dealers dominate test start-up cost; memoize clusters' key material by
   (seed, n, t, scheme). *)
let dealer_cache : (string, Dealer.t) Hashtbl.t = Hashtbl.create 8

let cluster ?(seed = "test") ?(n = 4) ?(t = 1) ?(tsig_scheme = Config.Multi)
    ?(perm_mode = Config.Fixed) ?batch_size ?max_batch ?pipeline_depth
    ?check_invariants ?share_cache_cap ?topo () : Cluster.t =
  let cfg =
    Config.test ~n ~t ~tsig_scheme ~perm_mode ?batch_size ?max_batch
      ?pipeline_depth ?check_invariants ?share_cache_cap ()
  in
  let topo = match topo with Some tp -> tp | None -> default_topo ~count:n () in
  let key =
    Printf.sprintf "%s|%d|%d|%s" seed n t
      (match tsig_scheme with Config.Shoup -> "shoup" | Config.Multi -> "multi")
  in
  match Hashtbl.find_opt dealer_cache key with
  | Some dealer ->
    let engine = Sim.Engine.create ~seed:("engine|" ^ seed) () in
    let net =
      Sim.Net.create ~engine ~topo ~mac_keys:(Dealer.net_mac_keys dealer)
    in
    let runtimes =
      Array.init n (fun i ->
        Runtime.create ~engine ~net ~cfg ~keys:dealer.Dealer.parties.(i))
    in
    { Cluster.engine; net; cfg; dealer; runtimes }
  | None ->
    let c = Cluster.create ~seed ~topo cfg in
    Hashtbl.replace dealer_cache key c.Cluster.dealer;
    c

let check_all_equal (name : string) (values : 'a list) : unit =
  match values with
  | [] -> ()
  | first :: rest ->
    List.iteri
      (fun i v ->
        if v <> first then
          Alcotest.failf "%s: party %d disagrees with party 0" name (i + 1))
      rest

let drbg ?(seed = "test-rng") () = Hashes.Drbg.create ~seed

(* A deterministic qcheck-friendly byte source. *)
let random_bytes ?(seed = "test-rng") () = Hashes.Drbg.random_bytes (drbg ~seed ())

(* --- generators for the crypto-equivalence harness (test_amortized) ---

   A batch plan is one randomized verification batch: a list of slot codes,
   0 for an honest share and 1..mutations for a forgery kind the consumer
   maps to a concrete bad share.  Drawing plans from a seeded drbg keeps
   the multi-hundred-case sweeps fully deterministic and reproducible. *)

(* Mixed accept/reject plans: about two thirds honest slots, so both batch
   verdicts stay populated across a sweep. *)
let batch_plans ~(drbg : Hashes.Drbg.t) ~(cases : int) ~(max_size : int)
    ~(mutations : int) : int list list =
  List.init cases (fun _ ->
    let size = 1 + Hashes.Drbg.int drbg max_size in
    List.init size (fun _ ->
      if Hashes.Drbg.int drbg 3 < 2 then 0
      else 1 + Hashes.Drbg.int drbg mutations))

(* Planted-forgery plans: every case plants at least one bad slot (plus a
   sprinkle more), so bisection always has indices to isolate. *)
let planted_plans ~(drbg : Hashes.Drbg.t) ~(cases : int) ~(max_size : int)
    ~(mutations : int) : int list list =
  List.init cases (fun _ ->
    let size = 1 + Hashes.Drbg.int drbg max_size in
    let forced = Hashes.Drbg.int drbg size in
    List.init size (fun i ->
      if i = forced || Hashes.Drbg.int drbg 4 = 0 then
        1 + Hashes.Drbg.int drbg mutations
      else 0))
