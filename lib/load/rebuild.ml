(* Rebuild at the tip: the power-fail-and-restart scenario shared by
   `sintra_sim durability-check` and the durability bench. *)

open Sintra

type t = {
  cluster : Cluster.t;
  devs : Store.Device.t array;
  durs : Durable.t list array;
  mutable chans : Atomic_channel.t array;
  mutable deliveries : (int * string) list;
  mutable backlog_peak : int;
}

let create ?interval (c : Cluster.t) ~(pid : string) : t =
  let n = Cluster.n c in
  let r =
    { cluster = c; devs = Array.init n (fun _ -> Store.Device.mem ());
      durs = Array.make n []; chans = [||]; deliveries = []; backlog_peak = 0 }
  in
  let attach i =
    let rt = Cluster.runtime c i in
    let ch =
      Atomic_channel.create rt ~pid
        ~on_deliver:(fun ~sender m ->
          if i = 0 then r.deliveries <- (sender, m) :: r.deliveries)
        ()
    in
    Option.iter
      (fun interval ->
        let d = Durable.attach rt ~chan:ch ~pid ~dev:r.devs.(i) ~interval () in
        r.durs.(i) <- d :: r.durs.(i))
      interval;
    ch
  in
  r.chans <- Array.init n attach;
  for i = 0 to n - 1 do
    Runtime.on_rebuild (Cluster.runtime c i) (fun () -> r.chans.(i) <- attach i)
  done;
  r

let drive (r : t) ~(rounds : int) : int =
  let n = Cluster.n r.cluster in
  let events = ref 0 in
  for k = 0 to rounds - 1 do
    let p = k mod n in
    let payload = Printf.sprintf "p%d.m%d" p k in
    Cluster.inject r.cluster p (fun () -> Atomic_channel.send r.chans.(p) payload);
    events := !events + Cluster.run r.cluster;
    r.backlog_peak <- max r.backlog_peak (Atomic_channel.backlog_rounds r.chans.(0))
  done;
  !events

let victim (r : t) : int = Cluster.n r.cluster - 1

let power_fail (r : t) ~(wipe : bool) : int =
  let rt = Cluster.runtime r.cluster (victim r) in
  Runtime.crash rt;
  if wipe then Store.Device.rewrite r.devs.(victim r) "";
  Runtime.recover rt;
  Cluster.run r.cluster

let tip (r : t) (p : int) : int = Atomic_channel.current_round r.chans.(p)

let deliveries (r : t) : (int * string) list = List.rev r.deliveries
