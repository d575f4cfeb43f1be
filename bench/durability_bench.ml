(* Rebuild-at-tip cost at growing history lengths: what does it take to
   bring a party back after a power failure?

   Three recovery modes per history length H:

     replay-full   no checkpoints (interval > H): the WAL holds every
                   round record, so the restart re-validates and re-feeds
                   all H rounds — cost grows with the history.
     replay-ckpt   checkpoints every [interval] rounds, device intact:
                   compaction left a verified snapshot plus at most an
                   interval-sized tail, so replay cost is O(interval).
     snapshot      checkpoints on, device WIPED: nothing to replay — the
                   restart adopts a certificate-verified peer snapshot and
                   pulls the tail over the storage plane.

   The shape to check (EXPERIMENTS.md): replay-full scales linearly in H;
   the two checkpointed modes stay flat.  Rendered as the durability
   artifact, whose floors hold each mode's replay and adoption counts. *)

open Sintra

let interval = 32
let seed = "bench-durability"

type row = {
  history : int;
  mode : string;
  rebuild_ms : float;
  rebuild_events : int;
  log_bytes : int;           (* victim's WAL size at the moment of the crash *)
  replayed : int;
  adopted : int;
}

(* Drive H one-payload rounds to quiescence, power-fail the last party
   (optionally wiping its device), restart it and drain the recovery,
   returning the rebuild measurements.  Mirrors `sintra_sim
   durability-check`, which gates correctness; here we only time it. *)
let rebuild ~(seed : string) ~(history : int) ~(ckpt_interval : int)
    ~(wipe : bool) ~(mode : string) : row =
  let n = 4 and t = 1 in
  let cfg = Experiments.bench_cfg ~n ~t () in
  let topo = Sim.Topology.lan in
  let c = Experiments.make_cluster ~seed:(seed ^ "|" ^ mode) ~topo cfg in
  let devs = Array.init n (fun _ -> Store.Device.mem ()) in
  let durs : Durable.t list ref array = Array.init n (fun _ -> ref []) in
  let chans : Atomic_channel.t option array = Array.make n None in
  let make_party i =
    let rt = Cluster.runtime c i in
    let ch =
      Atomic_channel.create rt ~pid:"dbench" ~on_deliver:(fun ~sender:_ _ -> ()) ()
    in
    let d =
      Durable.attach rt ~chan:ch ~pid:"dbench" ~dev:devs.(i)
        ~interval:ckpt_interval ()
    in
    durs.(i) := d :: !(durs.(i));
    chans.(i) <- Some ch
  in
  for i = 0 to n - 1 do
    make_party i;
    Runtime.on_rebuild (Cluster.runtime c i) (fun () -> make_party i)
  done;
  for k = 0 to history - 1 do
    let p = k mod n in
    let payload = Printf.sprintf "p%d.m%d" p k in
    Cluster.inject c p (fun () ->
      match chans.(p) with
      | Some ch -> Atomic_channel.send ch payload
      | None -> ());
    ignore (Cluster.run c)
  done;
  let victim = n - 1 in
  let log_bytes = Store.Device.size devs.(victim) in
  let t0 = Unix.gettimeofday () in
  Runtime.crash (Cluster.runtime c victim);
  if wipe then Store.Device.rewrite devs.(victim) "";
  Runtime.recover (Cluster.runtime c victim);
  let rebuild_events = Cluster.run c in
  let rebuild_ms = 1000.0 *. (Unix.gettimeofday () -. t0) in
  let newest =
    match !(durs.(victim)) with
    | d :: _ -> d
    | [] -> failwith "durability bench: victim never rebuilt"
  in
  let tip p =
    match chans.(p) with Some ch -> Atomic_channel.current_round ch | None -> 0
  in
  if tip victim < tip 0 then
    failwith
      (Printf.sprintf "durability bench [%s H=%d]: rebuilt party stopped at \
                       round %d, cluster is at %d"
         mode history (tip victim) (tip 0));
  { history; mode; rebuild_ms; rebuild_events; log_bytes;
    replayed = Durable.replayed_rounds newest;
    adopted = Durable.snapshots_adopted newest }

let run ~(quick : bool) () : string =
  (* H must exceed the interval: at H <= interval the GC floor is still 0,
     peers retain the whole history, and a wiped restart is (correctly)
     served plain DECIDED catch-up rather than a snapshot. *)
  let lengths = if quick then [ 64; 128; 256 ] else [ 256; 512; 1024 ] in
  Printf.printf
    "=== Durability: rebuild-at-tip, replay vs snapshot (interval %d) ===\n\n"
    interval;
  Printf.printf "  %8s  %-12s %11s %9s %9s %9s %8s\n" "history" "mode"
    "rebuild ms" "events" "log B" "replayed" "adopted";
  let rows =
    List.concat_map
      (fun history ->
        let modes =
          [ ("replay-full", history + 1, false);
            ("replay-ckpt", interval, false);
            ("snapshot", interval, true) ]
        in
        List.map
          (fun (mode, ckpt_interval, wipe) ->
            let r = rebuild ~seed ~history ~ckpt_interval ~wipe ~mode in
            Printf.printf "  %8d  %-12s %11.1f %9d %9d %9d %8d\n%!" r.history
              r.mode r.rebuild_ms r.rebuild_events r.log_bytes r.replayed
              r.adopted;
            r)
          modes)
      lengths
  in
  Load.Artifact.render ~name:"durability" ~seed ~smoke:quick
    [ ("checkpoint_interval", string_of_int interval);
      ( "rows",
        Load.Artifact.rows
          (List.map
             (fun (r : row) ->
               Printf.sprintf
                 "{\"history\": %d, \"mode\": \"%s\", \"rebuild_ms\": %.2f, \
                  \"rebuild_events\": %d, \"log_bytes\": %d, \
                  \"replayed_rounds\": %d, \"snapshots_adopted\": %d}"
                 r.history r.mode r.rebuild_ms r.rebuild_events r.log_bytes
                 r.replayed r.adopted)
             rows) ) ]
