(* Adversarial schedules: a concrete, replayable list of mutations applied
   to one simulation run.

   A schedule is drawn up front from a per-run DRBG (so the whole run is a
   pure function of its seed), can be printed and re-parsed exactly (the
   counterexample-reproduction line), and can be shrunk by removing
   mutations.  Frame-indexed mutations count every message interception
   globally; link mutations count frames per directed pair; crash/recover
   are virtual-time events.  All numeric fields are integers (milliseconds
   for times) so the string round-trip is exact. *)

type mutation =
  | Delay_frame of int * int       (* global frame index, extra ms *)
  | Dup_frame of int               (* deliver the frame twice *)
  | Replay_frame of int * int      (* re-inject a copy after extra ms *)
  | Drop_link of int * int * int   (* src, dst, from the kth frame on the link *)
  | Crash_at of int * int          (* party, virtual ms *)
  | Recover_at of int * int        (* party, virtual ms *)
  | Byz_equivocate of int          (* party runs an equivocating harness *)
  | Byz_selective of int           (* party pseudo-randomly omits sends *)
  | Byz_cert of int                (* party forges ABA decision certificates *)

type t = mutation list

(* --- string codec (the --mutations syntax) --- *)

let mutation_to_string (m : mutation) : string =
  match m with
  | Delay_frame (f, ms) -> Printf.sprintf "delay@%d:%d" f ms
  | Dup_frame f -> Printf.sprintf "dup@%d" f
  | Replay_frame (f, ms) -> Printf.sprintf "replay@%d:%d" f ms
  | Drop_link (p, q, k) -> Printf.sprintf "drop@%d>%d:%d" p q k
  | Crash_at (p, ms) -> Printf.sprintf "crash@%d:%d" p ms
  | Recover_at (p, ms) -> Printf.sprintf "recover@%d:%d" p ms
  | Byz_equivocate p -> Printf.sprintf "byz@%d:equiv" p
  | Byz_selective p -> Printf.sprintf "byz@%d:sel" p
  | Byz_cert p -> Printf.sprintf "byz@%d:cert" p

let to_string (s : t) : string =
  String.concat "," (List.map mutation_to_string s)

let mutation_of_string (s : string) : mutation option =
  match String.index_opt s '@' with
  | None -> None
  | Some i ->
    let kind = String.sub s 0 i in
    let rest = String.sub s (i + 1) (String.length s - i - 1) in
    let two (sep : char) (str : string) : (string * string) option =
      match String.index_opt str sep with
      | None -> None
      | Some j ->
        Some
          ( String.sub str 0 j,
            String.sub str (j + 1) (String.length str - j - 1) )
    in
    let int2 (k : int -> int -> mutation) : mutation option =
      match two ':' rest with
      | None -> None
      | Some (a, b) ->
        (match (int_of_string_opt a, int_of_string_opt b) with
         | Some x, Some y -> Some (k x y)
         | _, _ -> None)
    in
    (match kind with
     | "delay" -> int2 (fun f ms -> Delay_frame (f, ms))
     | "dup" -> Option.map (fun f -> Dup_frame f) (int_of_string_opt rest)
     | "replay" -> int2 (fun f ms -> Replay_frame (f, ms))
     | "drop" ->
       (match two '>' rest with
        | None -> None
        | Some (p, qk) ->
          (match two ':' qk with
           | None -> None
           | Some (q, k) ->
             (match
                (int_of_string_opt p, int_of_string_opt q, int_of_string_opt k)
              with
              | Some p, Some q, Some k -> Some (Drop_link (p, q, k))
              | _, _, _ -> None)))
     | "crash" -> int2 (fun p ms -> Crash_at (p, ms))
     | "recover" -> int2 (fun p ms -> Recover_at (p, ms))
     | "byz" ->
       (match two ':' rest with
        | Some (p, "equiv") ->
          Option.map (fun p -> Byz_equivocate p) (int_of_string_opt p)
        | Some (p, "sel") ->
          Option.map (fun p -> Byz_selective p) (int_of_string_opt p)
        | Some (p, "cert") ->
          Option.map (fun p -> Byz_cert p) (int_of_string_opt p)
        | Some _ | None -> None)
     | _ -> None)

let of_string (s : string) : t option =
  let s = String.trim s in
  if s = "" then Some []
  else
    let rec go acc = function
      | [] -> Some (List.rev acc)
      | part :: rest ->
        (match mutation_of_string (String.trim part) with
         | Some m -> go (m :: acc) rest
         | None -> None)
    in
    go [] (String.split_on_char ',' s)

(* --- queries --- *)

let dedup_sorted (xs : int list) : int list = List.sort_uniq Int.compare xs

let degraded (s : t) : int list =
  dedup_sorted
    (List.filter_map
       (fun m ->
         match m with
         | Drop_link (p, _, _) | Crash_at (p, _) | Byz_equivocate p
         | Byz_selective p | Byz_cert p ->
           Some p
         | Delay_frame _ | Dup_frame _ | Replay_frame _ | Recover_at _ -> None)
       s)

let equivocators (s : t) : int list =
  dedup_sorted
    (List.filter_map
       (fun m -> match m with Byz_equivocate p -> Some p | _ -> None)
       s)

let forgers (s : t) : int list =
  dedup_sorted
    (List.filter_map
       (fun m -> match m with Byz_cert p -> Some p | _ -> None)
       s)

let selective (s : t) : int list =
  dedup_sorted
    (List.filter_map
       (fun m -> match m with Byz_selective p -> Some p | _ -> None)
       s)

let crashes (s : t) : (int * float) list =
  List.filter_map
    (fun m ->
      match m with
      | Crash_at (p, ms) -> Some (p, float_of_int ms /. 1000.0)
      | _ -> None)
    s

let recovers (s : t) : (int * float) list =
  List.filter_map
    (fun m ->
      match m with
      | Recover_at (p, ms) -> Some (p, float_of_int ms /. 1000.0)
      | _ -> None)
    s

(* --- generation --- *)

(* Draw [k] distinct party indices < n. *)
let distinct_parties (drbg : Hashes.Drbg.t) ~(n : int) (k : int) : int list =
  let picked = ref [] in
  let tries = ref 0 in
  while List.length !picked < k && !tries < 64 do
    incr tries;
    let p = Hashes.Drbg.int drbg n in
    if not (List.mem p !picked) then picked := p :: !picked
  done;
  List.rev !picked

let generate ~(drbg : Hashes.Drbg.t) ~(n : int) ~(max_faulty : int)
    ~(allow_equiv : bool) ~(allow_cert : bool) : t =
  (* Benign scheduling noise first: it may hit any frame because it never
     destroys a message, so every liveness guarantee survives it. *)
  let n_benign = Hashes.Drbg.int drbg 9 in
  let benign = ref [] in
  for _ = 1 to n_benign do
    let frame = Hashes.Drbg.int drbg 400 in
    let ms = 1 + Hashes.Drbg.int drbg 4000 in
    let m =
      match Hashes.Drbg.int drbg 3 with
      | 0 -> Delay_frame (frame, ms)
      | 1 -> Dup_frame frame
      | _ -> Replay_frame (frame, ms)
    in
    benign := m :: !benign
  done;
  (* Destructive behaviour is confined to a "degraded" set of at most
     [max_faulty] parties, so the protocols' fault bound t is respected and
     the oracles can reason about the never-degraded majority. *)
  let n_deg = Hashes.Drbg.int drbg (max_faulty + 1) in
  let deg = distinct_parties drbg ~n n_deg in
  let destructive =
    List.concat_map
      (fun p ->
        match
          Hashes.Drbg.int drbg
            (if allow_cert then 6 else if allow_equiv then 5 else 4)
        with
        | 0 ->
          (* crash forever *)
          [ Crash_at (p, 100 + Hashes.Drbg.int drbg 20000) ]
        | 1 ->
          (* crash then recover *)
          let at = 100 + Hashes.Drbg.int drbg 15000 in
          let back = at + 100 + Hashes.Drbg.int drbg 15000 in
          [ Crash_at (p, at); Recover_at (p, back) ]
        | 2 ->
          (* link failure: silently lose this party's frames to one peer *)
          let q = (p + 1 + Hashes.Drbg.int drbg (n - 1)) mod n in
          [ Drop_link (p, q, Hashes.Drbg.int drbg 12) ]
        | 3 -> [ Byz_selective p ]
        | 4 -> [ Byz_equivocate p ]
        | _ -> [ Byz_cert p ])
      deg
  in
  List.rev_append !benign destructive

(* --- application to a cluster --- *)

let arm (c : Sintra.Cluster.t) ~(run_seed : string) (s : t) : unit =
  List.iter
    (fun (p, at) ->
      Sintra.Cluster.at c ~time:at (fun () -> Sintra.Cluster.crash c p))
    (crashes s);
  List.iter
    (fun (p, at) ->
      Sintra.Cluster.at c ~time:at (fun () -> Sintra.Cluster.recover c p))
    (recovers s);
  let delay_ms : (int, int) Hashtbl.t = Hashtbl.create 8 in
  let dup : (int, unit) Hashtbl.t = Hashtbl.create 8 in
  let replay_ms : (int, int) Hashtbl.t = Hashtbl.create 8 in
  let drop_from : (int * int, int) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun m ->
      match m with
      | Delay_frame (f, ms) ->
        if not (Hashtbl.mem delay_ms f) then Hashtbl.replace delay_ms f ms
      | Dup_frame f -> Hashtbl.replace dup f ()
      | Replay_frame (f, ms) ->
        if not (Hashtbl.mem replay_ms f) then Hashtbl.replace replay_ms f ms
      | Drop_link (p, q, k) ->
        let k' =
          match Hashtbl.find_opt drop_from (p, q) with
          | Some k0 -> min k0 k
          | None -> k
        in
        Hashtbl.replace drop_from (p, q) k'
      | Crash_at _ | Recover_at _ | Byz_equivocate _ | Byz_selective _
      | Byz_cert _ -> ())
    s;
  (* Each selectively-sending party omits roughly a third of its frames,
     chosen by a DRBG derived from the run seed — deterministic, and
     independent of the schedule-generation draws so a parsed --mutations
     list replays identically. *)
  let sel : (int, Hashes.Drbg.t) Hashtbl.t = Hashtbl.create 4 in
  List.iter
    (fun p ->
      Hashtbl.replace sel p
        (Hashes.Drbg.create ~seed:(Printf.sprintf "sel|%s|%d" run_seed p)))
    (selective s);
  let frame = ref 0 in
  let link_count : (int * int, int) Hashtbl.t = Hashtbl.create 16 in
  Sintra.Cluster.set_intercept c (fun ~src ~dst _payload ->
    let f = !frame in
    incr frame;
    let lk =
      match Hashtbl.find_opt link_count (src, dst) with Some k -> k | None -> 0
    in
    Hashtbl.replace link_count (src, dst) (lk + 1);
    let link_dropped =
      match Hashtbl.find_opt drop_from (src, dst) with
      | Some k -> lk >= k
      | None -> false
    in
    let sel_dropped =
      match Hashtbl.find_opt sel src with
      | Some d -> Hashes.Drbg.int d 3 = 0
      | None -> false
    in
    if link_dropped || sel_dropped then Sim.Net.Drop
    else
      match Hashtbl.find_opt delay_ms f with
      | Some ms -> Sim.Net.Delay (float_of_int ms /. 1000.0)
      | None ->
        (match Hashtbl.find_opt replay_ms f with
         | Some ms -> Sim.Net.Replay (float_of_int ms /. 1000.0)
         | None -> if Hashtbl.mem dup f then Sim.Net.Duplicate else Sim.Net.Deliver))
