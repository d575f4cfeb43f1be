(* The seed-sweeping explorer: derive a schedule per seed, run the
   workload, check the oracles, and on failure shrink the schedule to a
   minimal failing mutation list (ddmin over the mutation list, re-running
   the deterministic workload per candidate).

   Everything is replayable: run k of a sweep uses run seed
   [base ^ "#" ^ k], the schedule DRBG is seeded ["sched|" ^ run_seed],
   and {!repro} prints the exact CLI line that re-executes one failing
   run with its (shrunk) schedule. *)

type runner = seed:string -> Schedule.t -> Oracle.obs

type fail = {
  oracle : string;
  reason : string;
}

type outcome = Clean | Failed of fail

(* First failing oracle wins, in suite order. *)
let check (oracles : Oracle.oracle list) (obs : Oracle.obs) : outcome =
  match
    List.find_map
      (fun o ->
        match o.Oracle.check obs with
        | Oracle.Pass -> None
        | Oracle.Fail why -> Some { oracle = o.Oracle.name; reason = why })
      oracles
  with
  | Some f -> Failed f
  | None -> Clean

let eval ~(runner : runner) ~(oracles : Oracle.oracle list) ~(seed : string)
    (sched : Schedule.t) : outcome =
  match runner ~seed sched with
  | obs -> check oracles obs
  | exception Sintra.Invariant.Violation why ->
    Failed { oracle = "invariant"; reason = why }
  | exception e -> Failed { oracle = "exception"; reason = Printexc.to_string e }

(* --- counterexample shrinking (ddmin over the mutation list) --- *)

let split_chunks (g : int) (l : 'a list) : 'a list list =
  let len = List.length l in
  let base = len / g and extra = len mod g in
  let rec go i rest acc =
    if i >= g then List.rev acc
    else
      let size = base + if i < extra then 1 else 0 in
      let rec take k l =
        if k = 0 then ([], l)
        else
          match l with
          | [] -> ([], [])
          | x :: r ->
            let taken, rest = take (k - 1) r in
            (x :: taken, rest)
      in
      let chunk, rest = take size rest in
      go (i + 1) rest (chunk :: acc)
  in
  go 0 l []

(* Minimize a failing schedule: a sub-list that still fails (with its
   possibly different failure) and the verification runs spent, at most
   [budget]. *)
let shrink ~(runner : runner) ~(oracles : Oracle.oracle list) ~(seed : string)
    ~(budget : int) (sched : Schedule.t) (orig : fail) :
    Schedule.t * fail * int =
  let runs = ref 0 in
  let fails (s : Schedule.t) : fail option =
    if !runs >= budget then None
    else begin
      incr runs;
      match eval ~runner ~oracles ~seed s with
      | Clean -> None
      | Failed f -> Some f
    end
  in
  match fails [] with
  | Some f -> ([], f, !runs)
  | None ->
    let rec go (current : Schedule.t) (cur : fail) (g : int) :
        Schedule.t * fail =
      let len = List.length current in
      if len <= 1 || !runs >= budget then (current, cur)
      else begin
        let g = min g len in
        let chunks = split_chunks g current in
        let rec try_without (before : Schedule.t list) (after : Schedule.t list)
            : (Schedule.t * fail) option =
          match after with
          | [] -> None
          | chunk :: rest ->
            let candidate = List.concat (List.rev_append before rest) in
            (match fails candidate with
             | Some f -> Some (candidate, f)
             | None -> try_without (chunk :: before) rest)
        in
        match try_without [] chunks with
        | Some (candidate, f) -> go candidate f (Stdlib.max (g - 1) 2)
        | None -> if g >= len then (current, cur) else go current cur (2 * g)
      end
    in
    let minimal, f = go sched orig 2 in
    (minimal, f, !runs)

(* --- the sweep --- *)

type failure = {
  index : int;
  run_seed : string;
  schedule : Schedule.t;
  outcome : fail;
  shrunk : Schedule.t;
  shrunk_outcome : fail;
  shrink_runs : int;
}

type report = {
  base_seed : string;
  runs : int;
  failures : failure list;
}

let run_seed_of ~(base : string) (k : int) : string =
  base ^ "#" ^ string_of_int k

let schedule_of ~(run_seed : string) ~(n : int) ~(max_faulty : int)
    ~(allow_equiv : bool) ~(allow_cert : bool) : Schedule.t =
  let drbg = Hashes.Drbg.create ~seed:("sched|" ^ run_seed) in
  Schedule.generate ~drbg ~n ~max_faulty ~allow_equiv ~allow_cert

let explore ?(progress : (int -> unit) option) ?(max_failures = 1)
    ?(shrink_budget = 200) ~(runner : runner)
    ~(oracles : Oracle.oracle list)
    ~(generate : run_seed:string -> Schedule.t) ~(seed : string)
    ~(seeds : int) () : report =
  let failures = ref [] in
  let n_failures = ref 0 in
  let runs = ref 0 in
  let k = ref 0 in
  let stop = ref false in
  while (not !stop) && !k < seeds do
    (match progress with Some f -> f !k | None -> ());
    let run_seed = run_seed_of ~base:seed !k in
    let sched = generate ~run_seed in
    incr runs;
    (match eval ~runner ~oracles ~seed:run_seed sched with
     | Clean -> ()
     | Failed f ->
       let shrunk, shrunk_outcome, shrink_runs =
         shrink ~runner ~oracles ~seed:run_seed ~budget:shrink_budget sched f
       in
       runs := !runs + shrink_runs;
       failures :=
         {
           index = !k;
           run_seed;
           schedule = sched;
           outcome = f;
           shrunk;
           shrunk_outcome;
           shrink_runs;
         }
         :: !failures;
       incr n_failures;
       if !n_failures >= max_failures then stop := true);
    incr k
  done;
  { base_seed = seed; runs = !runs; failures = List.rev !failures }

let repro ~(workload : Oracle.kind) ~(base_seed : string) (f : failure) :
    string =
  Printf.sprintf
    "sintra_sim explore --workload %s --seed %s --index %d --mutations '%s'"
    (Oracle.kind_to_string workload) base_seed f.index
    (Schedule.to_string f.shrunk)

(* --- Reports (sintra_sim explore, bench/main.exe vopr) --- *)

let schedule_text (s : Schedule.t) : string =
  match Schedule.to_string s with "" -> "(empty)" | s -> s

let failure_report ~(workload : Oracle.kind) ~(base_seed : string)
    (f : failure) : string =
  Printf.sprintf
    "seed #%d (%s): oracle=%s: %s\n  schedule: %s\n  shrunk (%d runs): %s -> \
     oracle=%s: %s\n  repro: %s\n"
    f.index f.run_seed f.outcome.oracle f.outcome.reason
    (schedule_text f.schedule) f.shrink_runs (schedule_text f.shrunk)
    f.shrunk_outcome.oracle f.shrunk_outcome.reason
    (repro ~workload ~base_seed f)

let obs_report (o : Oracle.obs) : string =
  let b = Buffer.create 1024 in
  let ints l = String.concat ";" (List.map string_of_int l) in
  Printf.bprintf b
    "  run: %d events, %.3f virtual seconds, quiesced=%b, degraded=[%s], \
     corrupted=[%s]\n  sent: %d\n"
    o.Oracle.events o.Oracle.vtime o.Oracle.quiesced (ints o.Oracle.degraded)
    (ints o.Oracle.corrupted) (List.length o.Oracle.sent);
  Array.iteri
    (fun p log ->
      let some label = function
        | Some v -> Printf.sprintf ", %s %s" label v
        | None -> ""
      in
      Printf.bprintf b "  party %d: %d delivered%s%s%s\n" p (List.length log)
        (some "decided" o.Oracle.decisions.(p))
        (some "proposed" o.Oracle.proposals.(p))
        (match o.Oracle.flagged.(p) with
         | [] -> ""
         | fl ->
           Printf.sprintf ", flagged [%s]"
             (String.concat "; "
                (List.map (fun (off, why) -> Printf.sprintf "%d: %s" off why) fl)));
      List.iter (fun (sender, m) -> Printf.bprintf b "    %d: %S\n" sender m) log)
    o.Oracle.delivered;
  Buffer.contents b

let replay ?(verbose = false) ~(runner : runner)
    ~(oracles : Oracle.oracle list) ~(generate : run_seed:string -> Schedule.t)
    ~(seed : string) ~(index : int) (mutations : Schedule.t option) :
    string * bool =
  let run_seed = run_seed_of ~base:seed index in
  let head, sched, prefix =
    match mutations with
    | Some sched ->
      let obs =
        if not verbose then ""
        else
          match runner ~seed:run_seed sched with
          | obs -> obs_report obs
          | exception e -> Printf.sprintf "  run raised: %s\n" (Printexc.to_string e)
      in
      (obs, sched,
       Printf.sprintf "replay %s [%s]: " run_seed (Schedule.to_string sched))
    | None ->
      let sched = generate ~run_seed in
      (Printf.sprintf "seed #%d (%s): schedule %s\n" index run_seed
         (schedule_text sched), sched, "")
  in
  match eval ~runner ~oracles ~seed:run_seed sched with
  | Clean -> (Printf.sprintf "%s%sclean\n" head prefix, true)
  | Failed f ->
    (Printf.sprintf "%s%sFAIL oracle=%s: %s\n" head prefix f.oracle f.reason, false)
