(* The correctness gate every run passes through.

   - Party 0 never fails; its delivery sequence is the reference.
   - Every other party that never failed delivers exactly the reference.
   - A power-failed party's first incarnation delivers a prefix of the
     reference, and each restarted incarnation a tail of it in the same
     order: it may replay rounds from its log, or skip rounds by adopting a
     certified snapshot, but never reorders, invents or stops short.
   - No incarnation delivers a payload twice.
   - Every issued request is delivered exactly once in the reference and
     exactly once at its issuer.

   Sequences come in the shape [Workload.sequences] returns: per party, a
   list of incarnations, oldest first. *)

type seqs = (float * string) array list array

let payloads (a : (float * string) array) : string array = Array.map snd a

let counts (a : string array) : (string, int) Hashtbl.t =
  let h = Hashtbl.create (Array.length a) in
  Array.iter
    (fun x ->
      Hashtbl.replace h x (1 + Option.value (Hashtbl.find_opt h x) ~default:0))
    a;
  h

let count (h : (string, int) Hashtbl.t) (x : string) : int =
  Option.value (Hashtbl.find_opt h x) ~default:0

let is_prefix (r : string array) (a : string array) : bool =
  Array.length a <= Array.length r && Array.sub r 0 (Array.length a) = a

(* A restarted party's deliveries: in the reference's order, possibly with
   gaps (rounds a certified snapshot carried it past), and reaching the
   reference's last delivery. *)
let ordered_tail (r : string array) (a : string array) : bool =
  let pos = Hashtbl.create (Array.length r) in
  Array.iteri (fun i x -> Hashtbl.replace pos x i) r;
  let prev = ref (-1) in
  Array.for_all
    (fun x ->
      match Hashtbl.find_opt pos x with
      | Some i when i > !prev ->
        prev := i;
        true
      | _ -> false)
    a
  && Array.length a > 0
  && !prev = Array.length r - 1

(* The requests delivered exactly once in the reference and exactly once
   at their issuer's newest incarnation (party 0's, for a request issued by
   the failed party), mapped to their delivery instant there. *)
let passed_requests ~(issued_by : (string, int) Hashtbl.t)
    ~(victim : int option) (s : seqs) : (string, float) Hashtbl.t =
  let newest =
    Array.map (fun incs -> match List.rev incs with a :: _ -> a | [] -> [||]) s
  in
  let reference = counts (payloads newest.(0)) in
  let tallies = Array.map (fun a -> counts (payloads a)) newest in
  let first_at =
    Array.map
      (fun a ->
        let h = Hashtbl.create (Array.length a) in
        Array.iter (fun (t, x) -> if not (Hashtbl.mem h x) then Hashtbl.add h x t) a;
        h)
      newest
  in
  let ok = Hashtbl.create (Hashtbl.length issued_by) in
  Hashtbl.iter
    (fun marker party ->
      let home = if Some party = victim then 0 else party in
      if count reference marker = 1 && count tallies.(home) marker = 1 then
        Hashtbl.replace ok marker (Hashtbl.find first_at.(home) marker))
    issued_by;
  ok

let check ~(issued_by : (string, int) Hashtbl.t) ~(victim : int option)
    (s : seqs) : string list =
  let errs = ref [] in
  let fail fmt = Printf.ksprintf (fun m -> errs := m :: !errs) fmt in
  (match s.(0) with
   | [ r ] ->
     let r = payloads r in
     Array.iteri
       (fun p incs ->
         List.iteri
           (fun k inc ->
             let a = payloads inc in
             if Hashtbl.length (counts a) <> Array.length a then
               fail "party %d incarnation %d delivered a payload twice" p k;
             if p > 0 then
               match (Some p = victim, k) with
               | false, 0 ->
                 if a <> r then
                   fail "party %d diverged from party 0 (%d vs %d deliveries)"
                     p (Array.length a) (Array.length r)
               | false, _ -> fail "party %d restarted but never failed" p
               | true, 0 ->
                 if not (is_prefix r a) then
                   fail "party %d's sequence before the crash is not a prefix \
                         of party 0's" p
               | true, _ ->
                 if not (ordered_tail r a) then
                   fail "party %d's sequence after restart %d is not an \
                         ordered tail of party 0's" p k)
           incs)
       s
   | _ -> fail "party 0 must have exactly one incarnation");
  let bad =
    Hashtbl.length issued_by
    - Hashtbl.length (passed_requests ~issued_by ~victim s)
  in
  if bad > 0 then
    fail "%d issued requests were not delivered exactly once at their issuer"
      bad;
  List.rev !errs

(* The gate's self-check: the same sequences with two deliveries swapped at
   the last party.  The gate must reject it. *)
let plant_divergence (s : seqs) : seqs =
  let s = Array.map (List.map Array.copy) s in
  let last = Array.length s - 1 in
  (match s.(last) with
   | inc :: _ when Array.length inc >= 2 ->
     let x = inc.(0) in
     inc.(0) <- inc.(1);
     inc.(1) <- x
   | _ -> ());
  s
