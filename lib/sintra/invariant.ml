(* Runtime protocol-invariant checker.

   SINTRA's guarantees rest on mechanical discipline the type system cannot
   see: quorum arithmetic (n > 3t, thresholds t+1, n-t, ceil((n+t+1)/2)),
   one vote per sender per round, 1-based share indices in [1, n].  The
   protocol handlers call into this module, so every simulation doubles as
   an invariant audit.

   Two severities, because the two failure modes mean different things:

   - a *local* invariant violation (double-counting a sender, an
     out-of-range index reaching a tally, broken quorum arithmetic) is a bug
     in THIS party's code: [require] raises {!Violation} immediately;
   - *remote* misbehaviour (an equivocating pre-vote, a conflicting INIT)
     is exactly what a Byzantine peer is allowed to attempt; the protocols
     must tolerate it, so [flag] records the evidence — offender and
     description — for tests and operators to inspect, and execution
     continues. *)

exception Violation of string

type t = {
  cfg : Config.t;
  mutable flags : (int * string) list;     (* offender, description; newest first *)
}

(* The checks run on every protocol message, so each formats its message
   only on failure. *)
let violated fmt =
  Printf.ksprintf (fun what -> raise (Violation ("invariant violated: " ^ what))) fmt

let require (cond : bool) (what : string) : unit =
  if not cond then violated "%s" what

(* The quorum arithmetic every protocol assumes; checked once per runtime. *)
let check_quorums (cfg : Config.t) : unit =
  let n = cfg.Config.n and t = cfg.Config.t in
  require (n >= 3 * t + 1) "resilience: need n > 3t";
  let echo = Config.echo_quorum cfg in
  let vote = Config.vote_quorum cfg in
  let ready = Config.ready_quorum cfg in
  let coin = Config.coin_threshold cfg in
  let dec = Config.dec_threshold cfg in
  require (echo = (n + t + 2) / 2) "echo quorum is ceil((n+t+1)/2)";
  require (vote = n - t) "vote quorum is n-t";
  require (ready = 2 * t + 1) "ready quorum is 2t+1";
  require (coin = t + 1 && dec = t + 1) "coin/decryption thresholds are t+1";
  (* Intersection properties the proofs rely on. *)
  require (2 * echo - n >= t + 1)
    "two echo quorums intersect in t+1 parties (consistency)";
  require (2 * vote - n >= t + 1)
    "two vote quorums intersect in an honest party (agreement)";
  require (vote >= echo) "every vote quorum contains an echo quorum";
  require (coin <= n - t) "t+1 coin shares are guaranteed from honest parties"

let create (cfg : Config.t) : t =
  check_quorums cfg;
  { cfg; flags = [] }

let sender_in_range (inv : t) (src : int) : unit =
  let n = inv.cfg.Config.n in
  if src < 0 || src >= n then violated "sender index %d outside [0, %d)" src n

let share_index (inv : t) (origin : int) : unit =
  let n = inv.cfg.Config.n in
  if origin < 1 || origin > n then violated "share index %d outside [1, %d]" origin n

(* One vote per sender: call immediately before [Hashtbl.add]ing a tally
   keyed by sender — a duplicate key there means this party's dedup logic
   failed, not that the peer misbehaved. *)
let fresh_sender (inv : t) (tbl : (int, 'a) Hashtbl.t) (src : int)
    (what : string) : unit =
  sender_in_range inv src;
  if Hashtbl.mem tbl src then violated "duplicate sender %d in %s" src what;
  let n = inv.cfg.Config.n in
  if Hashtbl.length tbl >= n then
    violated "%s already holds %d entries (n = %d)" what (Hashtbl.length tbl) n

let flag (inv : t) ~(offender : int) (what : string) : unit =
  inv.flags <- (offender, what) :: inv.flags

let flagged (inv : t) : (int * string) list = List.rev inv.flags
