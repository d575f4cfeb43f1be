(* Static group configuration.

   SINTRA's group model is static: n servers, at most t < n/3 corrupted, all
   keys dealt up front by a trusted dealer.  The real key sizes are
   constants of the dealer, small so runs stay fast; [model_rsa_bits] (with
   Charge's 1024/160-bit discrete-log constants) drives the virtual-time
   cost model, so experiments faithfully model 1024-bit keys (or sweep
   128..1024 as in Figure 6) while the real cryptography runs at a
   convenient size. *)

type tsig_scheme =
  | Shoup        (* proper RSA threshold signatures [Shoup, EUROCRYPT 2000] *)
  | Multi        (* vector of ordinary RSA signatures (Section 2.1) *)

type perm_mode =
  | Fixed           (* candidate order 1..n *)
  | Random_local    (* pseudo-random order derived from the protocol id *)

type t = {
  n : int;
  t : int;
  batch_size : int;          (* atomic broadcast batch (paper: t + 1) *)
  max_batch : int;           (* payloads per party per atomic round; 1 = unbatched *)
  pipeline_depth : int;      (* atomic rounds in flight concurrently; 1 = sequential *)
  tsig_scheme : tsig_scheme;
  perm_mode : perm_mode;
  model_rsa_bits : int;      (* modeled RSA size, for virtual-time cost accounting *)
  share_cache_cap : int;     (* bound on cached verified shares per party *)
}

let validate (c : t) : unit =
  if c.n < 3 * c.t + 1 then invalid_arg "Config: need n > 3t";
  (* Paper: batch = n - f + 1 with t+1 <= f <= n-t, i.e. t+1 <= B <= n-t;
     liveness needs B <= n - t (only n - t INITs are guaranteed). *)
  if c.batch_size < 1 || c.batch_size > c.n - c.t then
    invalid_arg "Config: batch size must satisfy 1 <= B <= n - t";
  if c.max_batch < 1 then invalid_arg "Config: max batch must be >= 1";
  if c.pipeline_depth < 1 then invalid_arg "Config: pipeline depth must be >= 1";
  if c.share_cache_cap < 1 then invalid_arg "Config: share cache cap must be >= 1";
  ()

(* Quorum sizes used throughout the protocols. *)
let echo_quorum (c : t) : int = (c.n + c.t + 2) / 2      (* ceil((n+t+1)/2) *)
let vote_quorum (c : t) : int = c.n - c.t
let ready_quorum (c : t) : int = (2 * c.t) + 1
let coin_threshold (c : t) : int = c.t + 1
let dec_threshold (c : t) : int = c.t + 1

(* The smallest set certain to contain an honest party: READY
   amplification, batch adoption, termination-request counting. *)
let one_honest (c : t) : int = c.t + 1

let make ?(batch_size : int option) ?(max_batch = 256) ?(pipeline_depth = 4)
    ?(tsig_scheme = Multi)
    ?(perm_mode = Fixed)
    ?(model_rsa_bits = 1024)
    ?(share_cache_cap = 4096)
    ~n ~t () : t =
  let batch_size = match batch_size with Some b -> b | None -> t + 1 in
  let c = {
    n; t; batch_size; max_batch; pipeline_depth;
    tsig_scheme; perm_mode; model_rsa_bits; share_cache_cap;
  }
  in
  validate c;
  c
