(* Static group configuration.

   SINTRA's group model is static: n servers, at most t < n/3 corrupted, all
   keys dealt up front by a trusted dealer.  [actual] key sizes are what the
   OCaml crypto really computes with (tests keep them small for speed);
   [model] key sizes drive the virtual-time cost model, so experiments can
   faithfully model 1024-bit keys (or sweep 128..1024 as in Figure 6)
   while the underlying — real — cryptography runs at a convenient size. *)

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
  (* actual cryptographic sizes *)
  rsa_bits : int;            (* per-party signing keys and multi-signatures *)
  tsig_bits : int;           (* Shoup threshold-signature modulus *)
  dl_pbits : int;            (* discrete-log field prime *)
  dl_qbits : int;            (* discrete-log subgroup order *)
  (* modeled sizes, for virtual-time cost accounting *)
  model_rsa_bits : int;
  model_dl_pbits : int;
  model_dl_qbits : int;
  (* Run the Invariant checker inside the protocol handlers: local protocol
     invariants (quorum arithmetic, index ranges, no duplicate senders)
     raise, remote misbehaviour (equivocation) is recorded for inspection.
     Off by default; the simulator and the fault tests switch it on. *)
  check_invariants : bool;
  (* Charge virtual CPU for the multi-exponentiation / fixed-base fast path
     the real bignum layer always uses (Nat.powmod2, Nat.Fixed_base); when
     off, every operation is priced as a plain square-and-multiply
     exponentiation, as in the paper's cost tables.  On by default;
     `sintra_sim run --no-fast-path` and the benchmarks can switch it off
     to measure what the fast path buys. *)
  crypto_fast_path : bool;
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

(* Default: real crypto at modest sizes, cost model at the paper's 1024-bit
   RSA / 1024-bit p with 160-bit q. *)
let make ?(batch_size : int option) ?(max_batch = 256) ?(pipeline_depth = 4)
    ?(tsig_scheme = Multi)
    ?(perm_mode = Fixed)
    ?(rsa_bits = 512) ?(tsig_bits = 512) ?(dl_pbits = 512) ?(dl_qbits = 160)
    ?(model_rsa_bits = 1024) ?(model_dl_pbits = 1024) ?(model_dl_qbits = 160)
    ?(check_invariants = false) ?(crypto_fast_path = true)
    ?(share_cache_cap = 4096)
    ~n ~t () : t =
  let batch_size = match batch_size with Some b -> b | None -> t + 1 in
  let c = {
    n; t; batch_size; max_batch; pipeline_depth;
    tsig_scheme; perm_mode;
    rsa_bits; tsig_bits; dl_pbits; dl_qbits;
    model_rsa_bits; model_dl_pbits; model_dl_qbits;
    check_invariants; crypto_fast_path; share_cache_cap;
  }
  in
  validate c;
  c

(* A small fast configuration for unit tests: tiny real keys. *)
let test ?(n = 4) ?(t = 1) ?(tsig_scheme = Multi) ?(perm_mode = Fixed)
    ?(batch_size : int option) ?max_batch ?pipeline_depth
    ?check_invariants ?crypto_fast_path ?share_cache_cap () : t =
  make ?batch_size ?max_batch ?pipeline_depth
    ?check_invariants ?crypto_fast_path ?share_cache_cap ~tsig_scheme
    ~perm_mode ~rsa_bits:256 ~tsig_bits:256 ~dl_pbits:256 ~dl_qbits:96 ~n ~t ()
