(* Virtual-CPU charging for cryptographic operations.

   The protocols run real cryptography at the dealer's small key sizes, but
   the simulated clock advances according to the modeled key sizes, so
   the experiments reproduce the paper's 1024-bit setting (and Figure 6's
   key-size sweep) regardless of how big the test keys really are.

   Operation counts (exponentiations, by exponent size) are written out per
   scheme below; Cost converts them to milliseconds using the host's
   calibrated 1024-bit exp time. *)

type t = {
  meter : Sim.Cost.meter;
  cfg : Config.t;
  trace : Trace.Ctx.t;
}

let exp (c : t) ~mod_bits ~exp_bits = Sim.Cost.exp c.meter ~mod_bits ~exp_bits
let full (c : t) ~bits = Sim.Cost.exp_full c.meter ~bits
let exp2 (c : t) ~mod_bits ~exp_bits = Sim.Cost.exp2 c.meter ~mod_bits ~exp_bits
let fixed (c : t) ~mod_bits ~exp_bits = Sim.Cost.exp_fixed c.meter ~mod_bits ~exp_bits

(* With [cfg.crypto_fast_path] the per-scheme operation counts below follow
   the real implementations exactly: powers of a base with a precomputed
   window table (the group generator, verification keys, public keys)
   charge [fixed]; the paired commitment recomputations of the DLEQ /
   Shoup proofs charge one [exp2] instead of two [exp]s; powers of
   message-dependent bases stay plain [exp]s.  Off, every operation is a
   plain exponentiation — the paper's accounting. *)
let fast (c : t) = c.cfg.Config.crypto_fast_path

(* Record [f]'s work as a span on the party's "crypto" pseudo-thread.  The
   virtual clock does not advance inside a handler, so the span is anchored
   at the current time plus the CPU milliseconds already charged in this
   step — an approximation of where in the step the operation runs, exact
   in total width.  Costs nothing when the sink is null. *)
let spanned (c : t) (name : string) (f : unit -> unit) : unit =
  if Trace.Ctx.enabled c.trace then begin
    let t0 = Trace.Ctx.now c.trace in
    let before = c.meter.Sim.Cost.charged_ms in
    Trace.Ctx.emit_at c.trace
      ~time:(t0 +. (before /. 1000.0))
      ~pid:"crypto" ~cat:"crypto" ~ph:Trace.Event.Span_begin name;
    f ();
    let after = c.meter.Sim.Cost.charged_ms in
    Trace.Ctx.emit_at c.trace
      ~time:(t0 +. (after /. 1000.0))
      ~pid:"crypto" ~cat:"crypto" ~ph:Trace.Event.Span_end
      ~args:[ ("ms", Trace.Event.Float (after -. before)) ]
      name
  end
  else f ()

(* --- ordinary RSA signatures (atomic broadcast INITs, multi-signatures) --- *)

let rsa_sign (c : t) =
  spanned c "rsa_sign" (fun () ->
    Sim.Cost.rsa_sign c.meter ~bits:c.cfg.Config.model_rsa_bits)

let rsa_verify (c : t) =
  spanned c "rsa_verify" (fun () ->
    Sim.Cost.rsa_verify c.meter ~bits:c.cfg.Config.model_rsa_bits)

(* --- threshold signatures --- *)

(* Shoup release: x_i = x^{2 Delta s_i} (full-size exponent), x~ (tiny),
   plus the correctness proof's two commitments with an exponent ~ |n|+512
   bits.  Fast path: the v-commitment v^r hits v's fixed-base table; the
   x~-commitment has a message-dependent base and stays plain.  Multi
   release: one CRT RSA signature. *)
let tsig_release (c : t) =
  spanned c "tsig_release" (fun () ->
    match c.cfg.Config.tsig_scheme with
    | Config.Multi -> rsa_sign c
    | Config.Shoup ->
      let b = c.cfg.Config.model_rsa_bits in
      full c ~bits:b;
      if fast c then begin
        fixed c ~mod_bits:b ~exp_bits:(b + 512);
        exp c ~mod_bits:b ~exp_bits:(b + 512)
      end
      else begin
        exp c ~mod_bits:b ~exp_bits:(b + 512);
        exp c ~mod_bits:b ~exp_bits:(b + 512)
      end)

(* Shoup share verification: recompute x~ (tiny exponent), the two
   commitments v^z and x~^z (z-bit exponents) and the two challenge
   powers VK_i^c and (x_i^2)^c.  Fast path: v^z is a table hit, the rest
   have share- or message-dependent bases and stay plain.  Multi: one RSA
   verification. *)
let tsig_verify_share (c : t) =
  spanned c "tsig_verify_share" (fun () ->
    match c.cfg.Config.tsig_scheme with
    | Config.Multi -> rsa_verify c
    | Config.Shoup ->
      let b = c.cfg.Config.model_rsa_bits in
      exp c ~mod_bits:b ~exp_bits:256;           (* x~ = x^{4 Delta} *)
      if fast c then fixed c ~mod_bits:b ~exp_bits:(b + 512)
      else exp c ~mod_bits:b ~exp_bits:(b + 512);  (* v^z *)
      exp c ~mod_bits:b ~exp_bits:(b + 512);     (* x~^z *)
      exp c ~mod_bits:b ~exp_bits:256;           (* VK_i^c *)
      exp c ~mod_bits:b ~exp_bits:256)           (* (x_i^2)^c *)

(* Batched Shoup share verification of k shares on one message: x~ once
   for the whole batch, then ONE combined equation — a 2-way multi-exp at
   the random-linear-combination width on the left against a 4k-way
   multi-exp on the right (64-bit coefficients, coefficient*challenge
   products).  Multi-signature shares are independent RSA signatures and
   do not batch. *)
let tsig_verify_share_batch (c : t) ~(k : int) =
  spanned c "tsig_verify_share_batch" (fun () ->
    match c.cfg.Config.tsig_scheme with
    | Config.Multi -> for _ = 1 to k do rsa_verify c done
    | Config.Shoup ->
      let b = c.cfg.Config.model_rsa_bits in
      exp c ~mod_bits:b ~exp_bits:256;           (* x~, once *)
      let w = b + 512 + 64 in                    (* sum of delta_j * z_j *)
      Sim.Cost.exp_multi c.meter ~mod_bits:b ~sq_bits:w ~exp_bits:[ w; w ];
      Sim.Cost.exp_multi c.meter ~mod_bits:b ~sq_bits:320
        ~exp_bits:(List.concat (List.init k (fun _ -> [ 64; 320; 64; 320 ]))))

(* Shoup combination: one k-way multi-exponentiation with small (Lagrange)
   exponents on the fast path — k plain small-exponent powers in the
   paper's accounting — plus the extended-GCD correction pair.  Multi:
   concatenation, free. *)
let tsig_assemble (c : t) ~(k : int) =
  spanned c "tsig_assemble" (fun () ->
    match c.cfg.Config.tsig_scheme with
    | Config.Multi -> ()
    | Config.Shoup ->
      let b = c.cfg.Config.model_rsa_bits in
      if fast c then
        Sim.Cost.exp_multi c.meter ~mod_bits:b ~sq_bits:64
          ~exp_bits:(List.init k (fun _ -> 64))
      else
        for _ = 1 to k do exp c ~mod_bits:b ~exp_bits:64 done;
      exp c ~mod_bits:b ~exp_bits:64;
      exp c ~mod_bits:b ~exp_bits:64)

(* Verifying an assembled signature: one RSA verification for Shoup (it is a
   standard RSA signature); k of them for a multi-signature. *)
let tsig_verify (c : t) ~(k : int) =
  spanned c "tsig_verify" (fun () ->
    match c.cfg.Config.tsig_scheme with
    | Config.Multi -> for _ = 1 to k do rsa_verify c done
    | Config.Shoup -> rsa_verify c)

(* --- the threshold coin --- *)

(* The modeled discrete-log group: the paper's 1024-bit p, 160-bit q. *)
let model_dl_pbits = 1024
let model_dl_qbits = 160

let dl_exp (c : t) = exp c ~mod_bits:model_dl_pbits ~exp_bits:model_dl_qbits
let dl_exp2 (c : t) = exp2 c ~mod_bits:model_dl_pbits ~exp_bits:model_dl_qbits
let dl_fixed (c : t) = fixed c ~mod_bits:model_dl_pbits ~exp_bits:model_dl_qbits

(* Release: hash-to-group cofactor power (~full-size exponent), the share
   itself (coin-dependent base), and two DLEQ commitments — of which g^w
   hits the generator table on the fast path. *)
let coin_release (c : t) =
  spanned c "coin_release" (fun () ->
    exp c ~mod_bits:model_dl_pbits ~exp_bits:(model_dl_pbits - model_dl_qbits);
    dl_exp c;
    if fast c then begin dl_fixed c; dl_exp c end
    else begin dl_exp c; dl_exp c end)

(* Verify: DLEQ verification is four exponentiations; the fast path is two
   table hits (g^z, VK_i^{q-c}) plus one simultaneous double
   exponentiation for the coin-base pair. *)
let coin_verify_share (c : t) =
  spanned c "coin_verify_share" (fun () ->
    if fast c then begin dl_fixed c; dl_fixed c; dl_exp2 c end
    else begin dl_exp c; dl_exp c; dl_exp c; dl_exp c end)

(* Batched DLEQ verification of k coin (or decryption) shares: one
   combined equation — a 2-way multi-exp on the left (combined responses,
   exponents mod q) against a 4k-way multi-exp on the right (64-bit
   coefficients and coefficient*challenge products mod q). *)
let coin_verify_share_batch (c : t) ~(k : int) =
  spanned c "coin_verify_share_batch" (fun () ->
    let p = model_dl_pbits and q = model_dl_qbits in
    Sim.Cost.exp_multi c.meter ~mod_bits:p ~sq_bits:q ~exp_bits:[ q; q ];
    Sim.Cost.exp_multi c.meter ~mod_bits:p ~sq_bits:q
      ~exp_bits:(List.concat (List.init k (fun _ -> [ 64; q; 64; q ]))))

(* Assemble: a k-way Lagrange multi-exponentiation on the fast path; k
   plain exponentiations in the paper's accounting. *)
let coin_assemble (c : t) ~(k : int) =
  spanned c "coin_assemble" (fun () ->
    if fast c then
      Sim.Cost.exp_multi c.meter ~mod_bits:model_dl_pbits ~sq_bits:model_dl_qbits
        ~exp_bits:(List.init k (fun _ -> model_dl_qbits))
    else for _ = 1 to k do dl_exp c done)

(* --- threshold encryption (TDH2) --- *)

(* Encrypt: five exponentiations — all of g, h or gbar, so on the fast
   path all five are table hits. *)
let enc_encrypt (c : t) ~(bytes : int) =
  spanned c "enc_encrypt" (fun () ->
    if fast c then for _ = 1 to 5 do dl_fixed c done
    else for _ = 1 to 5 do dl_exp c done;
    Sim.Cost.symmetric c.meter ~bytes)

(* Validity: recompute (w, wbar) — g^f and gbar^f are table hits, the
   u^{-e} / ubar^{-e} halves have ciphertext-dependent bases. *)
let enc_ct_valid (c : t) =
  spanned c "enc_ct_valid" (fun () ->
    if fast c then begin dl_fixed c; dl_fixed c; dl_exp c; dl_exp c end
    else for _ = 1 to 4 do dl_exp c done)

(* Decryption share: ciphertext check + share u^{x_i} + DLEQ proof whose
   g^w commitment is a table hit on the fast path. *)
let enc_dec_share (c : t) =
  spanned c "enc_dec_share" (fun () ->
    enc_ct_valid c;
    dl_exp c;
    if fast c then begin dl_fixed c; dl_exp c end
    else begin dl_exp c; dl_exp c end)

let enc_verify_share (c : t) =
  spanned c "enc_verify_share" (fun () -> coin_verify_share c)

let enc_combine (c : t) ~(k : int) ~(bytes : int) =
  spanned c "enc_combine" (fun () ->
    for _ = 1 to k do dl_exp c done;
    Sim.Cost.symmetric c.meter ~bytes)

(* --- the verified-share cache --- *)

(* A cache hit replaces a share verification with one flat-key hash-table
   probe. *)
let cache_hit (c : t) =
  spanned c "cache_hit" (fun () -> Sim.Cost.lookup c.meter)

(* --- symmetric / hashing --- *)

let hash (c : t) ~(bytes : int) = Sim.Cost.hash c.meter ~bytes

(* --- durable storage --- *)

let store_append (c : t) ~(bytes : int) = Sim.Cost.log_io c.meter ~bytes
