(** Multi-signatures: the threshold-signature interface implemented by a
    vector of [k] ordinary RSA signatures from distinct parties
    (Section 2.1 of the paper).

    Drop-in interchangeable with {!Threshold_sig} — no protocol changes —
    trading longer messages for much cheaper computation; Figure 6 shows
    this is the better trade in most settings. *)

type public = {
  nparties : int;
  k : int;
  t : int;
  party_keys : Rsa.public array;   (** index [i-1] *)
}

type secret_share = {
  index : int;                     (** 1-based *)
  key : Rsa.secret;
}

type share = {
  origin : int;
  signature : string;
}

type keys = { public : public; shares : secret_share array }

val deal :
  drbg:Hashes.Drbg.t -> modulus_bits:int -> nparties:int -> k:int -> t:int ->
  unit -> keys
(** The trusted dealer: one independent RSA key pair per party.
    @raise Invalid_argument unless [t < k <= nparties - t]. *)

val statement : public -> ctx:string -> string -> Rsa.stmt
(** The statement [(ctx, msg)] prepared once for every party key (they
    share one modulus length), so a [k]-signature check hashes once. *)

val release : public -> secret_share -> Rsa.stmt -> share
(** One ordinary (CRT) RSA signature on a prepared statement. *)

val verify_share :
  ?known:(share -> bool) -> ?checked:(share -> bool -> unit) ->
  public -> Rsa.stmt -> share -> bool
(** One RSA verification against the origin's public key.  A share with
    an in-range origin for which [known] says [true] is accepted without
    the check: [known] must only claim shares the caller holds as valid
    on this statement (its own, or ones that passed a check), which an
    RSA-FDH signature's uniqueness makes byte-for-byte re-verifiable.
    [checked share ok] hears every check that does run.  Both default to
    nothing known and nobody told. *)

val assemble : public -> share list -> string
(** Concatenate [k] shares from distinct origins (length-prefixed); a
    multi-signature carries its statement in every share, so assembling
    needs none.
    @raise Invalid_argument with fewer than [k] distinct origins. *)

val verify :
  ?known:(share -> bool) -> ?checked:(share -> bool -> unit) ->
  public -> signature:string -> Rsa.stmt -> bool
(** At least [k] valid signatures from distinct parties, no duplicates —
    all [k] checked against the one prepared statement, each part as by
    {!verify_share} with the same [known] and [checked].  With every
    [known] answer true only for valid parts, the verdict is the one
    with nothing known. *)
