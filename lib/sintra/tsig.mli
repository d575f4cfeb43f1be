(** The threshold-signature seam: Shoup RSA threshold signatures or
    multi-signatures behind one interface.

    The paper stresses that swapping one implementation for the other
    requires no change to the protocols that use threshold signatures; every
    SINTRA protocol goes through this module, and {!Config.tsig_scheme}
    picks the implementation (Figure 6 measures the difference). *)

type public =
  | Shoup_pub of Crypto.Threshold_sig.public
  | Multi_pub of Crypto.Multi_sig.public

type secret =
  | Shoup_sec of Crypto.Threshold_sig.public * Crypto.Threshold_sig.secret_share
  | Multi_sec of Crypto.Multi_sig.public * Crypto.Multi_sig.secret_share

type share =
  | Shoup_share of Crypto.Threshold_sig.share
  | Multi_share of Crypto.Multi_sig.share

val public_of_secret : secret -> public
(** The public key packaged inside a party's secret share. *)

val k : public -> int
(** The reconstruction threshold. *)

val share_origin : share -> int
(** The 1-based index of the releasing party. *)

(** {2 Prepared statements}

    Both schemes sign the RSA full-domain hash of [(ctx, msg)].  The
    [_stmt] functions take the statement prepared once
    ({!Crypto.Rsa.prepare}, for {!modulus_bytes}); the [~ctx msg] forms
    prepare it afresh and call them.  Below this seam the crypto modules
    take prepared statements only.  Protocols get their statements from
    {!Runtime.statement}, which hashes each one once per party. *)

val modulus_bytes : public -> int
(** The RSA modulus length statements are prepared for. *)

val release_stmt : drbg:Hashes.Drbg.t -> secret -> Crypto.Rsa.stmt -> share
(** This party's signature share on a prepared statement; the
    statement's [ctx] domain-separates protocol instances so shares cannot
    be replayed across them. *)

val release : drbg:Hashes.Drbg.t -> secret -> ctx:string -> string -> share
(** {!release_stmt} on a freshly prepared statement. *)

val verify_share_stmt :
  ?known:(Crypto.Multi_sig.share -> bool) ->
  ?checked:(Crypto.Multi_sig.share -> bool -> unit) ->
  public -> Crypto.Rsa.stmt -> share -> bool
(** Check one received share (and its proof) against the statement.  A
    multi-signature share goes through {!Crypto.Multi_sig.verify_share}
    with [known] and [checked]; a Shoup share ignores both. *)

val verify_share : public -> ctx:string -> string -> share -> bool
(** {!verify_share_stmt} on a freshly prepared statement. *)

val assemble : public -> ctx:string -> string -> share list -> string
(** Combine [k] shares into the group signature on [(ctx, msg)].  A Shoup
    key prepares the statement (interpolation needs its hash); a
    multi-signature needs none.
    @raise Invalid_argument with fewer than [k] distinct valid-scheme
    shares. *)

val verify_stmt :
  ?known:(Crypto.Multi_sig.share -> bool) ->
  ?checked:(Crypto.Multi_sig.share -> bool -> unit) ->
  public -> signature:string -> Crypto.Rsa.stmt -> bool
(** Check an assembled group signature on a prepared statement; a
    multi-signature's parts go through {!Crypto.Multi_sig.verify} with
    [known] and [checked], a Shoup signature ignores both. *)

val verify : public -> ctx:string -> signature:string -> string -> bool
(** {!verify_stmt} on a freshly prepared statement. *)

(** Wire codec for shares. *)

val enc_share : Wire.Enc.t -> share -> unit
(** Encode a share (scheme-tagged) into a wire buffer. *)

val dec_share : Wire.Dec.t -> share
(** @raise Wire.Decode on malformed input. *)
