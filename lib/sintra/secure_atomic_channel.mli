(** Secure causal atomic broadcast (Section 2.6): atomic broadcast whose
    payloads stay confidential — TDH2-encrypted under the group key — until
    their position in the total order is fixed, which enforces causal order
    against a Byzantine rushing adversary (Reiter-Birman).

    On every atomic delivery each party releases a verifiable decryption
    share (one extra round of interaction); [t+1] shares recover the
    cleartext, and cleartexts are delivered strictly in atomic order.  The
    decryption round is on the critical path, as in the prototype (it gates
    the underlying channel's next round).  A party sends all its shares of
    one delivered atomic round in a single frame to each peer. *)

type t

val create :
  Runtime.t -> pid:string ->
  on_deliver:(sender:int -> string -> unit) ->
  ?on_ciphertext:(sender:int -> string -> unit) ->
  ?on_close:(unit -> unit) -> unit -> t
(** [on_ciphertext] is the paper's receiveCiphertext: observe the next
    ordered ciphertext before it is decrypted. *)

val encrypt :
  drbg:Hashes.Drbg.t -> enc_pub:Crypto.Threshold_enc.public -> pid:string ->
  string -> string
(** Encrypt for channel [pid] knowing only the group public key — usable by
    a non-member (the paper's static encrypt). *)

val send : t -> string -> unit
(** Encrypt locally and broadcast atomically. *)

val send_ciphertext : t -> string -> unit
(** Broadcast an externally produced ciphertext (the paper's
    sendCiphertext). *)

val buffered_shares : t -> int
(** Decryption shares held for slots not yet open at this party: at most
    one per (slot, sender), however often a sender repeats itself. *)
