(* HMAC (RFC 2104) over SHA-1 or SHA-256.

   A [key] holds the inner and outer hash contexts after their key block
   (K xor ipad, K xor opad), so each tag costs a copy of each context and
   the message itself: the pads are built and hashed once per key, and a
   message given in parts is streamed without being concatenated. *)

type algo = SHA1 | SHA256

let block_size = 64

module type HASH = sig
  type ctx
  val init : unit -> ctx
  val copy : ctx -> ctx
  val feed_string : ctx -> string -> unit
  val finish : ctx -> string
  val digest : string -> string
end

type key = Key : (module HASH with type ctx = 'c) * 'c * 'c -> key

let key_with (type c) (module H : HASH with type ctx = c) (raw : string) : key =
  let raw = if String.length raw > block_size then H.digest raw else raw in
  let start pad =
    let block = Bytes.make block_size (Char.chr pad) in
    String.iteri (fun i k -> Bytes.set block i (Char.chr (Char.code k lxor pad))) raw;
    let ctx = H.init () in
    H.feed_string ctx (Bytes.unsafe_to_string block);
    ctx
  in
  Key ((module H), start 0x36, start 0x5c)

let key ~(algo : algo) (raw : string) : key =
  match algo with
  | SHA1 -> key_with (module Sha1) raw
  | SHA256 -> key_with (module Sha256) raw

let tag (Key ((module H), inner, outer)) (parts : string list) : string =
  let ic = H.copy inner in
  List.iter (H.feed_string ic) parts;
  let oc = H.copy outer in
  H.feed_string oc (H.finish ic);
  H.finish oc

let check (k : key) ~tag:(given : string) (parts : string list) : bool =
  (* Constant-time comparison. *)
  let expected = tag k parts in
  String.length expected = String.length given
  && begin
    let diff = ref 0 in
    String.iteri (fun i c -> diff := !diff lor (Char.code c lxor Char.code given.[i])) expected;
    !diff = 0
  end

let mac ~(algo : algo) ~key:(raw : string) (msg : string) : string =
  tag (key ~algo raw) [ msg ]

let verify ~(algo : algo) ~key:(raw : string) ~(tag : string) (msg : string) : bool =
  check (key ~algo raw) ~tag [ msg ]
