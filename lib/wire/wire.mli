(** The binary codec every SINTRA protocol message crosses the simulated
    network in — so wire sizes (latency/bandwidth accounting) and MAC'd
    bytes are real.

    Unsigned LEB128 varints; length-prefixed byte strings; u8-tagged sums.
    Decoders are total against adversarial bytes: any malformed input
    raises {!Decode}, which the [decode]/[decode_prefix] wrappers turn into
    [None]. *)

exception Decode of string

val fail : ('a, unit, string, 'b) format4 -> 'a
(** Raise {!Decode} with a formatted message (for protocol-level decoders
    built on {!Dec}). *)

module Enc : sig
  type t

  val create : unit -> t
  (** A fresh empty encoder buffer. *)

  val u8 : t -> int -> unit
  (** @raise Invalid_argument outside [0, 255]. *)

  val int : t -> int -> unit
  (** Unsigned LEB128. @raise Invalid_argument on negatives. *)

  val int_length : int -> int
  (** The number of bytes {!int} writes for a non-negative value. *)

  val bool : t -> bool -> unit
  (** One byte, [0] or [1]. *)

  val bytes : t -> string -> unit
  (** Length-prefixed byte string (varint length, then the bytes). *)

  val list : t -> (t -> 'a -> unit) -> 'a list -> unit
  (** Varint element count, then each element via the callback. *)

  val option : t -> (t -> 'a -> unit) -> 'a option -> unit
  (** A presence {!bool}, then the payload if [Some]. *)

  val to_string : t -> string
  (** The accumulated wire bytes. *)
end

module Dec : sig
  type t

  val of_string : string -> t
  (** A decoder positioned at the start of the given bytes. *)

  val u8 : t -> int
  (** The next single byte. *)

  val int : t -> int
  (** The next unsigned LEB128 varint. *)

  val bool : t -> bool
  (** The next byte, which must be [0] or [1]. *)

  val bytes : t -> string
  (** The next length-prefixed byte string. *)

  val list : t -> (t -> 'a) -> 'a list
  (** A varint count, then that many elements via the callback. *)

  val option : t -> (t -> 'a) -> 'a option
  (** All raise {!Decode} on malformed or truncated input. *)

  val finished : t -> bool
  (** Whether every input byte has been consumed. *)

  val expect_end : t -> unit
  (** @raise Decode if input remains — the strict-decode tail check. *)
end

val encode : (Enc.t -> unit) -> string
(** Run an encoding callback on a fresh {!Enc.t} and return the bytes. *)

val decode : string -> (Dec.t -> 'a) -> 'a option
(** Strict: trailing bytes are an error. *)

val decode_prefix : string -> (Dec.t -> 'a) -> 'a option
(** Tolerates trailing bytes — for reading a tag and dispatching. *)
