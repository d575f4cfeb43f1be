(** The append-only write-ahead log: length-prefixed, CRC-guarded frames,
    each carrying one record.

    Frame layout (integers little-endian): a [u32] payload length, a [u32]
    CRC-32 of the payload, then the payload — the {!Wire} encoding of one
    {!record} with a leading [u8] tag (0 = [Round], 1 = [Init],
    2 = [Snapshot]).  The exact byte layout is an operator-facing contract
    documented in OPERATIONS.md. *)

type record =
  | Round of { round : int; batch : string }
      (** One delivered atomic-broadcast round: the round number and the
          decided batch exactly as agreed on the wire — replaying these in
          order reproduces the delivery sequence byte for byte. *)
  | Init of { round : int }
      (** The party's own-INIT water-mark: the highest round it has
          initiated, written before that INIT leaves.  A restart bars its
          INITs at or below the highest one logged; compaction keeps that
          one only. *)
  | Snapshot of { checkpoint : Checkpoint.t; state : string }
      (** A certified checkpoint plus the full state blob it covers.
          Written by compaction as the first record; everything after it
          is history since the checkpoint. *)
(** One log record. *)

type status =
  | Complete  (** Every byte of the device parsed. *)
  | Torn of int
      (** The device ends mid-frame at the given offset — the normal
          aftermath of a crash during an append.  The parsed prefix is
          valid; the tail is dropped. *)
  | Corrupt of int * string
      (** The frame at the given offset was fully present but damaged
          (CRC mismatch, or a payload that does not decode); parsing
          stopped there.  See the recovery runbook in OPERATIONS.md. *)
(** The outcome of a replay. *)

type replay = {
  records : record list;  (** The valid prefix, oldest first. *)
  status : status;  (** How the scan ended. *)
  bytes : int;  (** Bytes of the device consumed by valid frames. *)
}
(** A parsed device. *)

val frame : record -> string
(** The full framed encoding (header + payload) of one record. *)

val append : Device.t -> record -> int
(** Frame a record and append it to the device; returns the number of
    bytes written. *)

val rewrite : Device.t -> record list -> int
(** Replace the device contents with exactly these records (the
    compaction primitive); returns the new device size. *)

val replay : Device.t -> replay
(** Parse the device from the start: every frame in order, stopping at a
    torn tail or a corrupt frame. *)

val replay_string : string -> replay
(** {!replay} over raw bytes (for [store-check] and tests). *)

val describe : record -> string
(** One line naming a record and its sizes, e.g.
    ["round 7       batch 64B"] ([store-check --verbose]). *)

val summary : replay -> string
(** The record counts by kind and the bytes of the valid prefix, e.g.
    ["3 record(s) (2 round(s), 0 init(s), 1 snapshot(s), 530B)"]. *)

val bad_snapshot : replay -> int option
(** The round of the last snapshot record whose state does not hash
    (SHA-256) to its certified digest, if any. *)
