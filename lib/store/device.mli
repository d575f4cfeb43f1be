(** The deterministic storage seam — the only module allowed to perform
    file I/O (enforced by the `durable-io' sintra-lint rule).

    A device is an append-only byte sink with a whole-contents read-back
    and a compaction rewrite.  The simulator uses {!mem} devices held
    outside the runtime so they survive [Runtime.crash] the way a disk
    survives a process crash; the CLI uses {!file} devices under
    [--store-dir]. *)

type t
(** An open storage device. *)

val mem : unit -> t
(** A fresh in-memory device — the simulation's disk.  Deterministic:
    contents are a pure function of the bytes appended. *)

val file : string -> t
(** A device backed by the file at the given path, created on first
    append.  Existing contents are loaded at open; each append is flushed
    before returning, so a crash loses at most the record being written. *)

val append : t -> string -> unit
(** Append bytes at the end of the device. *)

val rewrite : t -> string -> unit
(** Replace the entire contents — the compaction primitive.  On a file
    device this truncates and rewrites the file. *)

val contents : t -> string
(** The full current contents. *)

val size : t -> int
(** [String.length (contents d)]. *)
