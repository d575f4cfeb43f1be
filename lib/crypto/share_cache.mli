(** A bounded, deterministic cache of verified shares.

    Retransmits, replays and catch-up DECIDED batches carry shares the
    receiver has already verified; this cache remembers
    [(scheme, message digest, sender, share index)] for every share that
    passed verification so the second sighting costs a hash-table probe
    instead of a multi-exponentiation.

    Keys are built over a {e digest} of the message (SHA-1 or SHA-256
    output, enforced by length here and by the sintra-lint S5 rule
    [cache-key-digest] at call sites), membership and insertion never
    iterate the table, and eviction is FIFO by latest insertion — cache
    behaviour is a pure function of the call sequence.  Entries belong to
    a [group] (protocol-instance id; the secure channel uses one per
    decryption slot) evicted wholesale when the instance is
    garbage-collected or the slot delivered.  The table never exceeds its
    capacity, and the FIFO behind it never holds more than
    [2 * size + 64] keys: memory follows the live entries, not the
    history. *)

type t
(** A cache instance (one per party; volatile — crash discards it). *)

val create : cap:int -> t
(** An empty cache holding at most [cap] entries.
    @raise Invalid_argument if [cap < 1]. *)

val key : scheme:string -> digest:string -> sender:int -> index:int -> string
(** The flat key an entry is stored under:
    [scheme ^ "|" ^ sender ^ "|" ^ index ^ "|" ^ digest], integers in
    decimal.
    @raise Invalid_argument if [digest] is not a SHA-1/SHA-256 digest. *)

val mem :
  t -> scheme:string -> digest:string -> sender:int -> index:int -> bool
(** Membership probe; counts a hit.
    @raise Invalid_argument if [digest] is not a SHA-1/SHA-256 digest. *)

val add :
  t -> group:string -> scheme:string -> digest:string -> sender:int ->
  index:int -> unit
(** Record a verified share under eviction group [group], evicting the
    entry inserted longest ago first when at capacity.  Idempotent: a key
    already present keeps its group and its FIFO position.
    @raise Invalid_argument if [digest] is not a SHA-1/SHA-256 digest. *)

val evict_group : t -> string -> unit
(** Drop every entry added under this group — called when the owning
    protocol instance is garbage-collected, so replayed frames cannot
    resurrect verification state.  Compacts the FIFO to its live keys
    when it holds more than [2 * size + 64]; amortized O(1) per
    insertion. *)

val clear : t -> unit
(** Drop everything (crash recovery). *)

val size : t -> int
(** Current number of live entries ([<= cap] always) — the cache-size
    gauge. *)

val retained : t -> int
(** Keys the FIFO holds, stale ones included: at most [2 * size t + 64]
    at every call boundary. *)

val peak_retained : t -> int
(** The high-water mark of {!retained} over the cache's life ({!clear}
    keeps it). *)

val hits : t -> int
(** Probes that found their key. *)
