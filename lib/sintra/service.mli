(** State-machine replication as a library: the pattern the paper builds
    atomic broadcast for (Schneider [16]), packaged for direct use.

    A service is a deterministic transition function; each replica feeds
    atomically delivered requests to it in order, so all honest replicas
    traverse identical state sequences.  Requests are executed exactly once
    and every replica computes every reply — a client reading from [t+1]
    replicas can match answers and is guaranteed one honest one. *)

type 'state t

val create :
  ?on_reply:(origin:int -> tag:int -> reply:string -> unit) ->
  Runtime.t -> pid:string -> init:'state ->
  apply:('state -> string -> 'state * string) -> 'state t
(** [apply state request] must be deterministic; it returns the next state
    and the reply. *)

val submit : 'state t -> string -> int
(** Submit a request through this replica; returns its tag (unique per
    submitting replica). *)

val state : 'state t -> 'state
(** The replica's current state. *)

val executed : 'state t -> int
(** Number of requests executed so far at this replica. *)

val reply : 'state t -> origin:int -> tag:int -> string option
(** The reply computed for the request submitted via replica [origin] with
    [tag], once executed. *)

val reply_digest : 'state t -> string
(** A digest of the reply log — identical across honest replicas that have
    executed the same prefix; useful for cross-replica auditing. *)
