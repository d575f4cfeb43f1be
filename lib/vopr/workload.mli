(** Workloads: one seeded, schedule-mutated run of a protocol family,
    producing the {!Oracle.obs} record the oracles consume.

    Each run builds a fresh 4-party cluster (n = 4, t = 1, invariant
    checking on) whose engine is seeded from the run seed, installs the
    schedule's mutations, drives the chosen protocol with a fixed message
    pattern, and collects what every party observed.  A {!runner} deals
    the key material once — it is seed-independent — so a sweep pays the
    key-generation cost once. *)

(** A minimal send-capable handle, so planted-bug tests can substitute a
    deliberately broken channel implementation. *)
type chan = { send : string -> unit  (** submit one payload *) }

(** Planted-bug injection points, exercised by the self-tests to prove each
    oracle actually fires.  {!no_tweaks} leaves the real protocols in
    place. *)
type tweaks = {
  make_channel :
    (Sintra.Runtime.t -> party:int ->
     on_deliver:(sender:int -> string -> unit) -> chan)
      option;
      (** substitute the channel implementation (channel workloads only) *)
  wrap_deliver : (party:int -> (int * string -> unit) -> int * string -> unit) option;
      (** wrap the per-party delivery recorder, e.g. to duplicate or
          reorder observations *)
  unanimous : bool option;
      (** force every honest binary-agreement proposal to this value *)
  flip_decisions : bool;
      (** record the negated/garbled decision, simulating a protocol that
          decides outside the proposal set *)
  spurious_flag : bool;
      (** make party 0 flag honest party 1 before the run starts *)
}

val no_tweaks : tweaks
(** All injection points disabled: the honest production protocols. *)

val byz_supported : Oracle.kind -> bool
(** Whether an equivocating-party harness exists for the workload, i.e.
    whether {!Schedule.generate} may draw [Byz_equivocate] for it. *)

val schedule : kind:Oracle.kind -> run_seed:string -> Schedule.t
(** The schedule a sweep of [kind] runs under at [run_seed]:
    {!Explorer.schedule_of} with [n = 4], equivocation where
    {!byz_supported}, certificate forging for [Aba], and at most one
    degraded party — none for [Durable], whose scripted power failure of
    party 3 already spends the fault budget. *)

val runner :
  ?tweaks:tweaks -> ?until:float -> ?max_events:int -> kind:Oracle.kind ->
  unit -> seed:string -> Schedule.t -> Oracle.obs
(** [runner ~kind ()] deals the workload's keys once and returns the run
    function.  Each run is a pure function of [(kind, tweaks, seed,
    schedule)].  [until] (default 300 virtual seconds) and [max_events]
    (default 400_000) bound the simulation; a run still busy at the bound
    reports [quiesced = false] and fails the liveness oracle. *)
