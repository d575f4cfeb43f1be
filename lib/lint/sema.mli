(** The semantic lint rules (S1–S8), running on each file's {!Lex} token
    stream (from its {!Source.t}), S1–S7 grouped into top-level module
    items.

    - [determinism] (S1): [Unix.*], [Random.*], [Sys.time], [Hashtbl.hash]
      in protocol ([lib/sintra]), simulator ([lib/sim]), test, or bench
      code — wall clocks and OS entropy break replayable simulation.
    - [charge-coverage] (S2): a priced crypto operation ([Tsig],
      [Threshold_coin], [Threshold_enc], [Rsa], [Sha256]) in a protocol
      module whose enclosing top-level function never calls the paired
      [Charge.*] entry, silently corrupting [Sim.Cost].
    - [handler-flow] (S3): a constructor of a protocol-private variant
      must be both constructed (send path) and matched (receive path);
      constructors exported through the companion [.mli] are exempt.
    - [quorum-literal] (S4): inline [2t+1]-style arithmetic on [Config.n]
      / [Config.t]; thresholds must come from the [Config]/[Invariant]
      helpers.
    - [cache-key-digest] (S5): a [Share_cache.add] insertion whose
      [~digest] key is not visibly a [Hashes] digest — raw statement bytes
      defeat the cache's fixed-size-key contract.
    - [durable-io] (S6): raw file I/O ([open_in]/[open_out] and friends,
      [In_channel]/[Out_channel], [Sys.remove]/[Sys.rename]) under
      [lib/store] or [lib/sintra]; every durable byte must flow through
      the [Store.Device] seam so recovery replays deterministically.  The
      seam itself ([device.ml]) is allowlisted in [.sintra-lint].
    - [global-state] (S7): a module-level [ref], [Array.make]/[init],
      [Bytes.create]/[make], [Hashtbl.create] or [Buffer.create] under
      [lib/] or [bench/] — mutable state shared by every caller.  Allocations inside a
      function or a [fun] run per call and do not count.
    - [unused-export] (S8): a top-level [val] of a [lib/] interface that no
      other compilation unit in the scan names — as [M.v] behind module
      names only, or bare in a file that opens [M] ([open], [let open],
      [M.(...)]).  [include M], [(module M)], a functor argument [F (M)]
      and [module X = M] aliases count as well, so the rule may miss an
      unused export but never flags a used one.  It needs the callers: a
      scan made only of [lib/] files reports nothing. *)

type finding = Rules.finding = {
  file : string;
  line : int;
  rule : string;
  message : string;
}

val rule_names : (string * string) list
(** [(name, one-line description)] for the S rules. *)

val check_tree : Source.t list -> finding list
(** Run S1–S8 over the tree.  [.mli] files contribute the S3
    public-constructor exemption and the S8 exports. *)
