(** The daemon's shared state: one warm {!Incr.Session}, a published
    {!Engine.Snapshot}, an adornment-keyed answer cache, and the
    snapshot-epoch discipline tying them together.

    {b Invariant (snapshot epochs).}  Every committed write — an EDB
    transaction or a seed installation for a newly compatible query —
    happens under the exclusive write lock, increments the epoch and
    republishes a fresh snapshot before the lock is released.  Readers
    pin the published snapshot under the read lock; since deletion
    tombstones are only produced under the write lock, a pinned snapshot
    is immutable for as long as the reader holds it, and every answer is
    computed against exactly one committed epoch — never a half-applied
    transaction.

    {b Reads.}  A cold read projects its answers from the snapshot with
    {!Engine.Snapshot.select}: an index probe, O(answers), because the
    writer prepared the index for the query's binding pattern under the
    write lock — at create, at every seed install and at every rebuild.
    Readers never build an index.

    {b Cache.}  Keyed by the query atom normalized up to variable
    renaming; each entry carries the answer predicate backing it and its
    rows rendered once for the wire ({!Protocol.rows}), so a hit costs
    no encoding.  In
    the default [Partial] mode a committed transaction is applied to
    the cache through its {!Incr.Maintain.summary}: entries whose
    dependency footprint ({!Analysis.Footprint}) is disjoint from the
    touched relations survive unchanged; entries with an intersecting,
    negation-free footprint survive an insert-only transaction by
    {e repair} — when their answer predicate gained matching tuples,
    they are re-projected from the new snapshot under the write lock;
    everything else is evicted.
    In [Full] mode (the pre-partial behavior, kept for differential
    testing) every transaction clears the whole cache.

    Staleness is fenced per predicate: a reader registers its answer
    predicate {e before} pinning a snapshot, every commit bumps the
    validity watermark of each registered predicate whose footprint it
    touches, and a store below the watermark is dropped — so a reader
    that computed answers against a pre-transaction snapshot can never
    re-insert a stale entry, while readers of untouched predicates keep
    populating the cache across commits.

    A seed installation keeps the cache when the maintained program is
    monotone: growing the magic cone adds support for {e new} queries
    but cannot change the answers of queries whose seeds were already
    installed.  Under negation the installation's change summary goes
    through the same partial pass as a transaction.

    {b Budgets.}  [max_facts] bounds every maintenance transaction (EDB
    ops and seed installs).  A blown budget leaves the maintained state
    unspecified, so the registry rebuilds the session from its shadow
    EDB (which records only committed writes, including installed
    seeds) and reports a protocol error — the daemon never dies and
    never serves the half-applied state. *)

open Datalog

type t

type cache_mode = Partial | Full
(** [Partial] (the default): summary-driven selective invalidation and
    in-place repair.  [Full]: every transaction wipes the cache —
    retained as the reference behavior for differential tests and
    A/B bench runs. *)

val create :
  ?strategy:Incr.Session.strategy ->
  ?options:Magic_core.Rewrite.options ->
  ?max_facts:int ->
  ?cache_mode:cache_mode ->
  ?db:string ->
  ?checkpoint_every:int ->
  Program.t ->
  Atom.t ->
  edb:Engine.Database.t ->
  t
(** Warm up a session for the program and initial query (strategy
    defaults to [Auto]) and publish epoch-0 state.

    With [db] the registry is durable: the directory is opened as a
    {!Persist.Store} — reusing its snapshot and WAL if present ([edb]
    is then ignored; the disk state wins), creating them otherwise.
    Every committed transaction and seed install is journaled (fsync)
    under the write lock before the commit is acknowledged, the
    snapshot is rewritten every [checkpoint_every] records, and the
    budget-blowout rebuild recovers from disk instead of re-evaluating
    the shadow.  Epochs restart at 0 on reopen — they number commits of
    one serving process, not of the store's lifetime.
    @raise Persist.Codec.Corrupt if the store refuses to load.
    @raise Invalid_argument if [db] is combined with custom [options]
    (options shape the rewrite and are not persisted). *)

val query : t -> Atom.t -> Protocol.response
(** Serve a read query from the published snapshot (installing its
    seeds first if it is compatible but not yet covered).  Concurrent
    with other [query] calls; never blocks them against each other. *)

val transact : t -> Incr.Maintain.op list -> Protocol.response
(** Apply one EDB transaction.  Serialized with all other writes and
    exclusive against readers; on success the epoch advances and a new
    snapshot is published.  Ops must target extensional relations — an
    op on a predicate the program derives is refused with a
    [bad-request] error (it would inject external support the shadow
    cannot faithfully record across a rebuild). *)

val stats_fields : t -> (string * string) list
(** Daemon counters as [(name, json-value)] pairs for the stats reply. *)

val epoch : t -> int
(** The currently published epoch (0 right after {!create}). *)

val close : t -> unit
(** Flush the persistent store, if any: final checkpoint, then release
    its file handles.  A no-op for in-memory registries.  Call after the
    daemon's accept loop has exited. *)

val session_strategy : t -> Incr.Session.strategy

(** Test access for the staleness fence: simulate the late store of a
    reader that computed rows against an older snapshot, and inspect
    the raw cached entry for an atom.  Not part of the serving API. *)
module Internal : sig
  val store_projection :
    t -> Atom.t -> epoch:int -> rows:string list list -> unit

  val peek : t -> Atom.t -> (int * string list list) option
end
