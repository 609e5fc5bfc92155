(** Abstract-interpretation cardinality bounds per predicate.

    Each predicate gets a [stat]: an estimated fact count plus a
    per-column distinct-value estimate.  Extensional statistics come
    from an {!edb} measured once from a {!Engine.Database.t} when one is
    available; otherwise symbolic defaults stand in.  Rule bodies are
    evaluated with textbook join/projection arithmetic (a bound column
    keeps [1/distinct] of the relation), and recursive SCCs (Tarjan
    output, callees first) run a bounded fixpoint with an extrapolating
    widening: after [k] unstable rounds the last round's growth is
    projected linearly out to [rounds_bound] and capped by the
    predicate's column caps.  Each rule is compiled once per {!analyze}
    into float operations over dense predicate and variable slots, so a
    fixpoint round does no symbol or variable lookups.  The results
    deliberately over-estimate: they are compared against each other by
    {!Pass_cost}, never used as hard limits. *)

open Datalog

type stat = {
  card : float;  (** estimated number of facts *)
  distinct : float array;  (** per-column distinct-value estimates *)
}

(** {1 Extensional statistics} *)

type edb
(** Per-relation fact counts and per-column distinct counts of a
    database, plus its distinct values.  A snapshot: valid until the
    database changes. *)

val measure : Engine.Database.t -> edb
(** One scan over the interned tuples of every relation. *)

val edb_facts : edb -> int
(** Number of facts measured. *)

val edb_universe : edb -> float
(** Distinct constants across all facts (at least 2). *)

(** {1 The analysis} *)

type t

val analyze :
  ?edb:edb ->
  ?seeds:Atom.t list ->
  ?defaults:bool ->
  ?universe:float ->
  ?col_caps:(Symbol.t -> float array option) ->
  ?rounds_bound:float ->
  Program.t ->
  t
(** [edb] supplies extensional statistics (and initial stats for derived
    predicates seeded with facts).  [seeds] are ground facts counted as
    if added to [edb] (e.g. the magic seeds of a rewriting); the result
    equals analysing a copy of the measured database with the seeds
    inserted.  [defaults] (default: [edb = None]) makes empty-or-missing
    base relations fall back to symbolic sizes instead of zero.
    [universe] overrides the distinct-constant count (measured from
    [edb] and [seeds] by default).  [col_caps] supplies per-column
    distinct caps for generated predicates whose columns range over
    something other than the data constants (counting indices);
    unmentioned predicates cap every column at the universe.
    [rounds_bound] (default: the universe) is the round horizon the
    widening extrapolates to.
    @raise Invalid_argument on a non-ground seed. *)

val universe : t -> float
val measured : t -> bool
(** Whether extensional statistics were available. *)

val widened : t -> Symbol.t list
(** Predicates whose recursive fixpoint did not stabilize and were
    extrapolated; empty means every estimate converged. *)

val stat : t -> Symbol.t -> stat
(** Zero stat for unknown predicates. *)

val total_derived : t -> float
(** Sum of estimated cardinalities over the program's derived predicates. *)

val est_probes : t -> float
(** Estimated join probes for one evaluation to fixpoint: the sum over
    rules of the frontier sizes entering each body literal, under the
    final stats. *)

val est_rounds : t -> float
(** Estimated semi-naive rounds: the deepest recursive SCC's round
    count (widened SCCs report [rounds_bound]). *)

val diagnostics : t -> Diagnostic.t list
(** [W060] when some recursion was widened, [W061] when no extensional
    statistics were available. *)

(** {1 Data-shape analysis}

    Used by {!Pass_cost} to decide whether the counting strategies'
    numeric derivation indices stay representable: the indices encode
    the derivation path, so they are bounded exactly when the guard
    descent graph reachable from the seeds is acyclic, shallow enough
    for the [~2^depth] encoding, and without path-count explosion. *)

type shape = {
  acyclic : bool;
  longest : float;  (** longest path (edge count) from the roots; meaningful only when acyclic *)
  total_paths : float;  (** total root-to-node path count, saturating *)
  saturated : bool;  (** the path count hit the saturation bound *)
  reachable : float;  (** nodes reachable from the roots (cyclic included) *)
}

type graph
(** A directed multigraph over nodes named by ints (interned value ids);
    duplicate edges count as distinct paths. *)

val graph : (int * int) list -> graph

val graph_shape : graph -> roots:int list -> shape
(** Shape of the subgraph reachable from [roots] (roots absent from the
    graph are ignored; when none remain, in-degree-0 nodes stand in,
    and failing that every node). *)
