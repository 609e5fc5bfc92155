(** Mutable relations: sets of ground tuples of a fixed arity, with hash
    indexes built on demand for each binding pattern used by a lookup.

    An index for pattern [p] (a boolean array, [true] = bound position)
    maps the projection of a tuple on the bound positions to the tuples
    with that projection; it is kept up to date by subsequent inserts.

    Tuples are also kept in an insertion log and stamped with their log
    position.  A stamp range [\[lo, hi)] denotes the relation as it was
    between two past moments, which lets the semi-naive engine read the
    "old", "delta" and "new" versions of one stored relation without
    maintaining and merging separate per-round copies ({!Eval}).

    Deletion ({!remove}) tombstones the tuple's log slot without reusing
    its stamp; re-inserting the tuple later appends a fresh entry with a
    fresh stamp.  Range views therefore stay coherent across updates: a
    watermark [w] taken after a batch of deletions and before a batch of
    insertions splits the relation into the post-deletion state
    [\[0, w)] and the inserted delta [\[w, size)] — the discipline the
    incremental maintenance layer ({!module:Incr}) builds on. *)

type t

val create : int -> t
(** [create arity] is a fresh empty relation. *)

val arity : t -> int

val cardinal : t -> int
(** Number of live tuples (removed tuples excluded). *)

val size : t -> int
(** Current insertion stamp: tuples added from now on get stamps
    [>= size r].  Equal to {!cardinal} only while no tuple has been
    removed — stamps are never reused, so [size] never decreases. *)

val add : t -> Tuple.t -> bool
(** Insert; returns [true] iff the tuple is new. *)

val remove : t -> Tuple.t -> bool
(** Delete; returns [true] iff the tuple was present.  The tuple's log
    slot is tombstoned (its stamp is not reused) and it is dropped from
    every index; a later {!add} of the same tuple gets a fresh stamp. *)

val mem : t -> Tuple.t -> bool

val mem_in : t -> lo:int -> hi:int -> Tuple.t -> bool
(** Membership in the stamp range [\[lo, hi)]. *)

val iter : (Tuple.t -> unit) -> t -> unit
(** Iterate the live tuples in insertion order.  Tuples added during the
    traversal are not visited. *)

val iter_in : t -> lo:int -> hi:int -> (Tuple.t -> unit) -> unit
(** Iterate the live tuples with stamps in [\[lo, hi)], oldest first. *)

val fold : (Tuple.t -> 'a -> 'a) -> t -> 'a -> 'a
val to_list : t -> Tuple.t list

val lookup : t -> pattern:bool array -> key:Tuple.t -> Tuple.t list
(** Tuples whose projection on the [true] positions of [pattern] equals
    [key] (which has one entry per bound position, in order).  An
    all-false pattern enumerates the relation. *)

val iter_matching : t -> pattern:bool array -> key:Tuple.t -> (Tuple.t -> unit) -> unit
(** Streaming {!lookup}: applies the callback to every matching tuple
    without materializing a list.  An all-false pattern streams the whole
    relation; otherwise the bucket of the on-demand index for [pattern]
    is traversed in place.  The traversal sees a snapshot: tuples the
    callback inserts (into any relation, including this one) are not
    visited; under a pattern with a bound position, tuples it removes
    from this relation still are. *)

val iter_matching_in :
  t -> pattern:bool array -> key:Tuple.t -> lo:int -> hi:int -> (Tuple.t -> unit) -> unit
(** {!iter_matching} restricted to the stamp range [\[lo, hi)]. *)

val select : t -> ?lo:int -> ?hi:int -> Datalog.Term.t list -> (Tuple.t -> unit) -> unit
(** [select r args f] applies [f] to the live tuples with stamps in
    [\[lo, hi)] (default: all) that match [args], one term per
    position: a ground term must equal the component, a variable matches
    anything (a repeated variable forces equal components), and a
    non-ground compound term must match structurally.  A ground argument
    that was never interned matches nothing.  The order is unspecified.

    [select] probes the index for the pattern of ground positions when
    it already exists and scans the range otherwise; it never builds an
    index (see {!prepare}) and writes nothing, so any number of readers
    may run it concurrently while no writer does.
    @raise Invalid_argument if [args] does not have the relation's arity. *)

val prepare : t -> Datalog.Term.t list -> unit
(** Build, if missing, the index {!select} probes for arguments with the
    ground positions of [args] (nothing when no position is ground).  The
    index is then kept up to date by inserts and removals. *)

val indexed : t -> bool array list
(** The binding patterns that currently have an index. *)

val copy : t -> t
(** A fresh relation with the same tuples, re-stamped in insertion order,
    and no indexes. *)

val export_log : t -> Tuple.t array * Bytes.t
(** The full insertion log and its dead-slot bitset, tombstones included:
    [log.(s)] is the tuple stamped [s] and [dead.(s) = '\001'] iff that
    slot was removed.  Exact fidelity for the snapshot writer — stamps
    survive a save/load round trip, unlike a {!copy}-style re-add. *)

val of_log : arity:int -> log:Tuple.t array -> dead:Bytes.t -> t
(** Rebuild a relation from an {!export_log} pair: the stamp table is
    reconstructed from the live slots and no indexes exist yet (they are
    rebuilt lazily on first probe).  @raise Invalid_argument on a length
    or arity mismatch, or if two live slots hold the same tuple. *)

val clear : t -> unit
val pp : t Fmt.t
