(** Evaluation statistics.

    The paper's comparisons (Sections 9 and 11, and the performance study
    it cites) are in terms of the number of facts inferred, the number of
    rule firings and the number of subqueries generated; the engine counts
    all of these. *)

open Datalog

type t = {
  mutable iterations : int;  (** fixpoint rounds *)
  mutable firings : int;  (** successful rule instantiations *)
  mutable facts : int;  (** distinct facts first derived *)
  mutable rederivations : int;  (** firings that produced an already-known fact *)
  mutable probes : int;  (** body-literal match attempts (join probes) *)
  mutable subqueries : int;  (** top-down only: distinct subgoals *)
  mutable overdeleted : int;
      (** incremental maintenance: tuples over-deleted by DRed's
          deletion propagation before rederivation *)
  mutable rederived : int;
      (** incremental maintenance: over-deleted tuples restored because
          an alternative derivation survived the update *)
  mutable delta_firings : int;
      (** incremental maintenance: delta-rule firings during repair *)
  per_pred : int ref Symbol.Tbl.t;
      (** distinct facts per predicate; read through {!facts_for} *)
}

val create : unit -> t
val record_fact : t -> Symbol.t -> is_new:bool -> unit
val facts_for : t -> Symbol.t -> int

val merge : t -> t -> t
(** Sum of two stats.  The result shares no [per_pred] counter refs
    with either input: every counter is copied, so later mutation of the
    merge (or of the inputs) cannot alias or double-count. *)

val absorb : into:t -> t -> unit
(** In-place {!merge}: fold the second argument's counters into [into]
    without allocating a result; no refs are shared afterwards.
    [absorb ~into:a b] leaves [a] equal to [merge a b].

    @raise Invalid_argument if any integer counter of either side is
    negative: counters are amounts of work, so a negative value is a
    bookkeeping bug (e.g. an underflowing correction) that must not be
    silently summed into later reports. *)

val pp : t Fmt.t

(** {2 Memory counters}

    Allocation and collection totals over a measured region, as deltas
    of [Gc.quick_stat]; the memory-aware half of a benchmark row. *)

type gc_counters = {
  minor_words : float;  (** words allocated in the minor heap *)
  major_words : float;  (** words allocated in (or promoted to) the major heap *)
  promoted_words : float;  (** words promoted minor -> major *)
  minor_collections : int;
  major_collections : int;
}

val gc_now : unit -> gc_counters
(** Current process-lifetime totals (cheap: [Gc.quick_stat]). *)

val gc_delta : before:gc_counters -> after:gc_counters -> gc_counters
(** Counter increments between two {!gc_now} snapshots. *)

val pp_gc : gc_counters Fmt.t
