(** Rule compilation: each rule is translated once (per stratum) into an
    executable join plan over integer variable slots, so that the
    per-probe work of the bottom-up engines is an index lookup on
    interned values.

    Which argument positions are ground when evaluation reaches a literal
    is determined by which variables the body prefix has already bound,
    so compilation fixes it once:

    - every variable of an instance gets a {e slot}, numbered in binding
      order; the substitution is a [Value.t array] of those slots, and a
      slot is only read after a write on the current path;
    - a static binding {e pattern} per positive body literal (the adorned
      view of the rule, computed exactly as Section 3 of Beeri &
      Ramakrishnan computes adornments, but at the engine level), with
      one {e key} expression per bound position and one match
      {e pattern} per free position;
    - expressions evaluate bound terms over slots: constants are interned
      at compile time, compound terms are hash-consed one node at a time
      ({!Value.app}), and the counting rewrites' index arithmetic is
      integer arithmetic that raises {!Datalog.Term.Arithmetic_overflow}
      like {!Datalog.Term.eval};
    - patterns destructure interned compound values without leaving the
      value pool, and solve [x + c] and [x * c] for [x] (the semijoin
      counting rules);
    - builtins are slot comparisons; [=] binds a free side, checks a
      bound one, or destructures a compound, and is placed only once one
      side is bound;
    - negation is a membership test of a fully bound key;
    - a literal with no free position is a membership test, not an index
      enumeration;
    - one {e instance} per semi-naive delta position (body positions
      reading predicates that grow in the current stratum), with the
      delta literal moved to the front of the join and the remaining
      literals ordered greedily by boundness, so a round's work is
      proportional to the delta rather than to whichever relation the
      rule happens to mention first.

    The base instance keeps the rule's own literal order, so executing
    it is behaviourally identical to solving the rule body left-to-right
    with {!Solve.solve}, including where an {!Solve.Unsafe} is raised;
    delta instances compute the same solution set (joins commute; sources
    are attached to body positions, not execution order).  The
    equivalence is locked by the cross-engine property tests. *)

open Datalog

type expr =
  | Val of Value.t  (** a ground constant without arithmetic *)
  | Slot of int  (** a bound variable *)
  | Fn of string * expr array  (** a compound term *)
  | Add of expr * expr
  | Mul of expr * expr
  | Div of expr * expr

type pat =
  | Bind of int  (** first occurrence of a variable: write its slot *)
  | Eq of expr  (** a bound term: the value must equal it *)
  | Args of string * pat array  (** a compound of this functor and arity *)
  | Minus of pat * expr  (** [x + c]: match [x] against [v - c] *)
  | Over of pat * expr  (** [x * c]: match [x] against [v / c] if [c] divides [v] *)
  | Never  (** arithmetic that cannot be solved: matches nothing *)

type scan = {
  lit : int;  (** original body position, identifies the literal to the source *)
  sym : Symbol.t;
  pattern : bool array;  (** static binding pattern over argument positions *)
  key : expr array;  (** one expression per bound position, in order *)
  free : (int * pat) array;
      (** residual positions, matched in order; empty for a membership
          test *)
}

type step =
  | Scan of scan  (** positive literal over a stored relation *)
  | Test of { l : expr; r : expr; holds : Value.t -> Value.t -> bool }
      (** a comparison over bound terms, or a negated builtin *)
  | Unify of { value : expr; pat : pat }  (** [=] with a bound side *)
  | Neg of { lit : int; sym : Symbol.t; key : expr array }
      (** negated relation literal at original body position [lit] *)
  | Unsafe of (Value.t array -> string)
      (** a builtin, negation or head reached with unbound variables:
          raises {!Solve.Unsafe} with this message when reached *)

type instance = {
  steps : step array;
  head_sym : Symbol.t;
  head : expr array;  (** unused when the last step is [Unsafe] *)
  nvars : int;
}
(** One executable join order for the rule.  Steps carry original body
    positions, so the same [source] works for every instance. *)

type t = {
  rule : Rule.t;
  base : instance;
      (** the rule's own literal order: used by naive rounds and the
          semi-naive round 0 *)
  delta : (int * instance) list;
      (** per delta position [i], an instance whose join starts at body
          position [i]; used by semi-naive rounds after the first *)
}

val compile : delta_preds:Symbol.Set.t -> Rule.t -> t
(** Compile one rule.  [delta_preds] are the predicates that grow during
    the fixpoint the plan will run in (the head predicates of the
    stratum); they determine which delta instances exist, never the base
    instance. *)

val compile_stratum : Rule.t list -> t list
(** Compile a stratum's rules with [delta_preds] set to the stratum's
    own head predicates. *)

type view = { rel : Relation.t; lo : int; hi : int }
(** A stamp-range view of a stored relation ({!Relation.iter_matching_in}):
    the semi-naive engine reads "old", "delta" and "new" as ranges over
    the single stored relation rather than separate merged copies. *)

type source = int -> Symbol.t -> view list
(** Where a literal reads its tuples: [source lit sym] is a list of
    pairwise-disjoint views whose union the literal at body position
    [lit] enumerates (or tests membership in).  [[]] means the predicate
    has no relation at all — the step performs no index work and counts
    no probe, matching {!Solve}.  The ordinary engines pass singleton
    lists; the incremental maintenance layer composes e.g. the
    pre-update state of an updated relation as "post-deletion stamp
    range + the deleted set" without copying either. *)

val full : Relation.t -> view
(** The whole relation, including tuples added later. *)

val db_source : Database.t -> source
(** Every literal reads the full database. *)

val run :
  ?stats:Stats.t ->
  source:source ->
  neg_source:source ->
  on_fact:(Symbol.t -> Tuple.t -> unit) ->
  instance ->
  unit
(** Execute one instance: enumerate all body solutions by nested index
    scans and call [on_fact] with the ground head tuple of each.
    [neg_source] must be complete for every negated predicate
    (guaranteed by stratification); it receives the negated literal's
    original body position, so maintenance passes can serve different
    snapshots to different occurrences of the same predicate.  Scratch
    is allocated per call, so [on_fact] may run the same instance again.
    @raise Solve.Unsafe when an [Unsafe] step is reached. *)
