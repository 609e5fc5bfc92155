(** Uncompiled left-to-right body solving over substitutions: the
    reference semi-naive engine ({!Eval.seminaive_reference}) and the
    oracle of the top-down engines and [explain].  The compiled engines
    run {!Plan} instead.

    A body is solved against relation sources by nested index joins: each
    positive literal is instantiated with the current substitution
    (applied deeply, so a chain of variable-to-variable bindings resolves),
    its ground argument positions become an index key, and the remaining
    arguments are matched against the retrieved tuples.  Builtin
    comparison literals are evaluated natively; negated literals are
    checked against a (complete) source and must be ground when reached. *)

open Datalog

type source = Symbol.t -> Relation.t option
(** Where to read tuples for a given predicate; [None] means empty. *)

exception Unsafe of string
(** Raised when a builtin or negated literal is insufficiently
    instantiated when evaluation reaches it, or when a rule derives a
    non-ground head. *)

val solve :
  ?stats:Stats.t ->
  source:(int -> source) ->
  neg_source:source ->
  Rule.literal list ->
  Subst.t ->
  (Subst.t -> unit) ->
  unit
(** [solve ~source ~neg_source body s k] calls [k] on every extension of
    [s] satisfying [body]; [source i] is the source used for the [i]-th
    body literal (0-based), which lets semi-naive evaluation read the
    delta relation for one literal and the full relations elsewhere. *)

val fire_rule :
  ?stats:Stats.t ->
  source:(int -> source) ->
  neg_source:source ->
  on_fact:(Atom.t -> unit) ->
  Rule.t ->
  unit
(** Solve the rule body from the empty substitution and emit the (ground,
    arithmetic-evaluated) head instance for every solution. *)

val match_against : ?stats:Stats.t -> source -> Atom.t -> Subst.t -> Subst.t list
(** All substitution extensions matching one positive atom. *)

val eval_builtin : Atom.t -> Subst.t -> (Subst.t -> unit) -> unit
(** Evaluate a builtin comparison literal under a substitution, calling the
    continuation on success ([=] may extend the substitution).
    @raise Unsafe when a non-[=] builtin is insufficiently instantiated. *)
