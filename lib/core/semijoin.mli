(** The semijoin optimization of the counting methods (Section 8 of the
    paper): Lemma 8.1 (deleting sip-tail literals whose only purpose is to
    supply the bound arguments of an indexed occurrence — the indices
    already certify that join), Lemma 8.2 (anonymizing bound arguments
    that constrain nothing), and Theorem 8.3 (for a block of mutually
    recursive indexed predicates whose bound arguments only support each
    other circularly, deleting the bound argument positions program-wide
    and the supporting tail literals).

    The optimization applies only to the counting rewritings — it relies
    on the index fields — so these functions return magic-sets rewritings
    unchanged.

    Implementation: a guarded greatest fixpoint over two candidate sets —
    deletable literal groups (one per sip arc whose tail literals and
    target occurrence are both present in a rewritten rule) and droppable
    argument columns (bound non-index positions of indexed predicates,
    all-or-nothing per recursive block, plus individually droppable
    supplementary-counting columns).  A candidate is invalidated when one
    of its variables leaks to a position that is neither an index field,
    nor inside a deletable literal, nor a droppable column, nor (for
    deletions) a bound argument of the arc's target.  Evaluating the
    optimized program requires inverting the linear index patterns, which
    the engine's compiled plans ({!Engine.Plan}) and
    {!Datalog.Subst.match_term} both support.

    When the optimization drops the query predicate's bound arguments,
    the result's query selects the root index level [(0, 0, 0)] and its
    [restore] field re-inserts the query constants into answer tuples, so
    {!Rewritten.answers} stays comparable across strategies. *)

val optimize : Rewritten.t -> Rewritten.t
(** Lemma 8.1 + Theorem 8.3 (which subsumes the arity-reduction use of
    Lemma 8.2). *)

val lemma_8_1 : Rewritten.t -> Rewritten.t
(** Literal deletion only: no argument columns are dropped.  This
    reproduces the intermediate program printed after Lemma 8.1 in the
    paper's Section 8 walkthrough. *)

val anonymize : Rewritten.t -> Rewritten.t
(** Lemma 8.2: replace bound arguments that constrain nothing with fresh
    anonymous variables (semantics-preserving; mainly cosmetic). *)
