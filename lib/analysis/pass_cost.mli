(** Cost-based strategy selection.

    Scores each candidate evaluation strategy (plain semi-naive, the
    four rewritings of the paper under two sip strategies, and the
    Section 8 semijoin variants of counting) by running {!Pass_card}
    over the rewritten program with the query's magic seeds installed,
    and ranks them by [weight * (est_probes + 4 * est_facts)], where
    [weight] prices each strategy's constant per-operation machinery
    (counting's index arithmetic costs 2-3x a plain probe).  Strategies
    the
    Section 10 report or the data shape rule out (cyclic data under
    counting, overflow-deep chains, path-count explosion, unsafe
    non-Datalog magic, unbound heads under direct evaluation) are
    excluded with a human-readable reason rather than mis-scored. *)

open Datalog
module C := Magic_core

type verdict =
  | Viable
  | Inapplicable of string  (** the rewriting rejects the program *)
  | Excluded of string  (** statically unsafe or out of index range *)

type estimate = {
  name : string;  (** method name as in {!C.Rewrite.methods} *)
  method_ : C.Rewrite.method_;
  verdict : verdict;
  est_magic : float;  (** estimated generated-guard fact count *)
  est_facts : float;  (** estimated total derived facts *)
  est_probes : float;  (** estimated join probes to fixpoint *)
  est_rounds : float;
  widened : string list;  (** predicates whose fixpoint was widened *)
  score : float;
      (** [weight * (est_probes + 4 * est_facts)]; [infinity] unless
          viable *)
}

type t = {
  winner : estimate;
  ranked : estimate list;  (** all candidates, best score first *)
  universe : float;
  measured : bool;  (** extensional statistics were available *)
  edb_facts : int;
  rounds_bound : float;
  diagnostics : Diagnostic.t list;  (** [W060]/[W061]/[W062] *)
}

val candidate_names : string list
(** The strategies [choose] considers, in tie-break order. *)

val choose : ?db:Engine.Database.t -> ?only:string list -> Program.t -> Atom.t -> t
(** [choose ?db program query]: [program] must be fact-free (use
    {!Datalog.Parser.split_facts}); [db] holds the extensional facts.
    [only] restricts the candidate set to the named strategies (the
    session path considers just what it can materialize).  Candidates
    the rewriter refuses (its [Invalid_argument]) are marked
    [Inapplicable]; any other exception is a defect and propagates.
    The database is measured once per call, and candidates whose
    rewritten programs and seeds coincide share one cardinality
    analysis.  When the query's predicate is not derived the trivial
    semi-naive plan wins outright. *)

val pp_report : t Fmt.t
(** Multi-line human-readable cost report (the [--cost] output). *)
