(** Hash-consed ground values: every ground term is interned once into a
    dense non-negative [int] id with O(1) [equal]/[hash] and an O(1)
    extern table back to the canonical {!Datalog.Term.t}.

    The pool is global and append-only; ids are stable for the lifetime
    of the process.  Ground arithmetic is normalized when interned, so
    [intern (Add (Int 1, Int 2)) = intern (Int 3)]. *)

type t = private int

val intern : Datalog.Term.t -> t
(** Intern a ground term, evaluating ground arithmetic first.
    @raise Invalid_argument on a non-ground term.
    @raise Datalog.Term.Arithmetic_overflow (or [Division_by_zero]) if
    the term's arithmetic does. *)

val find : Datalog.Term.t -> t option
(** Like {!intern} but never grows the pool: [None] means the term was
    never interned — and therefore occurs in no relation.  [None] on
    non-ground terms. *)

val extern : t -> Datalog.Term.t
(** The canonical term a value denotes; O(1).  Arithmetic interned as
    part of the value appears in evaluated form. *)

val of_int : int -> t
(** Cast an id back to a value.
    @raise Invalid_argument if no such value was interned. *)

val to_int : t -> int
val equal : t -> t -> bool
val hash : t -> int
val compare : t -> t -> int
(** Id order: an arbitrary but fixed total order, cheapest to compare. *)

val compare_structural : t -> t -> int
(** Order of the denoted terms ({!Datalog.Term.compare}); used where
    output ordering must match the symbolic representation. *)

val pool_size : unit -> int
(** Number of distinct values interned so far (App arguments included). *)

type node = private Int of int | Sym of string | App of string * t array

val node : t -> node
(** The structural node of a value, with [App] children as value ids.
    No copy is made: the child array is the pool's own and must not be
    mutated.  Children are always interned before their parent, so a
    scan of ids [0 .. pool_size () - 1] emits every child before the
    node that references it — the invariant the snapshot writer relies
    on.  @raise Invalid_argument if no such value was interned. *)

val int : int -> t
(** [int i] is [intern (Int i)], without building the term first. *)

val app : string -> t array -> t
(** Intern an application node directly from already-interned children,
    without re-walking their term trees; O(1) per node.  The array is
    taken over by the pool if the node is new, so the caller must not
    mutate it afterwards.  Used by the snapshot loader to rebuild a
    persisted pool in one forward pass, and by the rule executor to
    build compound head values.
    @raise Invalid_argument if any child id was never interned. *)

val pp : t Fmt.t
