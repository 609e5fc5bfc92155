open Datalog

type t = {
  mutable iterations : int;
  mutable firings : int;
  mutable facts : int;
  mutable rederivations : int;
  mutable probes : int;
  mutable subqueries : int;
  mutable overdeleted : int;
  mutable rederived : int;
  mutable delta_firings : int;
  per_pred : int ref Symbol.Tbl.t;
}

let create () =
  {
    iterations = 0;
    firings = 0;
    facts = 0;
    rederivations = 0;
    probes = 0;
    subqueries = 0;
    overdeleted = 0;
    rederived = 0;
    delta_firings = 0;
    per_pred = Symbol.Tbl.create 16;
  }

let record_fact s sym ~is_new =
  s.firings <- s.firings + 1;
  if is_new then begin
    s.facts <- s.facts + 1;
    (* counters are refs so the common case is one hash lookup + incr *)
    match Symbol.Tbl.find_opt s.per_pred sym with
    | Some n -> incr n
    | None -> Symbol.Tbl.add s.per_pred sym (ref 1)
  end
  else s.rederivations <- s.rederivations + 1

let facts_for s sym =
  match Symbol.Tbl.find_opt s.per_pred sym with Some n -> !n | None -> 0

(* Fold [src] into [dst] in place: every counter is a sum.  [src]'s
   [per_pred] refs are dereferenced, never shared, so later mutation of
   either side cannot leak into the other.

   Counters are amounts of work: a negative value is always a bookkeeping
   bug upstream (e.g. an underflowing correction), and summing it would
   silently corrupt every later report.  Absorbing one is rejected loudly
   instead. *)
let check_counters s =
  if
    s.iterations < 0 || s.firings < 0 || s.facts < 0 || s.rederivations < 0
    || s.probes < 0 || s.subqueries < 0 || s.overdeleted < 0 || s.rederived < 0
    || s.delta_firings < 0
  then invalid_arg "Stats.absorb: negative counter"

let absorb ~into:dst src =
  check_counters src;
  check_counters dst;
  dst.iterations <- dst.iterations + src.iterations;
  dst.firings <- dst.firings + src.firings;
  dst.facts <- dst.facts + src.facts;
  dst.rederivations <- dst.rederivations + src.rederivations;
  dst.probes <- dst.probes + src.probes;
  dst.subqueries <- dst.subqueries + src.subqueries;
  dst.overdeleted <- dst.overdeleted + src.overdeleted;
  dst.rederived <- dst.rederived + src.rederived;
  dst.delta_firings <- dst.delta_firings + src.delta_firings;
  Symbol.Tbl.iter
    (fun sym n ->
      match Symbol.Tbl.find_opt dst.per_pred sym with
      | Some existing -> existing := !existing + !n
      | None -> Symbol.Tbl.add dst.per_pred sym (ref !n))
    src.per_pred

(* The result owns every one of its [per_pred] refs: both inputs are
   absorbed through {!absorb}, which re-allocates counters, so mutating
   the merge never writes through to either input (and vice versa). *)
let merge a b =
  let m = create () in
  absorb ~into:m a;
  absorb ~into:m b;
  m

(* Allocation and collection counters, deltas of [Gc.quick_stat]: the
   memory half of a benchmark row.  Word counts are floats because that
   is what the Gc module reports (they overflow int on 32-bit). *)
type gc_counters = {
  minor_words : float;
  major_words : float;
  promoted_words : float;
  minor_collections : int;
  major_collections : int;
}

let gc_now () =
  let g = Gc.quick_stat () in
  {
    minor_words = g.Gc.minor_words;
    major_words = g.Gc.major_words;
    promoted_words = g.Gc.promoted_words;
    minor_collections = g.Gc.minor_collections;
    major_collections = g.Gc.major_collections;
  }

let gc_delta ~before ~after =
  {
    minor_words = after.minor_words -. before.minor_words;
    major_words = after.major_words -. before.major_words;
    promoted_words = after.promoted_words -. before.promoted_words;
    minor_collections = after.minor_collections - before.minor_collections;
    major_collections = after.major_collections - before.major_collections;
  }

let pp_gc ppf g =
  Fmt.pf ppf "minor_words=%.0f major_words=%.0f promoted_words=%.0f minor_gcs=%d major_gcs=%d"
    g.minor_words g.major_words g.promoted_words g.minor_collections
    g.major_collections

let pp ppf s =
  Fmt.pf ppf
    "iterations=%d firings=%d facts=%d rederivations=%d probes=%d subqueries=%d"
    s.iterations s.firings s.facts s.rederivations s.probes s.subqueries;
  if s.overdeleted <> 0 || s.rederived <> 0 || s.delta_firings <> 0 then
    Fmt.pf ppf " overdeleted=%d rederived=%d delta_firings=%d" s.overdeleted
      s.rederived s.delta_firings
