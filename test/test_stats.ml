open Datalog
module S = Engine.Stats

let sym = Symbol.make "p" 2

let test_record () =
  let s = S.create () in
  S.record_fact s sym ~is_new:true;
  S.record_fact s sym ~is_new:true;
  S.record_fact s sym ~is_new:false;
  Alcotest.(check int) "facts" 2 s.S.facts;
  Alcotest.(check int) "firings" 3 s.S.firings;
  Alcotest.(check int) "rederivations" 1 s.S.rederivations;
  Alcotest.(check int) "per pred" 2 (S.facts_for s sym)

let test_merge () =
  let a = S.create () and b = S.create () in
  S.record_fact a sym ~is_new:true;
  S.record_fact b sym ~is_new:true;
  S.record_fact b (Symbol.make "q" 1) ~is_new:true;
  a.S.iterations <- 3;
  b.S.iterations <- 4;
  let m = S.merge a b in
  Alcotest.(check int) "iterations" 7 m.S.iterations;
  Alcotest.(check int) "facts" 3 m.S.facts;
  Alcotest.(check int) "per pred summed" 3 (S.facts_for m sym + S.facts_for m (Symbol.make "q" 1))

(* regression: merge must deep-copy the per-predicate counters — an
   aliased ref would double-count when either input keeps recording *)
let test_merge_never_aliases () =
  let a = S.create () and b = S.create () in
  S.record_fact a sym ~is_new:true;
  S.record_fact b sym ~is_new:true;
  let m = S.merge a b in
  Alcotest.(check int) "merged per-pred" 2 (S.facts_for m sym);
  S.record_fact a sym ~is_new:true;
  S.record_fact b sym ~is_new:true;
  Alcotest.(check int) "later recording into a does not leak" 2 (S.facts_for m sym);
  S.record_fact m sym ~is_new:true;
  Alcotest.(check int) "recording into the merge does not leak back" 2 (S.facts_for a sym)

let test_merge_sums_maintenance_counters () =
  let a = S.create () and b = S.create () in
  a.S.overdeleted <- 3;
  a.S.rederived <- 1;
  a.S.delta_firings <- 10;
  b.S.overdeleted <- 4;
  b.S.delta_firings <- 5;
  let m = S.merge a b in
  Alcotest.(check int) "overdeleted" 7 m.S.overdeleted;
  Alcotest.(check int) "rederived" 1 m.S.rederived;
  Alcotest.(check int) "delta firings" 15 m.S.delta_firings

(* every counter plus one per-predicate count — the full observable
   state of a Stats.t *)
let stats_tuple s =
  ( ( s.S.iterations,
      s.S.firings,
      s.S.facts,
      s.S.rederivations,
      s.S.probes,
      s.S.subqueries ),
    (s.S.overdeleted, s.S.rederived, s.S.delta_firings),
    S.facts_for s sym )

let fill i =
  let s = S.create () in
  s.S.iterations <- i;
  s.S.probes <- (7 * i) + 1;
  s.S.subqueries <- i + 2;
  s.S.overdeleted <- i;
  s.S.rederived <- 2 * i;
  s.S.delta_firings <- 3 * i;
  for _ = 1 to i do
    S.record_fact s sym ~is_new:true
  done;
  S.record_fact s sym ~is_new:false;
  s

(* absorb is the in-place merge: absorbing b into a copy of a must
   equal merge a b on every field *)
let test_absorb_equals_merge () =
  let a = fill 2 and b = fill 5 in
  let m = S.merge a b in
  let into = S.merge a (S.create ()) in
  S.absorb ~into b;
  Alcotest.(check bool) "absorb ~into:a b = merge a b" true
    (stats_tuple into = stats_tuple m);
  (* absorbing must deep-copy per-pred refs, like merge (PR 3 regression) *)
  S.record_fact b sym ~is_new:true;
  Alcotest.(check int) "later recording into b does not leak" 7 (S.facts_for into sym)

(* the combine must not depend on the order stats are folded in:
   commutative and associative on every field *)
let test_merge_commutative_associative () =
  let a = fill 1 and b = fill 3 and c = fill 4 in
  Alcotest.(check bool) "commutative" true
    (stats_tuple (S.merge a b) = stats_tuple (S.merge b a));
  Alcotest.(check bool) "associative" true
    (stats_tuple (S.merge (S.merge a b) c) = stats_tuple (S.merge a (S.merge b c)))

(* regression: an underflowing counter correction once produced a
   negative counter; absorbing one would silently corrupt every later
   report, so absorb rejects it on either side and leaves [into]
   untouched *)
let test_absorb_rejects_negative_counters () =
  let check_rejected label src =
    let into = fill 2 in
    let before = stats_tuple into in
    (match S.absorb ~into src with
    | () -> Alcotest.failf "%s: absorb accepted a negative counter" label
    | exception Invalid_argument _ -> ());
    Alcotest.(check bool) (label ^ ": into is untouched") true
      (stats_tuple into = before)
  in
  let negative field =
    let s = fill 1 in
    field s;
    s
  in
  check_rejected "probes" (negative (fun s -> s.S.probes <- -1));
  check_rejected "facts" (negative (fun s -> s.S.facts <- -3));
  (* a negative counter in the destination is just as much a bug *)
  let into = fill 1 in
  into.S.rederivations <- -5;
  (match S.absorb ~into (fill 2) with
  | () -> Alcotest.fail "absorb accepted a negative destination"
  | exception Invalid_argument _ -> ());
  (* all-zero and positive stats still absorb fine *)
  let into = S.create () in
  S.absorb ~into (fill 3);
  Alcotest.(check int) "normal absorb unaffected" 3 into.S.iterations

(* gc counters are per-domain: a multi-domain region's total is the sum
   of each domain's delta, folded with gc_add from the gc_zero identity *)
let test_gc_add () =
  let g1 =
    {
      S.minor_words = 10.;
      major_words = 4.;
      promoted_words = 2.;
      minor_collections = 3;
      major_collections = 1;
    }
  and g2 =
    {
      S.minor_words = 5.;
      major_words = 1.;
      promoted_words = 0.5;
      minor_collections = 2;
      major_collections = 0;
    }
  in
  Alcotest.(check bool) "gc_zero is the identity" true (S.gc_add S.gc_zero g1 = g1);
  let s = S.gc_add g1 g2 in
  Alcotest.(check bool) "pointwise sum" true
    (s.S.minor_words = 15. && s.S.major_words = 5. && s.S.promoted_words = 2.5
   && s.S.minor_collections = 5 && s.S.major_collections = 1);
  Alcotest.(check bool) "commutative" true (S.gc_add g1 g2 = S.gc_add g2 g1)

let test_engine_counts_are_consistent () =
  (* firings = facts + rederivations for every engine *)
  let p, q, edb =
    Helpers.load
      "t(X,Y) :- e(X,Y). t(X,Y) :- e(X,Z), t(Z,Y). e(a,b). e(b,c). e(b,a). ?- t(a, ?)."
  in
  ignore q;
  List.iter
    (fun out ->
      let s = out.Engine.Eval.stats in
      Alcotest.(check int) "firings = facts + rederivations" s.S.firings
        (s.S.facts + s.S.rederivations))
    [ Engine.Eval.naive p ~edb; Engine.Eval.seminaive p ~edb ]

let atom_t = Alcotest.testable Atom.pp Atom.equal

(* regression: a body literal whose predicate has no relation at all
   performs no index work and must not be counted as a probe *)
let test_probes_skip_missing_relations () =
  let s = S.create () in
  let db = Engine.Database.of_facts [ Helpers.atom "b(1)"; Helpers.atom "b(7)" ] in
  let derived = ref [] in
  Engine.Solve.fire_rule ~stats:s
    ~source:(fun _ sym -> Engine.Database.find db sym)
    ~neg_source:(fun sym -> Engine.Database.find db sym)
    ~on_fact:(fun h -> derived := h :: !derived)
    (Helpers.rule "a(X) :- b(X), c(X).");
  Alcotest.(check int) "only the existing relation is probed" 1 s.S.probes;
  Alcotest.(check (list atom_t)) "no facts derived" [] !derived

(* regression: negated builtins are evaluated natively and touch no
   relation, so they must not be counted as probes either *)
let test_probes_skip_negated_builtins () =
  let s = S.create () in
  let db = Engine.Database.of_facts [ Helpers.atom "b(1)"; Helpers.atom "b(7)" ] in
  let r =
    Rule.make
      (Atom.make "a" [ Term.Var "X" ])
      [
        Rule.Pos (Helpers.atom "b(X)");
        Rule.Neg (Atom.make "<" [ Term.Var "X"; Term.Int 5 ]);
      ]
  in
  let derived = ref [] in
  Engine.Solve.fire_rule ~stats:s
    ~source:(fun _ sym -> Engine.Database.find db sym)
    ~neg_source:(fun sym -> Engine.Database.find db sym)
    ~on_fact:(fun h -> derived := h :: !derived)
    r;
  Alcotest.(check int) "negated builtin counts no probe" 1 s.S.probes;
  Alcotest.(check (list atom_t)) "only b(7) passes the guard"
    [ Helpers.atom "a(7)" ] !derived

let suite =
  [
    Alcotest.test_case "record" `Quick test_record;
    Alcotest.test_case "merge" `Quick test_merge;
    Alcotest.test_case "merge never aliases" `Quick test_merge_never_aliases;
    Alcotest.test_case "merge sums maintenance counters" `Quick
      test_merge_sums_maintenance_counters;
    Alcotest.test_case "absorb equals merge" `Quick test_absorb_equals_merge;
    Alcotest.test_case "merge commutative and associative" `Quick
      test_merge_commutative_associative;
    Alcotest.test_case "absorb rejects negative counters" `Quick
      test_absorb_rejects_negative_counters;
    Alcotest.test_case "gc_add" `Quick test_gc_add;
    Alcotest.test_case "engine consistency" `Quick test_engine_counts_are_consistent;
    Alcotest.test_case "probes skip missing relations" `Quick
      test_probes_skip_missing_relations;
    Alcotest.test_case "probes skip negated builtins" `Quick
      test_probes_skip_negated_builtins;
  ]
