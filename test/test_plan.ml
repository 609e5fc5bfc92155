(* Unit tests of the rule-compilation layer (Plan): static binding
   patterns, key slots, per-delta-position instances with greedy
   reordering, head expressions, stamp-range execution, and every kind
   of literal (compound, arithmetic, builtin, negated, unsafe) checked
   against the reference engine. *)

open Datalog
open Helpers
module E = Engine

let sym name arity = Symbol.make name arity

let compile ?(delta = []) src =
  E.Plan.compile
    ~delta_preds:(Symbol.Set.of_list (List.map (fun (n, a) -> sym n a) delta))
    (rule src)

let scan_of = function
  | E.Plan.Scan s -> s
  | _ -> Alcotest.fail "expected a relation scan"

let bool_array = Alcotest.(array bool)

let test_patterns_and_slots () =
  let plan = compile ~delta:[ ("t", 2) ] "a(X, Y) :- e(X, Z), t(Z, Y)." in
  let base = plan.E.Plan.base in
  Alcotest.(check int) "two steps" 2 (Array.length base.E.Plan.steps);
  let se = scan_of base.E.Plan.steps.(0) in
  Alcotest.check bool_array "e: nothing bound yet" [| false; false |] se.E.Plan.pattern;
  Alcotest.(check int) "e: both positions free" 2 (Array.length se.E.Plan.free);
  (match se.E.Plan.free with
  | [| (0, E.Plan.Bind x); (1, E.Plan.Bind z) |] ->
    Alcotest.(check (pair int int)) "slots in binding order" (0, 1) (x, z)
  | _ -> Alcotest.fail "e: both positions should bind fresh slots");
  let st = scan_of base.E.Plan.steps.(1) in
  Alcotest.check bool_array "t: first position bound" [| true; false |]
    st.E.Plan.pattern;
  (match st.E.Plan.key with
  | [| E.Plan.Slot 1 |] -> ()
  | _ -> Alcotest.fail "t: key should be the slot of Z");
  Alcotest.(check bool) "head symbol" true (Symbol.equal base.E.Plan.head_sym (sym "a" 2));
  match base.E.Plan.head with
  | [| E.Plan.Slot 0; E.Plan.Slot 2 |] -> ()
  | _ -> Alcotest.fail "head should read the slots of X and Y"

let test_constant_keys () =
  let plan = compile "a(X) :- e(X, c)." in
  let se = scan_of plan.E.Plan.base.E.Plan.steps.(0) in
  Alcotest.check bool_array "constant position is bound" [| false; true |]
    se.E.Plan.pattern;
  match se.E.Plan.key with
  | [| E.Plan.Val v |] ->
    Alcotest.(check bool) "key is the interned constant c" true
      (Term.equal (E.Value.extern v) (Term.Sym "c"))
  | _ -> Alcotest.fail "key should be the constant c"

let test_all_bound_membership () =
  let plan = compile "a(X, Y) :- e(X, Y), f(X, Y)." in
  let sf = scan_of plan.E.Plan.base.E.Plan.steps.(1) in
  Alcotest.check bool_array "second literal fully bound" [| true; true |] sf.E.Plan.pattern;
  Alcotest.(check int) "no free positions" 0 (Array.length sf.E.Plan.free)

let test_dynamic_head_unsafe () =
  let plan = compile "a(X, Y) :- e(X)." in
  let steps = plan.E.Plan.base.E.Plan.steps in
  (match steps.(Array.length steps - 1) with
  | E.Plan.Unsafe _ -> ()
  | _ -> Alcotest.fail "an unbound head variable must end the plan in an Unsafe step");
  let db = E.Database.of_facts [ atom "e(v)" ] in
  Alcotest.(check bool) "running it raises Unsafe" true
    (try
       E.Plan.run ~source:(E.Plan.db_source db)
         ~neg_source:(E.Plan.db_source db)
         ~on_fact:(fun _ _ -> ())
         plan.E.Plan.base;
       false
     with E.Solve.Unsafe _ -> true)

let test_delta_instances () =
  (* one instance per body position reading a predicate of the stratum *)
  let plan = compile ~delta:[ ("t", 2) ] "t(X, Y) :- t(X, Z), t(Z, Y)." in
  Alcotest.(check (list int)) "nonlinear rule: two delta positions" [ 0; 1 ]
    (List.map fst plan.E.Plan.delta);
  let linear = compile ~delta:[ ("t", 2) ] "t(X, Y) :- e(X, Z), t(Z, Y)." in
  Alcotest.(check (list int)) "linear rule: one delta position" [ 1 ]
    (List.map fst linear.E.Plan.delta);
  (* the delta literal leads its instance; the base literal joins after
     it with the shared variable bound *)
  let inst = List.assoc 1 linear.E.Plan.delta in
  let first = scan_of inst.E.Plan.steps.(0) in
  Alcotest.(check int) "delta literal first" 1 first.E.Plan.lit;
  Alcotest.check bool_array "delta literal unconstrained" [| false; false |]
    first.E.Plan.pattern;
  let second = scan_of inst.E.Plan.steps.(1) in
  Alcotest.(check int) "base literal second" 0 second.E.Plan.lit;
  Alcotest.check bool_array "base literal joins on Z" [| false; true |]
    second.E.Plan.pattern;
  (* base preds never get delta instances *)
  Alcotest.(check (list int)) "no delta instances without stratum preds" []
    (List.map fst (compile "a(X, Y) :- e(X, Z), t(Z, Y).").E.Plan.delta)

let test_base_execution () =
  let db = E.Database.of_facts [ atom "e(n1, n2)"; atom "e(n2, n3)"; atom "t(n2, n4)" ] in
  let plan = compile ~delta:[ ("t", 2) ] "a(X, Y) :- e(X, Z), t(Z, Y)." in
  let facts = ref [] in
  E.Plan.run
    ~source:(E.Plan.db_source db)
    ~neg_source:(E.Plan.db_source db)
    ~on_fact:(fun s t -> facts := (s, E.Tuple.to_list t) :: !facts)
    plan.E.Plan.base;
  Alcotest.(check bool) "base instance solves left-to-right" true
    (!facts = [ (sym "a" 2, [ Term.Sym "n1"; Term.Sym "n4" ]) ])

let test_range_views () =
  (* the delta instance reads only the [lo, hi) stamp range of t *)
  let db = E.Database.of_facts [ atom "e(n1, n2)"; atom "e(n2, n3)" ] in
  let trel = E.Database.relation db (sym "t" 2) in
  let tadd a b = ignore (E.Relation.add trel (E.Tuple.of_list [ Term.Sym a; Term.Sym b ])) in
  tadd "n2" "n4";
  let d = E.Relation.size trel in
  tadd "n3" "n5";
  let plan = compile ~delta:[ ("t", 2) ] "a(X, Y) :- e(X, Z), t(Z, Y)." in
  let inst = List.assoc 1 plan.E.Plan.delta in
  let facts = ref [] in
  let source lit s =
    if lit = 1 then [ { E.Plan.rel = trel; lo = d; hi = E.Relation.size trel } ]
    else E.Plan.db_source db lit s
  in
  E.Plan.run ~source
    ~neg_source:(E.Plan.db_source db)
    ~on_fact:(fun _ t -> facts := E.Tuple.to_list t :: !facts)
    inst;
  (* only t(n3, n5) is in the delta range, so only a(n2, n5) is derived;
     joining through the pre-delta t(n2, n4) would also give a(n1, n4) *)
  Alcotest.(check int) "one fact" 1 (List.length !facts);
  Alcotest.(check bool) "a(n2, n5)" true ([ Term.Sym "n2"; Term.Sym "n5" ] = List.hd !facts)

let test_missing_relation_not_probed () =
  (* parity with Solve: a predicate with no relation costs no probe *)
  let db = E.Database.of_facts [ atom "b(1)" ] in
  let plan = compile "a(X) :- b(X), c(X)." in
  let s = E.Stats.create () in
  E.Plan.run ~stats:s
    ~source:(E.Plan.db_source db)
    ~neg_source:(E.Plan.db_source db)
    ~on_fact:(fun _ _ -> ())
    plan.E.Plan.base;
  Alcotest.(check int) "only b is probed" 1 s.E.Stats.probes

(* regression: executor scratch (env + key buffers) is allocated per
   run — a nested run fired from inside on_fact must not corrupt the
   outer run's keys the way the old shared key buffer did *)
let test_run_reentrant () =
  let facts =
    List.init 8 (fun i -> atom (Fmt.str "e(n%d, n%d)" i (i + 1)))
    @ List.init 9 (fun i -> atom (Fmt.str "t(n%d, m%d)" i i))
  in
  let db = E.Database.of_facts facts in
  let plan = compile "a(X, Y) :- e(X, Z), t(Z, Y)." in
  let base = plan.E.Plan.base in
  let source = E.Plan.db_source db in
  let run on_fact = E.Plan.run ~source ~neg_source:source ~on_fact base in
  let run_one () =
    let acc = ref [] in
    run (fun _ t -> acc := t :: !acc);
    !acc
  in
  let expected = run_one () in
  Alcotest.(check int) "expected solutions" 8 (List.length expected);
  let outer = ref [] in
  let nested_ok = ref true in
  run (fun _ t ->
      outer := t :: !outer;
      (* a full nested run of the same compiled form, mid-solution *)
      if run_one () <> expected then nested_ok := false);
  Alcotest.(check bool) "nested runs see correct keys" true !nested_ok;
  Alcotest.(check bool) "outer run unaffected by nested runs" true (!outer = expected)

(* The base instance of a rule derives exactly the facts the reference
   engine derives for the one-rule program, or fails the way it does
   ([Unsafe], or [Invalid_argument] from arithmetic over a symbol).
   When the reference succeeds, so does every delta instance (reading
   the full database), with the same facts; an unsafe rule may succeed
   under the greedy delta order, which defers an unready literal. *)
let agrees_with_reference name src facts =
  let r = rule src in
  let edb = E.Database.of_facts (List.map atom facts) in
  let hsym = Atom.symbol r.Rule.head in
  let head_facts db =
    List.sort Atom.compare
      (List.filter (fun a -> Symbol.equal (Atom.symbol a) hsym) (E.Database.all_facts db))
  in
  let reference =
    match E.Eval.seminaive_reference (Program.make [ r ]) ~edb with
    | out -> Ok (head_facts out.E.Eval.db)
    | exception E.Solve.Unsafe _ -> Error "unsafe"
    | exception Invalid_argument _ -> Error "invalid"
  in
  let body_preds =
    List.filter_map
      (function
        | Rule.Pos a when not (Atom.is_builtin a) -> Some (Atom.symbol a)
        | Rule.Pos _ | Rule.Neg _ -> None)
      r.Rule.body
  in
  let plan = E.Plan.compile ~delta_preds:(Symbol.Set.of_list body_preds) r in
  let source = E.Plan.db_source edb in
  let run inst =
    let db = E.Database.create () in
    match
      E.Plan.run ~source ~neg_source:source
        ~on_fact:(fun s t -> ignore (E.Database.add_tuple db s t))
        inst
    with
    | () -> Ok (head_facts db)
    | exception E.Solve.Unsafe _ -> Error "unsafe"
    | exception Invalid_argument _ -> Error "invalid"
  in
  let show = function
    | Ok facts -> Fmt.str "%a" (Fmt.list ~sep:Fmt.sp Atom.pp) facts
    | Error e -> e
  in
  List.iter
    (fun (what, inst) ->
      let got = run inst in
      if got <> reference then
        Alcotest.failf "%s, %s instance: plan %s, reference %s" name what (show got)
          (show reference))
    (("base", plan.E.Plan.base)
    ::
    (if Result.is_ok reference then
       List.map (fun (i, inst) -> (Fmt.str "delta@%d" i, inst)) plan.E.Plan.delta
     else []))

let test_compound_rules () =
  let lists = [ "l([1, 2, 3])"; "l([a])"; "l(f(b))"; "l([x, y])"; "e(1, 2)"; "e(3, 3)" ] in
  agrees_with_reference "destructure" "r(Y, X, T) :- l([X, Y | T])." lists;
  agrees_with_reference "repeated inside a compound" "s(X) :- l([X, X | T])."
    (lists @ [ "l([k, k])" ]);
  agrees_with_reference "compound head" "w(f(X, g(Y)), [X | Y]) :- e(X, Y)." lists;
  agrees_with_reference "compound key" "k(X) :- e(X, Y), l([X, Y])."
    (lists @ [ "l([1, 2])"; "l([3, 4])" ]);
  agrees_with_reference "bound compound matched" "m(T) :- e(X, Y), l([X, Y | T])."
    (lists @ [ "l([1, 2])" ])

let test_inverted_arithmetic () =
  let facts =
    [ "ix(7, a)"; "ix(8, b)"; "ix(4, c)"; "ix(c, d)"; "n(2)"; "n(3)"; "n(0)" ]
  in
  agrees_with_reference "x * c + d solved for x" "a(I, V) :- ix(I * 3 + 1, V)." facts;
  agrees_with_reference "c + x solved for x" "b(I) :- ix(1 + I, V)." facts;
  agrees_with_reference "arithmetic key" "c(N, V) :- n(N), ix(N * 3 + 1, V)." facts;
  agrees_with_reference "arithmetic head" "d(N * 10 + 1, f(N + 1)) :- n(N)." facts;
  agrees_with_reference "division never inverts" "e(I) :- ix(I / 2, V)." facts;
  agrees_with_reference "multiplication by zero" "z(I) :- ix(I * 0, V)." facts

let test_builtin_rules () =
  let facts = [ "e(1, 2)"; "e(2, 2)"; "e(3, 1)"; "e(a, b)"; "l([1, 2])"; "q(1)" ] in
  agrees_with_reference "comparison" "lt(X, Y) :- e(X, Y), X < Y." facts;
  agrees_with_reference "disequality" "ne(X, Y) :- e(X, Y), X <> Y." facts;
  agrees_with_reference "= binds a free side" "sq(X, Z) :- e(X, Y), Z = Y * 2." facts;
  agrees_with_reference "= checks a bound side" "eq(X) :- e(X, Y), Y = X + 1." facts;
  agrees_with_reference "= destructures" "hd(H, T) :- l(L), L = [H | T]." facts;
  agrees_with_reference "equality chain" "p(X) :- q(V), X = Y, Y = 3." facts;
  agrees_with_reference "= before its binder" "r(X, Y) :- X = f(Y), e(Y, Z)." facts;
  agrees_with_reference "unready comparison" "u(X) :- X < 3, q(X)." facts

let test_negated_rules () =
  let facts = [ "n(1)"; "n(2)"; "n(3)"; "b(2)"; "e(1, 1)"; "e(1, 2)"; "c(f(1))" ] in
  agrees_with_reference "negated relation" "o(X) :- n(X), not b(X)." facts;
  agrees_with_reference "negated compound key" "g(X) :- n(X), not c(f(X))." facts;
  agrees_with_reference "negated arithmetic key" "h(X) :- n(X), not b(X + 1)." facts;
  agrees_with_reference "negated builtin" "d(X, Y) :- e(X, Y), not X = Y." facts;
  agrees_with_reference "unready negation" "w(X) :- not b(X), n(X)." facts

let test_unsafe_head_rules () =
  let facts = [ "e(1)"; "l([1])" ] in
  agrees_with_reference "unbound head variable" "a(X, Y) :- e(X)." facts;
  agrees_with_reference "unbound inside a compound head" "b(f(X, Y)) :- e(X)." facts;
  agrees_with_reference "= binds a variable no relation binds" "c(X, Y) :- e(X), X = Y." facts

let suite =
  [
    Alcotest.test_case "patterns and slots" `Quick test_patterns_and_slots;
    Alcotest.test_case "constant keys" `Quick test_constant_keys;
    Alcotest.test_case "all-bound membership" `Quick test_all_bound_membership;
    Alcotest.test_case "dynamic head is unsafe" `Quick test_dynamic_head_unsafe;
    Alcotest.test_case "delta instances" `Quick test_delta_instances;
    Alcotest.test_case "base execution" `Quick test_base_execution;
    Alcotest.test_case "range views" `Quick test_range_views;
    Alcotest.test_case "missing relation not probed" `Quick
      test_missing_relation_not_probed;
    Alcotest.test_case "run is re-entrant" `Quick test_run_reentrant;
    Alcotest.test_case "compound rules = reference" `Quick test_compound_rules;
    Alcotest.test_case "inverted arithmetic = reference" `Quick test_inverted_arithmetic;
    Alcotest.test_case "builtins = reference" `Quick test_builtin_rules;
    Alcotest.test_case "negation = reference" `Quick test_negated_rules;
    Alcotest.test_case "unsafe heads = reference" `Quick test_unsafe_head_rules;
  ]
