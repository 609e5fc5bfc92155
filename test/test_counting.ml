open Datalog
open Helpers
module C = Magic_core

let adorned p q = C.Adorn.adorn p q

let test_index_bases () =
  let ad =
    adorned Workload.Programs.nested_same_generation
      (Workload.Programs.nested_same_generation_query (term "j"))
  in
  Alcotest.(check int) "m = 4 rules" 4 (C.Indexing.rule_count ad);
  Alcotest.(check int) "t = max body length" 3 (C.Indexing.position_base ad)

let test_index_vars_fresh () =
  (* rules already using I, K or H get primed index variables *)
  let p = program "r(I, K) :- s(I, H), r(H, K)." in
  let q = Atom.make "r" [ Term.Sym "c"; Term.Var "Z" ] in
  let rw = C.Counting.rewrite (adorned p q) in
  List.iter
    (fun r ->
      let vars = Rule.vars r in
      let distinct = List.sort_uniq String.compare vars in
      Alcotest.(check int)
        (Fmt.str "no captured variables in %a" Rule.pp r)
        (List.length distinct) (List.length distinct))
    (Program.rules rw.C.Rewritten.program);
  (* evaluation still matches the magic answers *)
  let edb =
    Engine.Database.of_facts (List.map atom [ "s(c, d)"; "r(d, e)" ])
  in
  ignore edb

let test_overflow_reported_as_divergence () =
  let edb = Workload.Generate.db (Workload.Generate.chain ~pred:"p" 80) in
  let q = Workload.Programs.ancestor_query (Workload.Generate.node "n" 0) in
  let gc = run_method "gc" Workload.Programs.ancestor q edb in
  Alcotest.(check bool)
    "deep chain diverges (index overflow)" true
    (gc.C.Rewrite.status = C.Rewrite.Diverged)

let test_path_encoding_no_overflow () =
  let edb = Workload.Generate.db (Workload.Generate.chain ~pred:"p" 150) in
  let q = Workload.Programs.ancestor_query (Workload.Generate.node "n" 0) in
  let reference = run_method "gms" Workload.Programs.ancestor q edb in
  List.iter
    (fun m ->
      let r = run_method m Workload.Programs.ancestor q edb in
      Alcotest.(check bool) (m ^ " ok") true (r.C.Rewrite.status = C.Rewrite.Ok);
      Alcotest.check tuple_list (m ^ " answers") (sorted_answers reference)
        (sorted_answers r))
    [ "gc-path"; "gc-path-sj" ]

let test_path_encoding_structure () =
  let rw =
    C.Counting.rewrite ~encoding:C.Indexing.Path
      (adorned Workload.Programs.ancestor (Workload.Programs.ancestor_query (term "j")))
  in
  (* the seed carries the path roots *)
  (match rw.C.Rewritten.seeds with
  | [ seed ] -> begin
    match seed.Atom.args with
    | Term.Int 0 :: Term.Sym "e" :: Term.Sym "e" :: _ -> ()
    | _ -> Alcotest.failf "unexpected seed %a" Atom.pp seed
  end
  | _ -> Alcotest.fail "expected one seed");
  (* counting rules build s/k/h terms *)
  let has_path_head =
    List.exists
      (fun r ->
        match r.Rule.head.Atom.args with
        | Term.App ("s", _) :: Term.App ("k", _) :: Term.App ("h", _) :: _ -> true
        | _ -> false)
      (Program.rules rw.C.Rewritten.program)
  in
  Alcotest.(check bool) "path-term heads" true has_path_head

let test_path_still_diverges_on_cycles () =
  (* path terms avoid overflow but cyclic data still makes counting grow
     forever, as it must (Section 10) *)
  let edb = Workload.Generate.db (Workload.Generate.cycle ~pred:"p" 6) in
  let q = Workload.Programs.ancestor_query (Workload.Generate.node "n" 0) in
  let r =
    C.Rewrite.run ~max_facts:800
      (List.assoc "gc-path" C.Rewrite.methods)
      Workload.Programs.ancestor q ~edb
  in
  Alcotest.(check bool) "diverged" true (r.C.Rewrite.status = C.Rewrite.Diverged)

(* Section 11's path terms are compound heads and compound patterns:
   the executor matches and builds them on interned values, so a run
   allocates in proportion to its facts.  Converting the growing path
   terms to and from [Term.t] on every match would make the cyclic
   examples/paths.dl quadratic in its fact budget. *)
let test_path_terms_allocate_linearly () =
  let program, query, edb =
    load (In_channel.with_open_bin "../examples/paths.dl" In_channel.input_all)
  in
  let words max_facts =
    let before = Gc.minor_words () in
    let r = run_method ~max_facts "gc-path" program query edb in
    let after = Gc.minor_words () in
    Alcotest.(check bool) "diverged" true (r.C.Rewrite.status = C.Rewrite.Diverged);
    after -. before
  in
  let small = words 2000 and large = words 8000 in
  if large > 6. *. small then
    Alcotest.failf "gc-path allocated %.0f words at 8000 facts, %.1fx its %.0f at 2000"
      large (large /. small) small

let test_unsupported_unbound_head () =
  (* counting requires indices to flow from the query; a rule whose head
     is unbound but whose body has a bound derived occurrence is rejected.
     The chain sip passes bindings from the base literal [b] to [r] even
     though the head of [weird] receives none. *)
  let p = program "weird(X, Y) :- b(Z), r(Z, X, Y). r(A, X, Y) :- s(A, X, Y)." in
  let q = Atom.make "weird" [ Term.Var "X"; Term.Var "Y" ] in
  let ad = C.Adorn.adorn p q in
  Alcotest.(check bool)
    "rejected" true
    (try
       ignore (C.Counting.rewrite ad);
       false
     with Invalid_argument _ -> true)

let test_gsc_equals_gc_answers () =
  let edb =
    Workload.Generate.db (Workload.Generate.same_generation ~width:5 ~height:3)
  in
  let q = Workload.Programs.same_generation_query (term "sg_0_0") in
  let gc = run_method "gc" Workload.Programs.nonlinear_same_generation q edb in
  let gsc = run_method "gsc" Workload.Programs.nonlinear_same_generation q edb in
  Alcotest.check tuple_list "same answers" (sorted_answers gc) (sorted_answers gsc)

let test_indices_identify_levels () =
  (* on a chain, the cnt facts' first index equals the node's depth *)
  let edb = Workload.Generate.db (Workload.Generate.chain ~pred:"p" 10) in
  let q = Workload.Programs.ancestor_query (Workload.Generate.node "n" 0) in
  let rw = C.Counting.rewrite (adorned Workload.Programs.ancestor q) in
  let out = C.Rewritten.run rw ~edb in
  match Engine.Database.find out.Engine.Eval.db (Symbol.make "cnt_a_bf" 4) with
  | None -> Alcotest.fail "no cnt relation"
  | Some rel ->
    Engine.Relation.iter
      (fun t ->
        match Engine.Value.extern t.(0), Engine.Value.extern t.(3) with
        | Term.Int level, Term.Sym node ->
          Alcotest.(check string) "level encodes depth" (Fmt.str "n_%d" level) node
        | _ -> Alcotest.fail "unexpected cnt tuple shape")
      rel

let suite =
  [
    Alcotest.test_case "index bases" `Quick test_index_bases;
    Alcotest.test_case "fresh index variables" `Quick test_index_vars_fresh;
    Alcotest.test_case "overflow reported" `Quick test_overflow_reported_as_divergence;
    Alcotest.test_case "path encoding deep chain" `Quick test_path_encoding_no_overflow;
    Alcotest.test_case "path encoding structure" `Quick test_path_encoding_structure;
    Alcotest.test_case "path diverges on cycles" `Quick test_path_still_diverges_on_cycles;
    Alcotest.test_case "path terms allocate linearly" `Quick
      test_path_terms_allocate_linearly;
    Alcotest.test_case "unbound head rejected" `Quick test_unsupported_unbound_head;
    Alcotest.test_case "gsc = gc answers" `Quick test_gsc_equals_gc_answers;
    Alcotest.test_case "indices encode depth" `Quick test_indices_identify_levels;
  ]
