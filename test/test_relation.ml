open Datalog
open Helpers

let tup l = Engine.Tuple.of_list (List.map term l)

let test_add_mem () =
  let r = Engine.Relation.create 2 in
  Alcotest.(check bool) "new" true (Engine.Relation.add r (tup [ "a"; "b" ]));
  Alcotest.(check bool) "dup" false (Engine.Relation.add r (tup [ "a"; "b" ]));
  Alcotest.(check bool) "mem" true (Engine.Relation.mem r (tup [ "a"; "b" ]));
  Alcotest.(check bool) "not mem" false (Engine.Relation.mem r (tup [ "b"; "a" ]));
  Alcotest.(check int) "cardinal" 1 (Engine.Relation.cardinal r)

let test_arity_check () =
  let r = Engine.Relation.create 2 in
  Alcotest.(check bool)
    "arity mismatch raises" true
    (try
       ignore (Engine.Relation.add r (tup [ "a" ]));
       false
     with Invalid_argument _ -> true)

let test_lookup () =
  let r = Engine.Relation.create 2 in
  List.iter
    (fun (a, b) -> ignore (Engine.Relation.add r (tup [ a; b ])))
    [ ("a", "b"); ("a", "c"); ("d", "b") ];
  let hits =
    Engine.Relation.lookup r ~pattern:[| true; false |] ~key:(tup [ "a" ])
  in
  Alcotest.(check int) "prefix lookup" 2 (List.length hits);
  let hits2 =
    Engine.Relation.lookup r ~pattern:[| false; true |] ~key:(tup [ "b" ])
  in
  Alcotest.(check int) "suffix lookup" 2 (List.length hits2);
  let all = Engine.Relation.lookup r ~pattern:[| false; false |] ~key:[||] in
  Alcotest.(check int) "scan" 3 (List.length all)

let test_index_updates () =
  (* indexes built before inserts must see subsequent inserts *)
  let r = Engine.Relation.create 2 in
  ignore (Engine.Relation.add r (tup [ "a"; "b" ]));
  ignore (Engine.Relation.lookup r ~pattern:[| true; false |] ~key:(tup [ "a" ]));
  ignore (Engine.Relation.add r (tup [ "a"; "c" ]));
  Alcotest.(check int)
    "index sees later insert" 2
    (List.length (Engine.Relation.lookup r ~pattern:[| true; false |] ~key:(tup [ "a" ])))

let prop_lookup_is_filter =
  qtest ~count:100 "lookup = filter on projection"
    (QCheck2.Gen.pair gen_edges (QCheck2.Gen.int_bound 9))
    (fun (edges, k) ->
      let r = Engine.Relation.create 2 in
      List.iter
        (fun (a, b) ->
          ignore
            (Engine.Relation.add r
               (tup [ Fmt.str "n%d" a; Fmt.str "n%d" b ])))
        edges;
      let key = tup [ Fmt.str "n%d" k ] in
      let by_index =
        List.sort Engine.Tuple.compare
          (Engine.Relation.lookup r ~pattern:[| true; false |] ~key)
      in
      let by_scan =
        List.sort Engine.Tuple.compare
          (List.filter
             (fun t -> Engine.Value.equal t.(0) key.(0))
             (Engine.Relation.to_list r))
      in
      List.equal Engine.Tuple.equal by_index by_scan)

(* index coherence under arbitrary interleavings of adds, removes and
   re-adds: an index built before the mutations must keep agreeing with
   a filtered scan on every probe key, and removed entries must not
   resurface *)
let prop_index_coherent_under_removal =
  let gen_ops =
    QCheck2.Gen.list_size (QCheck2.Gen.int_range 0 30)
      (QCheck2.Gen.triple QCheck2.Gen.bool (QCheck2.Gen.int_bound 5)
         (QCheck2.Gen.int_bound 5))
  in
  qtest ~count:100 "index = scan under remove/re-add"
    (QCheck2.Gen.pair gen_edges gen_ops)
    (fun (edges, ops) ->
      let r = Engine.Relation.create 2 in
      let n i = Fmt.str "n%d" i in
      (* build both indexes up front so every mutation must maintain them *)
      ignore (Engine.Relation.lookup r ~pattern:[| true; false |] ~key:(tup [ n 0 ]));
      ignore (Engine.Relation.lookup r ~pattern:[| false; true |] ~key:(tup [ n 0 ]));
      List.iter (fun (a, b) -> ignore (Engine.Relation.add r (tup [ n a; n b ]))) edges;
      List.iter
        (fun (add, a, b) ->
          let t = tup [ n a; n b ] in
          if add then ignore (Engine.Relation.add r t)
          else ignore (Engine.Relation.remove r t))
        ops;
      let scan = Engine.Relation.to_list r in
      let coherent pattern pos k =
        let key = tup [ n k ] in
        let by_index =
          List.sort Engine.Tuple.compare (Engine.Relation.lookup r ~pattern ~key)
        in
        let by_scan =
          List.sort Engine.Tuple.compare
            (List.filter (fun t -> Engine.Value.equal t.(pos) key.(0)) scan)
        in
        List.equal Engine.Tuple.equal by_index by_scan
      in
      List.for_all
        (fun k -> coherent [| true; false |] 0 k && coherent [| false; true |] 1 k)
        [ 0; 1; 2; 3; 4; 5 ])

(* ---- the shared selector: the indexed path, the scan path and a
   filtered log scan must agree on random relations ---- *)

let sel_value i = if i = 5 then Term.App ("f", [ Term.Sym "n1" ]) else Term.Sym (Fmt.str "n%d" i)

(* argument choices: interned constants, one never-interned constant,
   variables (repeats allowed) and a non-ground compound *)
let sel_arg = function
  | (0 | 1 | 2 | 3 | 4 | 5) as i -> sel_value i
  | 6 -> Term.Sym "never_interned_by_any_test"
  | 7 -> Term.Var "X"
  | 8 -> Term.Var "Y"
  | _ -> Term.App ("f", [ Term.Var "X" ])

let prop_select_indexed_is_scan =
  let open QCheck2.Gen in
  let gen_tuple = triple (int_bound 5) (int_bound 5) (int_bound 5) in
  let gen_ops = list_size (int_range 0 40) (pair bool gen_tuple) in
  let gen_args = triple (int_bound 9) (int_bound 9) (int_bound 9) in
  qtest ~count:300 "select: indexed = scan = filtered log"
    (quad gen_ops gen_args (int_bound 50) (int_bound 50))
    (fun (ops, (a, b, c), lo, hi) ->
      let args = List.map sel_arg [ a; b; c ] in
      let build ~indexed =
        let r = Engine.Relation.create 3 in
        if indexed then Engine.Relation.prepare r args;
        List.iter
          (fun (add, (x, y, z)) ->
            let t = Engine.Tuple.of_list (List.map sel_value [ x; y; z ]) in
            ignore (if add then Engine.Relation.add r t else Engine.Relation.remove r t))
          ops;
        r
      in
      let with_index = build ~indexed:true and without = build ~indexed:false in
      let lo = min lo hi and hi = max lo hi in
      let select r =
        let acc = ref [] in
        Engine.Relation.select r ~lo ~hi args (fun t -> acc := t :: !acc);
        List.sort Engine.Tuple.compare !acc
      in
      let reference =
        let acc = ref [] in
        Engine.Relation.iter_in without ~lo ~hi (fun t ->
            if Option.is_some (Subst.match_list args (Engine.Tuple.to_list t) Subst.empty)
            then acc := t :: !acc);
        List.sort Engine.Tuple.compare !acc
      in
      select with_index = reference
      && select without = reference
      && Engine.Relation.indexed without = [])

(* a callback that inserts into and removes from the relation it is
   traversing sees the bucket as it was when the traversal started *)
let test_traversal_snapshot () =
  let r = Engine.Relation.create 2 in
  let row i = tup [ "k"; Fmt.str "v%d" i ] in
  List.iter (fun i -> ignore (Engine.Relation.add r (row i))) [ 0; 1; 2; 3 ];
  let key = tup [ "k" ] in
  let check name traverse =
    let seen = ref [] in
    let first = ref true in
    traverse (fun t ->
        seen := t :: !seen;
        if !first then begin
          first := false;
          List.iter (fun i -> ignore (Engine.Relation.add r (row i))) [ 10; 11; 12; 13; 14 ];
          (* one visited, one not yet visited: both stay in the view *)
          ignore (Engine.Relation.remove r t);
          ignore (Engine.Relation.remove r (row 0))
        end);
    Alcotest.check tuple_list name
      (List.sort Engine.Tuple.compare (List.map row [ 0; 1; 2; 3 ]))
      (List.sort Engine.Tuple.compare !seen)
  in
  check "iter_matching" (Engine.Relation.iter_matching r ~pattern:[| true; false |] ~key);
  (* restore the four rows, dropping the inserted ones *)
  List.iter (fun i -> ignore (Engine.Relation.remove r (row i))) [ 10; 11; 12; 13; 14 ];
  List.iter (fun i -> ignore (Engine.Relation.add r (row i))) [ 0; 1; 2; 3 ];
  (* the index iter_matching built is the one select probes *)
  check "select" (Engine.Relation.select r [ Term.Sym "k"; Term.Var "V" ])

(* snapshot reads probe what the writer prepared and never build an
   index themselves *)
let test_snapshot_reads_build_no_index () =
  let db = Engine.Database.of_facts [ atom "p(a, b)"; atom "p(a, c)"; atom "p(b, c)" ] in
  let rel = Option.get (Engine.Database.find db (Symbol.make "p" 2)) in
  let snap = Engine.Snapshot.capture ~epoch:0 db in
  let read () =
    ignore (Engine.Snapshot.mem snap (atom "p(a, b)"));
    List.length (Engine.Snapshot.matching snap (atom "p(a, X)"))
    + List.length (Engine.Snapshot.matching snap (atom "p(X, c)"))
    + List.length (Engine.Snapshot.matching snap (atom "p(X, X)"))
  in
  Alcotest.(check int) "scanned answers" 4 (read ());
  Alcotest.(check int) "no index built" 0 (List.length (Engine.Relation.indexed rel));
  Engine.Relation.prepare rel [ Term.Sym "a"; Term.Var "X" ];
  Alcotest.(check int) "probed answers" 4 (read ());
  Alcotest.(check (list (array bool))) "only the prepared index" [ [| true; false |] ]
    (Engine.Relation.indexed rel)

let test_remove () =
  let r = Engine.Relation.create 2 in
  ignore (Engine.Relation.add r (tup [ "a"; "b" ]));
  ignore (Engine.Relation.add r (tup [ "a"; "c" ]));
  Alcotest.(check bool) "removed" true (Engine.Relation.remove r (tup [ "a"; "b" ]));
  Alcotest.(check bool) "absent now" false (Engine.Relation.mem r (tup [ "a"; "b" ]));
  Alcotest.(check bool) "remove absent" false (Engine.Relation.remove r (tup [ "a"; "b" ]));
  Alcotest.(check int) "cardinal excludes removed" 1 (Engine.Relation.cardinal r);
  Alcotest.(check int)
    "iteration skips removed" 1
    (List.length (Engine.Relation.to_list r));
  Alcotest.(check int)
    "index skips removed" 0
    (List.length
       (Engine.Relation.lookup r ~pattern:[| true; true |] ~key:(tup [ "a"; "b" ])))

let test_remove_readd_stamps () =
  (* a removed tuple's stamp is retired: re-insertion gets a fresh stamp,
     so a delta window [w, size) sees the re-added tuple *)
  let r = Engine.Relation.create 2 in
  ignore (Engine.Relation.add r (tup [ "a"; "b" ]));
  ignore (Engine.Relation.add r (tup [ "c"; "d" ]));
  ignore (Engine.Relation.remove r (tup [ "a"; "b" ]));
  let w = Engine.Relation.size r in
  Alcotest.(check bool) "re-added as new" true (Engine.Relation.add r (tup [ "a"; "b" ]));
  Alcotest.(check bool)
    "not in the pre-watermark range" false
    (Engine.Relation.mem_in r ~lo:0 ~hi:w (tup [ "a"; "b" ]));
  Alcotest.(check bool)
    "in the delta range" true
    (Engine.Relation.mem_in r ~lo:w ~hi:(Engine.Relation.size r) (tup [ "a"; "b" ]));
  let in_delta = ref [] in
  Engine.Relation.iter_in r ~lo:w ~hi:(Engine.Relation.size r) (fun t ->
      in_delta := t :: !in_delta);
  Alcotest.(check int) "delta iteration sees exactly it" 1 (List.length !in_delta);
  Alcotest.(check int) "cardinal" 2 (Engine.Relation.cardinal r)

let test_remove_copy () =
  let r = Engine.Relation.create 2 in
  ignore (Engine.Relation.add r (tup [ "a"; "b" ]));
  ignore (Engine.Relation.add r (tup [ "c"; "d" ]));
  ignore (Engine.Relation.remove r (tup [ "a"; "b" ]));
  let c = Engine.Relation.copy r in
  Alcotest.(check int) "copy drops tombstones" 1 (Engine.Relation.cardinal c);
  Alcotest.(check bool) "copy mem" true (Engine.Relation.mem c (tup [ "c"; "d" ]))

let test_database () =
  let db = Engine.Database.create () in
  ignore (Engine.Database.add_fact db (atom "p(a, b)"));
  ignore (Engine.Database.add_fact db (atom "p(b, c)"));
  ignore (Engine.Database.add_fact db (atom "q(a)"));
  Alcotest.(check int) "total" 3 (Engine.Database.total db);
  Alcotest.(check int) "per pred" 2 (Engine.Database.cardinal db (Symbol.make "p" 2));
  Alcotest.(check bool) "mem" true (Engine.Database.mem db (atom "p(a, b)"));
  let copy = Engine.Database.copy db in
  ignore (Engine.Database.add_fact copy (atom "q(z)"));
  Alcotest.(check int) "copy isolated" 3 (Engine.Database.total db);
  Alcotest.(check bool)
    "non-ground rejected" true
    (try
       ignore (Engine.Database.add_fact db (atom "p(X, b)"));
       false
     with Invalid_argument _ -> true)

let test_database_arith_normalized () =
  let db = Engine.Database.create () in
  ignore (Engine.Database.add_fact db (Atom.make "n" [ term "1 + 2" ]));
  Alcotest.(check bool) "stored evaluated" true (Engine.Database.mem db (atom "n(3)"))

let suite =
  [
    Alcotest.test_case "add/mem" `Quick test_add_mem;
    Alcotest.test_case "arity check" `Quick test_arity_check;
    Alcotest.test_case "lookup" `Quick test_lookup;
    Alcotest.test_case "index updates" `Quick test_index_updates;
    prop_lookup_is_filter;
    prop_index_coherent_under_removal;
    Alcotest.test_case "remove" `Quick test_remove;
    Alcotest.test_case "remove/re-add stamps" `Quick test_remove_readd_stamps;
    Alcotest.test_case "copy after remove" `Quick test_remove_copy;
    Alcotest.test_case "database" `Quick test_database;
    Alcotest.test_case "database arith" `Quick test_database_arith_normalized;
    prop_select_indexed_is_scan;
    Alcotest.test_case "traversal sees a snapshot" `Quick test_traversal_snapshot;
    Alcotest.test_case "snapshot reads build no index" `Quick test_snapshot_reads_build_no_index;
  ]
