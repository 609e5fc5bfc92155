(* Correctness checks, run after the timed window.

   Eval answers are compared with a top-down or seed-engine evaluation
   of the original program (evaluators [magic eval --strategy auto]
   never picks), once per distinct input.  Serve answers are replayed in epoch
   order: each read must equal the reachability set of its key over the
   base graph plus every transaction acknowledged at or before the
   read's epoch.  Reads after the crash-restart must see every
   acknowledged write.  The reachability reference is a plain graph
   search, checked against tabled evaluation of the program on the base
   graph before it is trusted. *)

open Datalog

type verdict = { checked : int; wrong : int; lost : int; messages : string list }

let ok_verdict = { checked = 0; wrong = 0; lost = 0; messages = [] }

let add_message v m =
  (* keep the report short: the first few mismatches say enough *)
  if List.length v.messages < 8 then { v with messages = v.messages @ [ m ] } else v

(* ------------------------------------------------------------------ *)
(* eval-oneshot                                                        *)
(* ------------------------------------------------------------------ *)

let tuple_string t = Fmt.str "%a" Engine.Tuple.pp t

(* per family, an evaluator the CLI's auto choice never runs: SLD
   resolution where the data is acyclic (it is exact there, and tabling
   pays for its fixpoint passes on long chains), tabling on the bushy
   same-generation tree, and the seed engine's semi-naive loop over the
   original program on the cyclic dense graph *)
let eval_reference (e : Gen.eval_input) =
  let edb = Engine.Database.of_facts e.Gen.facts in
  let name = Gen.eval_file_name e in
  let topdown (r : Engine.Topdown.result) =
    if not r.Engine.Topdown.complete then
      failwith (Printf.sprintf "reference evaluation of %s did not complete" name);
    r.Engine.Topdown.answers
  in
  let answers =
    match e.Gen.family with
    | "ancestor" | "hub" | "reverse" -> topdown (Engine.Topdown.sld e.Gen.program ~edb e.Gen.query)
    | "sg" -> topdown (Engine.Topdown.tabled e.Gen.program ~edb e.Gen.query)
    | _ ->
      let out = Engine.Eval.seminaive_reference e.Gen.program ~edb in
      if out.Engine.Eval.diverged then failwith ("reference evaluation of " ^ name ^ " diverged");
      Engine.Eval.answers out e.Gen.query
  in
  List.sort_uniq String.compare (List.map tuple_string answers)

(* [magic eval] prints one answer tuple per line, then a
   [% method=... status=...] line *)
let parse_eval_output text =
  let lines = String.split_on_char '\n' text in
  let answers = List.filter (fun l -> l <> "" && l.[0] <> '%') lines in
  let status_ok =
    List.exists
      (fun l ->
        String.length l > 9
        && String.sub l 0 9 = "% method="
        && List.mem "status=ok" (String.split_on_char ' ' l))
      lines
  in
  (List.sort_uniq String.compare answers, List.length answers, status_ok)

(* [outputs]: (file name, output text, invocations that printed it) *)
let check_eval ~seed outputs =
  let memo = Hashtbl.create 32 in
  let reference file =
    match Hashtbl.find_opt memo file with
    | Some r -> r
    | None ->
      let e =
        match List.find_opt (fun e -> Gen.eval_file_name e = file) (Gen.eval_pool ~seed) with
        | Some e -> e
        | None when file = "warmup.dl" -> Gen.warmup_input ~seed
        | None -> failwith ("no generated input named " ^ file)
      in
      let r = eval_reference e in
      Hashtbl.replace memo file r;
      r
  in
  List.fold_left
    (fun v (file, text, count) ->
      let answers, printed, status_ok = parse_eval_output text in
      let expected = reference file in
      let v = { v with checked = v.checked + count } in
      if not status_ok then
        add_message { v with wrong = v.wrong + count } (file ^ ": no status=ok line")
      else if answers <> expected || printed <> List.length answers then
        add_message { v with wrong = v.wrong + count }
          (Printf.sprintf "%s: %d answers printed, reference has %d" file printed
             (List.length expected))
      else v)
    ok_verdict outputs

(* ------------------------------------------------------------------ *)
(* serve-*                                                             *)
(* ------------------------------------------------------------------ *)

(* what the load process saw, one entry per reply it received *)
type record =
  | Read_reply of { conn : int; idx : int; epoch : int; rows : string list }
  | Txn_reply of { conn : int; idx : int; epoch : int }
  | After_restart of { key : int; rows : string list }

type graph = (string, (string, unit) Hashtbl.t) Hashtbl.t

let edge_ends (a : Atom.t) =
  match a.Atom.args with
  | [ x; y ] -> (Term.to_string x, Term.to_string y)
  | _ -> invalid_arg "edge_ends"

let apply (g : graph) = function
  | Gen.Insert a ->
    let x, y = edge_ends a in
    let succ =
      match Hashtbl.find_opt g x with
      | Some s -> s
      | None ->
        let s = Hashtbl.create 4 in
        Hashtbl.replace g x s;
        s
    in
    Hashtbl.replace succ y ()
  | Gen.Delete a -> (
    let x, y = edge_ends a in
    match Hashtbl.find_opt g x with Some s -> Hashtbl.remove s y | None -> ())
  | Gen.Read _ -> ()

let graph_of facts : graph =
  let g = Hashtbl.create 4096 in
  List.iter (fun a -> apply g (Gen.Insert a)) facts;
  g

(* rows of tc(src, Ans): [src, y] for every y reachable in >= 1 step *)
let reach_rows (g : graph) src =
  let seen = Hashtbl.create 64 in
  let rec go x =
    match Hashtbl.find_opt g x with
    | None -> ()
    | Some succ ->
      Hashtbl.iter
        (fun y () ->
          if not (Hashtbl.mem seen y) then begin
            Hashtbl.replace seen y ();
            go y
          end)
        succ
  in
  go src;
  List.sort String.compare (Hashtbl.fold (fun y () acc -> (src ^ "," ^ y) :: acc) seen [])

let key_name k = Term.to_string (Gen.key k)

(* the graph search must agree with the program's own semantics *)
let validate_reference base =
  let edb = Engine.Database.of_facts base in
  let g = graph_of base in
  List.iter
    (fun k ->
      let r = Engine.Topdown.tabled Gen.serve_program ~edb (Workload.Programs.tc_query (Gen.key k)) in
      let tabled =
        List.sort String.compare
          (List.map
             (fun t -> String.concat "," (List.map Term.to_string (Engine.Tuple.to_list t)))
             r.Engine.Topdown.answers)
      in
      if tabled <> reach_rows g (key_name k) then
        failwith (Printf.sprintf "reference self-check failed on key %d" k))
    [ 0; 1; 2 ]

let check_serve ~base ~(streams : Gen.request array array) records =
  validate_reference base;
  let request conn idx =
    if conn < 0 || conn >= Array.length streams || idx < 0 || idx >= Array.length streams.(conn)
    then failwith (Printf.sprintf "record names no request (%d, %d)" conn idx)
    else streams.(conn).(idx)
  in
  let txns =
    List.filter_map
      (function Txn_reply { conn; idx; epoch } -> Some (epoch, request conn idx) | _ -> None)
      records
    |> List.stable_sort (fun (a, _) (b, _) -> Int.compare a b)
  in
  let reads =
    List.filter_map
      (function
        | Read_reply { conn; idx; epoch; rows } -> (
          match request conn idx with
          | Gen.Read k -> Some (epoch, k, rows)
          | _ -> failwith (Printf.sprintf "read reply for a txn request (%d, %d)" conn idx))
        | _ -> None)
      records
    |> List.stable_sort (fun (a, _, _) (b, _, _) -> Int.compare a b)
  in
  let v = ref ok_verdict in
  (* two commits acknowledged with one epoch cannot both be right *)
  let rec distinct = function
    | (e1, _) :: ((e2, _) :: _ as rest) ->
      if e1 = e2 then
        v := add_message { !v with wrong = !v.wrong + 1 } (Printf.sprintf "two commits at epoch %d" e1);
      distinct rest
    | _ -> ()
  in
  distinct txns;
  let g = graph_of base in
  let applied = ref 0 in
  let memo = Hashtbl.create 4096 in
  let rec walk txns reads =
    match (txns, reads) with
    | _, [] -> txns
    | (te, op) :: txns', (qe, _, _) :: _ when te <= qe ->
      apply g op;
      incr applied;
      walk txns' reads
    | _, (qe, k, rows) :: reads' ->
      let expected =
        match Hashtbl.find_opt memo (!applied, k) with
        | Some r -> r
        | None ->
          let r = reach_rows g (key_name k) in
          Hashtbl.replace memo (!applied, k) r;
          r
      in
      v := { !v with checked = !v.checked + 1 };
      if List.sort String.compare rows <> expected then
        v :=
          add_message { !v with wrong = !v.wrong + 1 }
            (Printf.sprintf "tc(k_%d, Ans) at epoch %d: %d rows, reference has %d" k qe
               (List.length rows) (List.length expected));
      walk txns reads'
  in
  let rest = walk txns reads in
  List.iter (fun (_, op) -> apply g op) rest;
  (* every acknowledged write must survive the crash-restart *)
  List.iter
    (function
      | After_restart { key; rows } ->
        let expected = reach_rows g (key_name key) in
        v := { !v with checked = !v.checked + 1 };
        if List.sort String.compare rows <> expected then
          v :=
            add_message { !v with lost = !v.lost + 1 }
              (Printf.sprintf "after restart tc(k_%d, Ans) has %d rows, acknowledged state has %d"
                 key (List.length rows) (List.length expected))
      | _ -> ())
    records;
  !v

(* record file written by the load process: one reply per line,
   [R conn idx epoch row...], [T conn idx epoch] or [D key row...]; a
   row is its components joined by commas *)
let parse_records path =
  In_channel.with_open_bin path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter_map (fun line ->
         match String.split_on_char ' ' line with
         | "R" :: conn :: idx :: epoch :: rows ->
           Some
             (Read_reply
                { conn = int_of_string conn; idx = int_of_string idx; epoch = int_of_string epoch; rows })
         | [ "T"; conn; idx; epoch ] ->
           Some (Txn_reply { conn = int_of_string conn; idx = int_of_string idx; epoch = int_of_string epoch })
         | "D" :: key :: rows -> Some (After_restart { key = int_of_string key; rows })
         | [ "" ] -> None
         | _ -> failwith ("malformed record line: " ^ line))

let verdict_json v =
  Printf.sprintf "{\"checked\": %d, \"wrong\": %d, \"lost\": %d, \"messages\": [%s]}" v.checked
    v.wrong v.lost
    (String.concat ", " (List.map (fun m -> Printf.sprintf "%S" m) v.messages))
