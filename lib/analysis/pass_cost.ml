(* Cost-based strategy selection: estimate every candidate rewrite with
   Pass_card over its rewritten program (magic seeds installed as
   facts), exclude the ones the Section 10 report or the data shape
   prove unsafe, and rank the rest by estimated work. *)

open Datalog
module C = Magic_core

type verdict = Viable | Inapplicable of string | Excluded of string

type estimate = {
  name : string;
  method_ : C.Rewrite.method_;
  verdict : verdict;
  est_magic : float;
  est_facts : float;
  est_probes : float;
  est_rounds : float;
  widened : string list;
  score : float;
}

type t = {
  winner : estimate;
  ranked : estimate list;
  universe : float;
  measured : bool;
  edb_facts : int;
  rounds_bound : float;
  diagnostics : Diagnostic.t list;
}

let fact_weight = 4.

(* Constant runtime weight of each strategy's machinery.  [est_probes]
   and [est_facts] count operations, but not every operation costs the
   same: a counting derivation carries index arithmetic on every tuple
   and reconstructs answers through the index-decrement rules, which
   the plan engine executes 2-3x slower than a plain magic probe of
   equal cardinality (Table OPT calibrates this).  The semijoin
   variants shed join probes but keep the index machinery. *)
let runtime_weight = function
  | "gc" | "gsc" -> 2.5
  | "gc-sj" | "gsc-sj" -> 2.
  | _ -> 1.

(* tie-break order: cheaper machinery first at equal scores.  The
   [-chain] and [-bound] variants vary the sip {e collection}: chain
   passes only adjacent-literal bindings, bound passes only the head's
   bound variables — both can beat the full sip when intermediate
   bindings blow up the supplementary relations, and lose badly when
   dropping a binding unleashes an unrestricted sub-join.  They sit
   after their full-sip counterparts so ties keep the historical
   pick. *)
let candidate_names =
  [
    "seminaive";
    "gms";
    "gsms";
    "gms-chain";
    "gsms-chain";
    "gms-bound";
    "gsms-bound";
    "gc";
    "gc-sj";
    "gsc";
    "gsc-sj";
  ]

let candidates =
  List.filter_map
    (fun n ->
      Option.map (fun m -> (n, m)) (List.assoc_opt n C.Rewrite.methods))
    candidate_names

let is_counting = function
  | C.Rewrite.Rewritten_bottom_up ((C.Rewrite.GC | C.Rewrite.GSC), _) -> true
  | _ -> false

(* generated guard predicates of a rewritten program: the recursion
   carriers whose growth the descent analysis has to model *)
let is_guard naming pred =
  match C.Naming.role naming pred with
  | Some
      ( C.Naming.Magic _ | C.Naming.Label _ | C.Naming.Supp _ | C.Naming.Cnt _
      | C.Naming.Supcnt _ ) ->
    true
  | _ -> false

let is_magic naming pred =
  match C.Naming.role naming pred with Some (C.Naming.Magic _) -> true | _ -> false

(* ---- the per-choice context ----

   Everything one [choose] measures or derives once and shares between
   candidates: the extensional statistics, the descent graphs (keyed by
   the walked relation orientations), the cardinality analyses (keyed
   by rewritten program, seeds and the index-cap regime), and the gms
   rewrite the near-tie resolution reads. *)

(* everything a rewritten candidate's analysis reads: the column caps
   and est_magic also depend on which predicates the naming marks as
   guards and as magic *)
type card_key = {
  rules : Rule.t list;
  seeds : Atom.t list;
  counting : bool;
  guards : (bool * bool) list;  (** (guard, magic) role of each predicate *)
}

type ctx = {
  db : Engine.Database.t option;
  edb : Pass_card.edb option;
  measured : bool;
  universe : float;
  rounds_bound : float;
  graphs : ((Symbol.t * bool) list, Pass_card.graph) Hashtbl.t;
  mutable cards : (card_key * (float * Pass_card.t)) list;
  mutable gms : C.Rewritten.t option;
}

(* the interned id of a ground constant, if it occurs in some relation;
   terms with unevaluated arithmetic never equal a stored value *)
let node_id t =
  let rec canonical = function
    | Term.Int _ | Term.Sym _ -> true
    | Term.App (_, ts) -> List.for_all canonical ts
    | Term.Var _ | Term.Add _ | Term.Mul _ | Term.Div _ -> false
  in
  if canonical t then Option.map Engine.Value.to_int (Engine.Value.find t) else None

(* The graph of the binary relations' facts as value-id pairs, each
   relation walked forward or backward, built once per orientation set
   (a sorted list of (relation, forward?) pairs). *)
let descent_graph graphs db orientations =
  match Hashtbl.find_opt graphs orientations with
  | Some g -> g
  | None ->
    let edges_of acc (sym, forward) =
      match Engine.Database.find db sym with
      | None -> acc
      | Some r ->
        Engine.Relation.fold
          (fun t acc ->
            let a = Engine.Value.to_int t.(0) and b = Engine.Value.to_int t.(1) in
            (if forward then (a, b) else (b, a)) :: acc)
          r acc
    in
    let g = Pass_card.graph (List.fold_left edges_of [] orientations) in
    Hashtbl.replace graphs orientations g;
    g

(* ---- descent shape: how the guards walk the extensional data ----

   For every rule defining a guard predicate, scan the body left to
   right with the set of already-bound variables (guard literals bind
   their variables; everything binds after being processed).  A binary
   extensional literal with one side bound is a descent step: the
   guards walk its facts in that orientation.  Anything the model
   cannot express (compound arguments, wider extensional joins with
   several unbound variables) makes the shape opaque. *)
let descent_shape ctx (rw : C.Rewritten.t) db =
  let derived = Program.derived rw.C.Rewritten.program in
  let orientations : (Symbol.t * bool, unit) Hashtbl.t = Hashtbl.create 8 in
  let opaque = ref false in
  List.iter
    (fun (r : Rule.t) ->
      if is_guard rw.C.Rewritten.naming r.Rule.head.Atom.pred then begin
        let bound : (string, unit) Hashtbl.t = Hashtbl.create 8 in
        let add_vars a =
          List.iter (fun v -> Hashtbl.replace bound v ()) (Atom.vars a)
        in
        List.iter
          (fun (a : Atom.t) ->
            let sym = Atom.symbol a in
            if
              (not (Atom.is_builtin a))
              && not (Symbol.Set.mem sym derived)
            then begin
              let var_side = function Term.Var v -> Some v | _ -> None in
              match a.Atom.args with
              | [ x; y ] -> (
                match (var_side x, var_side y) with
                | Some vx, Some vy -> (
                  match (Hashtbl.mem bound vx, Hashtbl.mem bound vy) with
                  | true, false -> Hashtbl.replace orientations (sym, true) ()
                  | false, true -> Hashtbl.replace orientations (sym, false) ()
                  | _ -> ())
                | _ ->
                  if not (Atom.is_ground a) then opaque := true)
              | args ->
                let unbound =
                  List.concat_map Term.vars args
                  |> List.sort_uniq String.compare
                  |> List.filter (fun v -> not (Hashtbl.mem bound v))
                in
                if List.length unbound > 1 then opaque := true
            end;
            add_vars a)
          (Rule.body_atoms r)
      end)
    (Program.rules rw.C.Rewritten.program);
  let orientations =
    List.sort compare (Hashtbl.fold (fun o () acc -> o :: acc) orientations [])
  in
  let roots =
    List.concat_map
      (fun (s : Atom.t) ->
        List.filter_map
          (fun t -> if Term.is_ground t then node_id t else None)
          s.Atom.args)
      rw.C.Rewritten.seeds
  in
  (Pass_card.graph_shape (descent_graph ctx.graphs db orientations) ~roots, !opaque)

(* depth at which the numeric counting indices (Section 6: K*m+i, H*t+j
   per level) overflow a native int, with margin *)
let numeric_depth_limit (rw : C.Rewritten.t) =
  let m = max 2 (C.Indexing.rule_count rw.C.Rewritten.adorned) in
  let t = max 2 (C.Indexing.position_base rw.C.Rewritten.adorned) in
  Float.of_int 60 /. (Float.log (Float.of_int (max m t)) /. Float.log 2.)

let counting_exclusion (report : C.Safety.report) rw shape_opt =
  if report.C.Safety.counting_statically_diverges then
    Some
      "the bound-argument graph is cyclic: counting diverges regardless of \
       the data (Thm 10.3)"
  else if report.C.Safety.counting_safe then None
  else
    match shape_opt with
    | None -> Some "cannot bound the counting indices without data statistics"
    | Some ((_ : Pass_card.shape), true) ->
      Some "cannot trace the guard descent through unmodelled joins"
    | Some (s, false) ->
      if not s.Pass_card.acyclic then
        Some
          "the data reachable from the seeds is cyclic: numeric counting \
           indices would grow without bound"
      else begin
        let limit = numeric_depth_limit rw in
        if s.Pass_card.longest > limit then
          Some
            (Fmt.str
               "derivation depth %.0f overflows the numeric counting indices \
                (limit ~%.0f for this program)"
               s.Pass_card.longest limit)
        else if s.Pass_card.saturated then
          Some
            "derivation paths multiply beyond the saturation bound: the \
             counting relations would explode"
        else None
      end

let seminaive_exclusion program =
  if
    List.exists
      (fun (r : Rule.t) -> Rule.unrestricted_head_vars r <> [])
      (Program.rules program)
  then
    Some
      "some rule's head variables are not bound by its positive body: direct \
       bottom-up evaluation is unsafe"
  else None

let excluded name method_ why =
  {
    name;
    method_;
    verdict = Excluded why;
    est_magic = 0.;
    est_facts = 0.;
    est_probes = 0.;
    est_rounds = 0.;
    widened = [];
    score = Float.infinity;
  }

let inapplicable name method_ why =
  { (excluded name method_ why) with verdict = Inapplicable why }

let viable name method_ ~est_magic card =
  let est_facts = Pass_card.total_derived card in
  let est_probes = Pass_card.est_probes card in
  {
    name;
    method_;
    verdict = Viable;
    est_magic;
    est_facts;
    est_probes;
    est_rounds = Pass_card.est_rounds card;
    widened =
      List.map (fun (s : Symbol.t) -> s.Symbol.name) (Pass_card.widened card);
    score = runtime_weight name *. (est_probes +. (fact_weight *. est_facts));
  }

(* round horizon shared by every candidate: the longest path of the
   union graph of the binary extensional relations (plus slack), or the
   universe when the data is cyclic or unmeasured *)
let rounds_horizon ?db ~graphs ~universe program =
  match db with
  | None -> universe
  | Some db ->
    let orientations =
      Symbol.Set.elements (Program.base program)
      |> List.filter (fun (sym : Symbol.t) -> sym.Symbol.arity = 2)
      |> List.map (fun sym -> (sym, true))
      |> List.sort compare
    in
    let s = Pass_card.graph_shape (descent_graph graphs db orientations) ~roots:[] in
    (* nothing reachable: no binary facts at all *)
    if s.Pass_card.reachable = 0. then universe
    else if s.Pass_card.acyclic then s.Pass_card.longest +. 2.
    else universe

(* per-column distinct caps for a counting candidate: index columns
   (those receiving arithmetic index terms in heads or seeds) range
   over derivation paths, not data constants *)
let counting_caps (rw : C.Rewritten.t) ~universe ~idx_cap =
  let rec has_index_term (t : Term.t) =
    match t with
    | Term.Int _ | Term.Add _ | Term.Mul _ | Term.Div _ -> true
    | Term.Var _ | Term.Sym _ -> false
    | Term.App (_, ts) -> List.exists has_index_term ts
  in
  let flags : (Symbol.t, bool array) Hashtbl.t = Hashtbl.create 16 in
  let mark (a : Atom.t) =
    let sym = Atom.symbol a in
    let arr =
      match Hashtbl.find_opt flags sym with
      | Some arr -> arr
      | None ->
        let arr = Array.make (max sym.Symbol.arity 0) false in
        Hashtbl.replace flags sym arr;
        arr
    in
    List.iteri
      (fun i arg ->
        if i < Array.length arr && has_index_term arg then arr.(i) <- true)
      a.Atom.args
  in
  List.iter (fun (r : Rule.t) -> mark r.Rule.head) (Program.rules rw.C.Rewritten.program);
  List.iter mark rw.C.Rewritten.seeds;
  fun sym ->
    match Hashtbl.find_opt flags sym with
    | Some arr when Array.exists Fun.id arr ->
      Some (Array.map (fun idx -> if idx then idx_cap else universe) arr)
    | _ -> None

(* Cardinality analysis of a rewritten candidate: its program with the
   ground magic seeds counted as facts, under the counting index caps
   and the descent-cone caps.  Returns [(est_magic, card)], shared by
   every candidate with the same rewritten program and seeds. *)
let analyze_rewritten ctx (rw : C.Rewritten.t) ~counting shape =
  let naming = rw.C.Rewritten.naming in
  let program = rw.C.Rewritten.program in
  let seeds = List.filter Atom.is_ground rw.C.Rewritten.seeds in
  let key =
    {
      rules = Program.rules program;
      seeds;
      counting;
      guards =
        List.map
          (fun (sym : Symbol.t) ->
            (is_guard naming sym.Symbol.name, is_magic naming sym.Symbol.name))
          (Symbol.Set.elements (Program.predicates program));
    }
  in
  match List.assoc_opt key ctx.cards with
  | Some r -> r
  | None ->
    let universe = ctx.universe in
    let index_caps =
      match shape with
      | Some (s, _) when s.Pass_card.acyclic && not s.Pass_card.saturated ->
        counting_caps rw ~universe ~idx_cap:(Float.max 1. s.Pass_card.total_paths)
      | _ when counting -> counting_caps rw ~universe ~idx_cap:universe
      | _ -> fun _ -> None
    in
    (* Cone cap: every value a magic predicate can hold is reached from
       the seed constants by descent steps through the extensional data,
       so the measured reachable set bounds the magic columns far
       tighter than the constant universe.  Without it, a seed in the
       middle of a long chain widens to the whole universe and the
       rewriting looks no better than direct evaluation.  The descent
       graph only tracks binary extensional steps, so the cap is sound
       only when every extensional literal of a guard rule is binary or
       ground. *)
    let cone_caps =
      let derived = Program.derived program in
      let binary_descent =
        List.for_all
          (fun (r : Rule.t) ->
            (not (is_guard naming r.Rule.head.Atom.pred))
            || List.for_all
                 (fun (a : Atom.t) ->
                   Atom.is_builtin a
                   || Symbol.Set.mem (Atom.symbol a) derived
                   (* a guard predicate with no rules (the magic seed of
                      a non-recursive query predicate) holds only root
                      constants: it is not a descent step through the
                      data and must not void the cap *)
                   || is_guard naming a.Atom.pred
                   || Atom.is_ground a
                   || List.length a.Atom.args = 2)
                 (Rule.body_atoms r))
          (Program.rules program)
      in
      match shape with
      | Some (s, false) when binary_descent && s.Pass_card.reachable >= 1. ->
        let cone = Float.min universe s.Pass_card.reachable in
        fun (sym : Symbol.t) ->
          if is_magic naming sym.Symbol.name then
            Some (Array.make (max sym.Symbol.arity 0) cone)
          else None
      | _ -> fun _ -> None
    in
    let col_caps sym =
      match (index_caps sym, cone_caps sym) with
      | None, None -> None
      | (Some _ as c), None | None, (Some _ as c) -> c
      | Some a, Some b ->
        Some
          (Array.mapi
             (fun i c -> if i < Array.length b then Float.min c b.(i) else c)
             a)
    in
    let card =
      Pass_card.analyze ?edb:ctx.edb ~seeds ~defaults:(not ctx.measured)
        ~universe ~col_caps ~rounds_bound:ctx.rounds_bound program
    in
    let est_magic =
      Symbol.Set.fold
        (fun (sym : Symbol.t) acc ->
          if is_magic naming sym.Symbol.name then
            acc +. (Pass_card.stat card sym).Pass_card.card
          else acc)
        (Program.predicates program)
        0.
    in
    ctx.cards <- (key, (est_magic, card)) :: ctx.cards;
    (est_magic, card)

let score_candidate ctx program query (name, method_) =
  match method_ with
  | C.Rewrite.Original `Seminaive -> (
    match seminaive_exclusion program with
    | Some why -> excluded name method_ why
    | None ->
      let card =
        Pass_card.analyze ?edb:ctx.edb ~defaults:(not ctx.measured)
          ~universe:ctx.universe ~rounds_bound:ctx.rounds_bound program
      in
      viable name method_ ~est_magic:0. card)
  | C.Rewrite.Rewritten_bottom_up (rewriting, options) -> (
    (* Invalid_argument is how Adorn, Sip and Counting refuse a program;
       any other exception is a defect and propagates *)
    match C.Rewrite.rewrite ~options rewriting program query with
    | exception Invalid_argument msg -> inapplicable name method_ msg
    | rw -> (
      if name = "gms" then ctx.gms <- Some rw;
      let report = C.Safety.analyze rw.C.Rewritten.adorned in
      if not report.C.Safety.magic_safe then
        excluded name method_
          "the binding graph has a non-positive cycle: the rewriting may not \
           terminate (Section 10)"
      else
        let shape = Option.map (descent_shape ctx rw) ctx.db in
        let counting = is_counting method_ in
        match if counting then counting_exclusion report rw shape else None with
        | Some why -> excluded name method_ why
        | None ->
          let est_magic, card = analyze_rewritten ctx rw ~counting shape in
          viable name method_ ~est_magic card))
  | _ -> inapplicable name method_ "not a bottom-up candidate"

(* A counting rewrite stores at least one entry per entry of its magic
   counterpart: the counting relations mirror the magic/supplementary
   ones with index arguments attached, and distinct derivation paths
   multiply entries, never merge them.  The index-column caps can
   nevertheless drive the counting fixpoint's estimate below the
   counterpart's on whole-cone queries, so the fact estimate is floored
   at the counterpart's.  Probes are not floored: the Section 8
   semijoin variants genuinely probe less than magic. *)
let counterpart = function
  | "gc" | "gc-sj" -> Some "gms"
  | "gsc" | "gsc-sj" -> Some "gsms"
  | _ -> None

let floor_at_counterpart estimates =
  List.map
    (fun e ->
      match counterpart e.name with
      | None -> e
      | Some mate -> (
        match
          List.find_opt
            (fun m -> m.name = mate && m.verdict = Viable)
            estimates
        with
        | Some m when e.verdict = Viable && e.est_facts < m.est_facts ->
          let est_facts = m.est_facts in
          {
            e with
            est_facts;
            score =
              runtime_weight e.name
              *. (e.est_probes +. (fact_weight *. est_facts));
          }
        | _ -> e))
    estimates

let rank estimates =
  let arr = List.mapi (fun i e -> (i, e)) estimates in
  List.map snd
    (List.stable_sort
       (fun (i, a) (j, b) ->
         let va = match a.verdict with Viable -> 0 | _ -> 1 in
         let vb = match b.verdict with Viable -> 0 | _ -> 1 in
         if va <> vb then compare va vb
         else if a.score <> b.score then compare a.score b.score
         else compare i j)
       arr)

let choose ?db ?only program query =
  let candidates =
    match only with
    | None -> candidates
    | Some names -> List.filter (fun (n, _) -> List.mem n names) candidates
  in
  let edb = Option.map Pass_card.measure db in
  let edb_facts = match edb with Some e -> Pass_card.edb_facts e | None -> 0 in
  let measured = edb_facts > 0 in
  let universe =
    match edb with
    | Some e when measured -> Pass_card.edb_universe e
    | _ -> 100.
  in
  let graphs = Hashtbl.create 8 in
  let rounds_bound = rounds_horizon ?db ~graphs ~universe program in
  if not (Program.is_derived program (Atom.symbol query)) then begin
    (* extensional query: a single scan answers it, nothing to choose *)
    let e =
      {
        name = "seminaive";
        method_ = C.Rewrite.Original `Seminaive;
        verdict = Viable;
        est_magic = 0.;
        est_facts = 0.;
        est_probes =
          (match db with
          | Some d -> Float.of_int (Engine.Database.cardinal d (Atom.symbol query))
          | None -> 0.);
        est_rounds = 1.;
        widened = [];
        score = 0.;
      }
    in
    {
      winner = e;
      ranked = [ e ];
      universe;
      measured;
      edb_facts;
      rounds_bound;
      diagnostics = [];
    }
  end
  else begin
    let ctx =
      {
        db;
        edb;
        measured;
        universe;
        rounds_bound;
        graphs;
        cards = [];
        gms = None;
      }
    in
    let estimates = List.map (score_candidate ctx program query) candidates in
    let ranked = rank (floor_at_counterpart estimates) in
    let winner =
      match List.find_opt (fun e -> e.verdict = Viable) ranked with
      | Some e -> e
      | None -> List.hd ranked
    in
    (* Near-tie resolution.  Within the estimator's error band the
       scores cannot separate direct evaluation from a rewriting (both
       sides' closures are capped by the same column products), so the
       measured cone decides: when the magic set would cover essentially
       the whole constant universe the bindings restrict nothing and the
       rewriting machinery is pure overhead, and when it would not, the
       restriction is real even if the arithmetic can't see it. *)
    let cone_fraction =
      match db with
      | Some d when measured -> (
        (* the gms candidate's rewrite, unless it was not a candidate *)
        let gms () =
          match ctx.gms with
          | Some rw -> rw
          | None -> C.Rewrite.rewrite C.Rewrite.GMS program query
        in
        match gms () with
        | exception Invalid_argument _ -> None
        | rw ->
          let shape, opaque = descent_shape ctx rw d in
          if opaque then None
          else Some (shape.Pass_card.reachable /. Float.max 1. universe))
      | _ -> None
    in
    let winner =
      match cone_fraction with
      | None -> winner
      | Some f ->
        let near =
          List.filter
            (fun e -> e.verdict = Viable && e.score <= 1.3 *. winner.score)
            ranked
        in
        let pick =
          if f >= 0.95 then
            List.find_opt (fun e -> e.name = "seminaive") near
          else List.find_opt (fun e -> e.name <> "seminaive") near
        in
        Option.value pick ~default:winner
    in
    let diagnostics =
      (if measured then []
       else
         [
           Diagnostic.warning ~code:"W061"
             "no extensional statistics: strategy estimates use symbolic \
              defaults and may misrank close candidates";
         ])
      @ (match winner.widened with
        | [] -> []
        | syms ->
          [
            Diagnostic.warning ~code:"W060"
              (Fmt.str
                 "recursive cardinality estimates for %s did not stabilize \
                  and were widened; the ranking is coarse"
                 (String.concat ", " syms));
          ])
      @
      if
        winner.name = "seminaive"
        && List.exists (fun e -> e.verdict = Viable && e.name <> "seminaive") ranked
      then
        [
          Diagnostic.warning ~code:"W062"
            "the query's bindings are not expected to restrict the \
             computation: direct semi-naive evaluation was selected over the \
             rewritings";
        ]
      else []
    in
    { winner; ranked; universe; measured; edb_facts; rounds_bound; diagnostics }
  end

let g x =
  if Float.is_integer x && Float.abs x < 1e7 then Fmt.str "%.0f" x
  else Fmt.str "%.3g" x

let pp_g ppf x = Fmt.string ppf (g x)

let pp_report ppf (t : t) =
  Fmt.pf ppf "@[<v>";
  Fmt.pf ppf
    "cost analysis: %s statistics, %d edb facts, universe %a, round horizon \
     %a@,"
    (if t.measured then "measured" else "symbolic")
    t.edb_facts pp_g t.universe pp_g t.rounds_bound;
  Fmt.pf ppf "  %-12s %-10s %10s %10s %10s %8s %12s@," "strategy" "verdict"
    "est_magic" "est_facts" "est_probes" "rounds" "score";
  List.iter
    (fun e ->
      let mark = if e.name = t.winner.name then "*" else " " in
      match e.verdict with
      | Viable ->
        Fmt.pf ppf "%s %-12s %-10s %10s %10s %10s %8s %12s@," mark e.name
          (if e.name = t.winner.name then "selected" else "viable")
          (g e.est_magic) (g e.est_facts) (g e.est_probes) (g e.est_rounds)
          (g e.score)
      | Inapplicable why ->
        Fmt.pf ppf "%s %-12s %-10s %s@," mark e.name "n/a" why
      | Excluded why ->
        Fmt.pf ppf "%s %-12s %-10s %s@," mark e.name "excluded" why)
    t.ranked;
  List.iter
    (fun (d : Diagnostic.t) ->
      Fmt.pf ppf "  %s: %s@," d.Diagnostic.code d.Diagnostic.message)
    t.diagnostics;
  Fmt.pf ppf "@]"
