(* Cardinality analysis: per-predicate (card, per-column distinct)
   estimates propagated through rule bodies with join/projection
   arithmetic, fixpointed per Tarjan SCC with an extrapolating widening.

   The numbers are deliberate over-estimates compared against each
   other by Pass_cost — they are never used as hard limits, so the
   arithmetic favours simplicity and monotonicity over tightness.

   Which variables are bound at each body literal depends only on the
   rule, so every rule is compiled once per [analyze] into a small op
   sequence over a float environment (one slot per variable), and
   predicate statistics live in arrays indexed by dense predicate
   slots: a fixpoint round is plain float arithmetic. *)

open Datalog
module Value = Engine.Value
module Relation = Engine.Relation
module Itbl = Hashtbl.Make (Int)

type stat = { card : float; distinct : float array }

let default_universe = 100.
let default_card = 1000.
let max_rounds = 12
let huge = 1e18

let zero_stat arity = { card = 0.; distinct = Array.make (max arity 0) 1. }
let clamp1 x = Float.max 1. x

(* ---- extensional statistics ---- *)

type edb = {
  symbols : Symbol.t list;  (** every relation of the database, empty ones included *)
  rels : (Relation.t * stat) Symbol.Tbl.t;  (** the non-empty relations *)
  values : unit Itbl.t;  (** distinct values across all tuples *)
  facts : int;
}

(* card and per-column distinct counts of the tuples [iter] visits,
   recording every value in [values] *)
let stat_of_tuples ~values arity iter =
  let cols = Array.init (max arity 0) (fun _ -> Itbl.create 16) in
  let n = ref 0 in
  iter (fun (t : Engine.Tuple.t) ->
      incr n;
      Array.iteri
        (fun i v ->
          let v = Value.to_int v in
          Itbl.replace cols.(i) v ();
          Itbl.replace values v ())
        t);
  {
    card = float_of_int !n;
    distinct = Array.map (fun h -> float_of_int (max 1 (Itbl.length h))) cols;
  }

let measure db =
  let symbols = Engine.Database.symbols db in
  let rels = Symbol.Tbl.create 16 in
  let values = Itbl.create 256 in
  List.iter
    (fun (sym : Symbol.t) ->
      match Engine.Database.find db sym with
      | Some r when Relation.cardinal r > 0 ->
        let s = stat_of_tuples ~values sym.Symbol.arity (fun f -> Relation.iter f r) in
        Symbol.Tbl.replace rels sym (r, s)
      | _ -> ())
    symbols;
  { symbols; rels; values; facts = Engine.Database.total db }

let edb_facts e = e.facts
let universe_of_count n = float_of_int (max 2 n)
let edb_universe e = universe_of_count (Itbl.length e.values)

let no_edb () =
  { symbols = []; rels = Symbol.Tbl.create 1; values = Itbl.create 1; facts = 0 }

(* The measured statistics with ground [seeds] added as facts, exactly
   as if they had been inserted into a copy of the database: a relation
   the seeds extend is re-measured over its tuples plus the new ones.
   Returns the per-symbol stats, the symbols, the fact count and the
   distinct-value count. *)
let overlay e seeds =
  let rels = Symbol.Tbl.create 16 in
  Symbol.Tbl.iter (fun sym (_, s) -> Symbol.Tbl.replace rels sym s) e.rels;
  let symbols = ref (Symbol.Set.of_list e.symbols) in
  (* per symbol, the seed tuples its relation lacks, deduplicated *)
  let fresh = Symbol.Tbl.create 4 in
  List.iter
    (fun (a : Atom.t) ->
      let sym = Atom.symbol a in
      let t = Engine.Tuple.of_list (List.map Term.eval a.Atom.args) in
      let known =
        match Symbol.Tbl.find_opt e.rels sym with
        | Some (r, _) -> Relation.mem r t
        | None -> false
      in
      let prev = Option.value ~default:[] (Symbol.Tbl.find_opt fresh sym) in
      symbols := Symbol.Set.add sym !symbols;
      if not (known || List.exists (Engine.Tuple.equal t) prev) then
        Symbol.Tbl.replace fresh sym (t :: prev))
    seeds;
  let facts = ref e.facts in
  let new_values = Itbl.create 16 in
  Symbol.Tbl.iter
    (fun sym tuples ->
      let iter f =
        Option.iter (fun (r, _) -> Relation.iter f r) (Symbol.Tbl.find_opt e.rels sym);
        List.iter f tuples
      in
      let values = Itbl.create 16 in
      Symbol.Tbl.replace rels sym (stat_of_tuples ~values sym.Symbol.arity iter);
      facts := !facts + List.length tuples;
      Itbl.iter
        (fun v () -> if not (Itbl.mem e.values v) then Itbl.replace new_values v ())
        values)
    fresh;
  (rels, !symbols, !facts, Itbl.length e.values + Itbl.length new_values)

(* ---- compiled rules ----

   A rule body is walked left to right keeping a frontier (number of
   partial derivations alive) and a per-variable distinct estimate.  A
   positive literal over stat s with a set of already-bound columns
   matches [s.card / prod (distinct of bound columns)] tuples per
   frontier row; negation and comparisons filter at selectivity 1/2; a
   binding equality transfers distincts without shrinking the frontier.

   Compilation resolves variables to environment slots and predicates
   to stat slots, and decides statically which variables each literal
   finds bound; evaluation replays the same float operations in the
   same order. *)

(* bind variable [slot] to a distinct estimate; [fresh] when it was
   unbound before (otherwise the tighter estimate wins) *)
type bind = { col : int; slot : int; fresh : bool }

type op =
  | Halve  (** negation or comparison: selectivity 1/2 *)
  | Equate of { src : int array; dst : bind array }
      (** binding equality: the bound side's distinct product ([src]
          slots) flows to the unbound side's variables *)
  | Join of { pred : int; bound_cols : int array; binds : bind array }
      (** positive literal over predicate slot [pred] *)

type crule = {
  ops : op array;
  head : int array array;
      (** per head argument, the variable slots whose distincts multiply
          into its estimate ([-1]: never bound, the universe) *)
  env : float array;
  contrib : float array;  (** per head column, filled by [eval_rule] *)
  mutable out : float;  (** output estimate, filled by [eval_rule] *)
  mutable probes : float;  (** probe sum, filled by [eval_rule] *)
}

let compile_rule slot_of (r : Rule.t) =
  let vars : (string, int) Hashtbl.t = Hashtbl.create 8 in
  let bound : (string, unit) Hashtbl.t = Hashtbl.create 8 in
  let var_slot v =
    match Hashtbl.find_opt vars v with
    | Some i -> i
    | None ->
      let i = Hashtbl.length vars in
      Hashtbl.replace vars v i;
      i
  in
  let term_bound t = List.for_all (Hashtbl.mem bound) (Term.vars t) in
  (* sequential: a variable repeated within one literal is fresh only
     at its first occurrence *)
  let binds_of col_vars =
    let binds =
      List.fold_left
        (fun acc (col, v) ->
          let fresh = not (Hashtbl.mem bound v) in
          Hashtbl.replace bound v ();
          { col; slot = var_slot v; fresh } :: acc)
        [] col_vars
    in
    Array.of_list (List.rev binds)
  in
  let op_of lit =
    let a = Rule.atom_of_literal lit in
    if Atom.is_builtin a then
      match (a.Atom.pred, a.Atom.args) with
      | "=", [ x; y ] when term_bound x && not (term_bound y) ->
        let src = Array.of_list (List.map var_slot (Term.vars x)) in
        Equate { src; dst = binds_of (List.map (fun v -> (0, v)) (Term.vars y)) }
      | "=", [ x; y ] when term_bound y && not (term_bound x) ->
        let src = Array.of_list (List.map var_slot (Term.vars y)) in
        Equate { src; dst = binds_of (List.map (fun v -> (0, v)) (Term.vars x)) }
      | _ -> Halve
    else
      match lit with
      | Rule.Neg _ -> Halve
      | Rule.Pos _ ->
        let bound_cols =
          List.mapi (fun i arg -> if term_bound arg then [ i ] else []) a.Atom.args
          |> List.concat |> Array.of_list
        in
        let col_vars =
          List.mapi (fun i arg -> List.map (fun v -> (i, v)) (Term.vars arg)) a.Atom.args
          |> List.concat
        in
        Join { pred = slot_of (Atom.symbol a); bound_cols; binds = binds_of col_vars }
  in
  let ops =
    List.fold_left (fun acc l -> op_of l :: acc) [] r.Rule.body |> List.rev |> Array.of_list
  in
  let head =
    Array.of_list
      (List.map
         (fun arg ->
           Array.of_list
             (List.map
                (fun v -> if Hashtbl.mem bound v then var_slot v else -1)
                (Term.vars arg)))
         r.Rule.head.Atom.args)
  in
  {
    ops;
    head;
    env = Array.make (Hashtbl.length vars) 1.;
    contrib = Array.make (Array.length head) 1.;
    out = 0.;
    probes = 0.;
  }

(* Run one compiled rule over the stats [card]/[dist]: leaves the
   output estimate in [r.out], the probe sum (the frontier sizes
   entering each literal) in [r.probes] and the per-head-column
   estimates in [r.contrib].  Plain loops keep the float accumulators
   unboxed. *)
let eval_rule card dist universe r =
  let env = r.env in
  let frontier = ref 1. and probes = ref 0. in
  for k = 0 to Array.length r.ops - 1 do
    probes := Float.min huge (!probes +. !frontier);
    match r.ops.(k) with
    | Halve -> frontier := !frontier *. 0.5
    | Equate { src; dst } ->
      let d = ref 1. in
      for j = 0 to Array.length src - 1 do
        d := !d *. env.(src.(j))
      done;
      for j = 0 to Array.length dst - 1 do
        let { slot; fresh; _ } = dst.(j) in
        env.(slot) <- clamp1 (if fresh then !d else Float.min env.(slot) !d)
      done
    | Join { pred; bound_cols; binds } ->
      let c = card.(pred) and ds = dist.(pred) in
      let sel = ref 1. in
      for j = 0 to Array.length bound_cols - 1 do
        sel := !sel /. clamp1 (Float.min ds.(bound_cols.(j)) (clamp1 c))
      done;
      frontier := Float.min huge (!frontier *. (c *. !sel));
      for j = 0 to Array.length binds - 1 do
        let { col; slot; fresh } = binds.(j) in
        let d = ds.(col) in
        env.(slot) <- clamp1 (if fresh then d else Float.min env.(slot) d)
      done
  done;
  let head_cap = ref 1. in
  for i = 0 to Array.length r.head - 1 do
    let slots = r.head.(i) in
    let d = ref 1. in
    for j = 0 to Array.length slots - 1 do
      let s = slots.(j) in
      d := !d *. if s < 0 then universe else env.(s)
    done;
    r.contrib.(i) <- !d;
    head_cap := Float.min huge (!head_cap *. !d)
  done;
  r.out <- Float.max 0. (Float.min !frontier !head_cap);
  r.probes <- !probes

(* ---- the analysis ---- *)

type t = {
  slots : int Symbol.Tbl.t;
  cards : float array;
  dists : float array array;
  universe : float;
  measured : bool;
  widened : Symbol.t list;
  derived : Symbol.Set.t;
  probes : float;
  rounds : float;
}

let universe t = t.universe
let measured t = t.measured
let widened t = t.widened

let stat t sym =
  match Symbol.Tbl.find_opt t.slots sym with
  | Some i -> { card = t.cards.(i); distinct = t.dists.(i) }
  | None -> zero_stat sym.Symbol.arity

let total_derived t =
  Symbol.Set.fold (fun sym acc -> acc +. (stat t sym).card) t.derived 0.

let est_rounds t = t.rounds
let est_probes t = t.probes

let product caps = Array.fold_left (fun a c -> Float.min huge (a *. c)) 1. caps

let analyze ?edb ?(seeds = []) ?defaults ?universe:universe_override
    ?(col_caps = fun _ -> None) ?rounds_bound program =
  let defaults = match defaults with Some d -> d | None -> edb = None in
  let measured = not defaults in
  let measured_rels, data_symbols, facts, nvalues =
    overlay (match edb with Some e -> e | None -> no_edb ()) seeds
  in
  let universe =
    match universe_override with
    | Some u -> clamp1 u
    | None -> if facts > 0 then universe_of_count nvalues else default_universe
  in
  let rounds_bound =
    clamp1 (match rounds_bound with Some r -> r | None -> universe)
  in
  let derived = Program.derived program in
  let symbols =
    Array.of_list
      (Symbol.Set.elements (Symbol.Set.union (Program.predicates program) data_symbols))
  in
  let n = Array.length symbols in
  let slots = Symbol.Tbl.create (2 * n) in
  Array.iteri (fun i sym -> Symbol.Tbl.replace slots sym i) symbols;
  let slot_of sym = Symbol.Tbl.find slots sym in
  (* caps: per-column distinct bound, defaulting to the universe *)
  let caps =
    Array.map
      (fun (sym : Symbol.t) ->
        match col_caps sym with
        | Some a -> Array.map clamp1 a
        | None -> Array.make (max sym.Symbol.arity 0) universe)
      symbols
  in
  (* initial stats: extensional relations measured from the data
     (symbolic defaults when absent), derived predicates start from any
     seed facts the data holds for them *)
  let init =
    Array.map
      (fun (sym : Symbol.t) ->
        match Symbol.Tbl.find_opt measured_rels sym with
        | Some s -> s
        | None ->
          if (not (Symbol.Set.mem sym derived)) && defaults then
            {
              card = default_card;
              distinct =
                Array.make (max sym.Symbol.arity 0)
                  (Float.min universe default_card);
            }
          else zero_stat sym.Symbol.arity)
      symbols
  in
  let card = Array.map (fun s -> s.card) init in
  let dist = Array.map (fun s -> Array.copy s.distinct) init in
  let rules = Array.of_list (List.map (compile_rule slot_of) (Program.rules program)) in
  let rules_of = Array.make n [] in
  List.iteri
    (fun i (r : Rule.t) ->
      let h = slot_of (Atom.symbol r.Rule.head) in
      rules_of.(h) <- rules.(i) :: rules_of.(h))
    (Program.rules program);
  let rules_of = Array.map (fun rs -> Array.of_list (List.rev rs)) rules_of in
  (* one synchronous recomputation of predicate [s] from its rules:
     returns the card, the column estimates go to [out_cols] *)
  let recompute s out_cols =
    let out = ref init.(s).card in
    Array.blit init.(s).distinct 0 out_cols 0 (Array.length out_cols);
    let rs = rules_of.(s) in
    for k = 0 to Array.length rs - 1 do
      let r = rs.(k) in
      eval_rule card dist universe r;
      out := Float.min huge (!out +. r.out);
      for i = 0 to min (Array.length out_cols) (Array.length r.contrib) - 1 do
        out_cols.(i) <- Float.min huge (out_cols.(i) +. r.contrib.(i))
      done
    done;
    let caps = caps.(s) in
    Array.iteri (fun i c -> out_cols.(i) <- Float.min caps.(i) (clamp1 c)) out_cols;
    let c = Float.min !out (product out_cols) in
    Array.iteri (fun i d -> out_cols.(i) <- Float.min d (clamp1 c)) out_cols;
    c
  in
  let widened = ref [] in
  let rounds = ref 1. in
  let process_scc scc =
    let members =
      Array.of_list
        (List.filter_map
           (fun s -> if Symbol.Set.mem s derived then Some (slot_of s) else None)
           scc)
    in
    let m = Array.length members in
    if m > 0 then begin
      let recursive =
        m > 1
        ||
        let s = symbols.(members.(0)) in
        List.exists
          (fun (_, r) ->
            List.exists (fun a -> Symbol.equal (Atom.symbol a) s) (Rule.body_atoms r))
          (Program.rules_for program s)
      in
      if not recursive then begin
        let s = members.(0) in
        let cols = Array.make (Array.length dist.(s)) 0. in
        card.(s) <- recompute s cols;
        dist.(s) <- cols
      end
      else begin
        (* One recompute round advances each member from the others'
           previous stats, so a derivation hop through an s-member SCC
           (magic -> supplementary -> magic) costs s rounds; budget the
           fixpoint for the full round horizon at that rate and widen
           only past it — the rounds are pure float arithmetic, and
           truncating early systematically undershoots the predicates
           later in the chain. *)
        let budget =
          int_of_float
            (Float.min 4096.
               (Float.max (float_of_int max_rounds)
                  ((rounds_bound *. float_of_int m) +. 4.)))
        in
        (* A member is settled when its round delta is gone, or small
           relative to its size AND shrinking geometrically (at most
           half the previous round's delta).  The trend condition is
           what distinguishes a converging fixpoint from steady linear
           growth: a chain's cardinality grows by a constant amount per
           round, so once it reaches ~100x the per-round step a purely
           relative test mistakes it for stable and freezes the
           estimate orders of magnitude short of the horizon — such
           SCCs must instead run to the budget and take the
           extrapolating widening below. *)
        let settled ~prev_card ~prev_delta ~delta =
          delta <= 1e-9
          || (delta <= 0.01 *. clamp1 prev_card && delta <= 0.5 *. prev_delta)
        in
        let prev = Array.make m 0. in
        let deltas = Array.make m Float.infinity in
        let next_card = Array.make m 0. in
        let next_cols = Array.map (fun s -> Array.make (Array.length dist.(s)) 0.) members in
        (* the members' stats swap with [next_cols] every round *)
        let step () =
          Array.iteri (fun j s -> next_card.(j) <- recompute s next_cols.(j)) members;
          Array.iteri
            (fun j s ->
              card.(s) <- next_card.(j);
              let old = dist.(s) in
              dist.(s) <- next_cols.(j);
              next_cols.(j) <- old)
            members
        in
        let rec go k =
          Array.iteri (fun j s -> prev.(j) <- card.(s)) members;
          step ();
          let stable = ref true in
          Array.iteri
            (fun j s ->
              let delta = Float.abs (card.(s) -. prev.(j)) in
              if not (settled ~prev_card:prev.(j) ~prev_delta:deltas.(j) ~delta) then
                stable := false;
              deltas.(j) <- delta)
            members;
          if !stable then rounds := Float.max !rounds (float_of_int k)
          else if k >= budget then begin
            (* extrapolating widening: project the last round's growth
               linearly out to the round horizon, under the column caps *)
            Array.iteri
              (fun j s ->
                let delta = Float.max 0. (card.(s) -. prev.(j)) in
                let projected =
                  Float.min (product caps.(s))
                    (card.(s)
                    +. (delta *. Float.max 0. (rounds_bound -. float_of_int k)))
                in
                card.(s) <- projected;
                dist.(s) <-
                  Array.mapi (fun i _ -> Float.min caps.(s).(i) (clamp1 projected)) dist.(s))
              members;
            widened := List.map (fun s -> symbols.(s)) (Array.to_list members) @ !widened;
            rounds := Float.max !rounds rounds_bound
          end
          else go (k + 1)
        in
        go 1
      end
    end
  in
  List.iter process_scc (Program.sccs program);
  (* total probe estimate under the final stats *)
  let probes =
    Array.fold_left
      (fun acc r ->
        eval_rule card dist universe r;
        Float.min huge (acc +. r.probes))
      0. rules
  in
  {
    slots;
    cards = card;
    dists = dist;
    universe;
    measured;
    widened = List.sort_uniq Symbol.compare !widened;
    derived;
    probes;
    rounds = !rounds;
  }

let diagnostics t =
  let w061 =
    if t.measured then []
    else
      [
        Diagnostic.warning ~code:"W061"
          (Fmt.str
             "no extensional statistics: cardinality estimates use symbolic \
              defaults (%.0f facts per base relation, %.0f-constant domain)"
             default_card t.universe);
      ]
  in
  let w060 =
    match t.widened with
    | [] -> []
    | syms ->
      [
        Diagnostic.warning ~code:"W060"
          (Fmt.str
             "recursive cardinalities for %s did not stabilize within the \
              fixpoint budget; estimates were widened to the %.0f-round \
              horizon"
             (String.concat ", "
                (List.map (fun (s : Symbol.t) -> s.Symbol.name) syms))
             t.rounds);
      ]
  in
  w061 @ w060

(* ---- data-shape analysis ---- *)

type shape = {
  acyclic : bool;
  longest : float;
  total_paths : float;
  saturated : bool;
  reachable : float;
}

let path_saturation = 1e6

(* Nodes are renumbered densely and the (multi)graph stored as
   successor arrays; duplicate edges count as distinct paths. *)
type graph = {
  index : int Itbl.t;  (** node id -> dense index *)
  first : int array;  (** successors of [u]: [succ.(first.(u)) .. succ.(first.(u+1) - 1)] *)
  succ : int array;
  indeg : int array;
}

let graph edges =
  let index = Itbl.create 64 in
  let node v =
    match Itbl.find_opt index v with
    | Some i -> i
    | None ->
      let i = Itbl.length index in
      Itbl.replace index v i;
      i
  in
  let edges = Array.of_list (List.map (fun (u, v) -> (node u, node v)) edges) in
  let n = Itbl.length index in
  let indeg = Array.make n 0 in
  let first = Array.make (n + 1) 0 in
  Array.iter
    (fun (u, v) ->
      first.(u + 1) <- first.(u + 1) + 1;
      indeg.(v) <- indeg.(v) + 1)
    edges;
  for u = 1 to n do
    first.(u) <- first.(u) + first.(u - 1)
  done;
  let succ = Array.make (Array.length edges) 0 in
  let fill = Array.sub first 0 n in
  Array.iter
    (fun (u, v) ->
      succ.(fill.(u)) <- v;
      fill.(u) <- fill.(u) + 1)
    edges;
  { index; first; succ; indeg }

let graph_shape { index; first; succ; indeg } ~roots =
  let n = Array.length indeg in
  if n = 0 then
    { acyclic = true; longest = 0.; total_paths = 1.; saturated = false;
      reachable = 0. }
  else begin
    let roots = List.filter_map (Itbl.find_opt index) roots in
    let roots =
      if roots <> [] then roots
      else
        let all = List.init n Fun.id in
        match List.filter (fun u -> indeg.(u) = 0) all with
        | [] -> all
        | sources -> sources
    in
    (* iterative DFS from the roots: cycle detection + reachable set
       (color 0 unvisited, 1 on the stack, 2 done) *)
    let color = Array.make n 0 in
    let reached = ref 0 in
    let cyclic = ref false in
    let stack = Array.make n 0 and next = Array.make n 0 in
    List.iter
      (fun root ->
        if color.(root) = 0 then begin
          let sp = ref 0 in
          let push u =
            color.(u) <- 1;
            incr reached;
            stack.(!sp) <- u;
            next.(!sp) <- first.(u);
            incr sp
          in
          push root;
          while !sp > 0 do
            let top = !sp - 1 in
            let u = stack.(top) in
            if next.(top) = first.(u + 1) then begin
              color.(u) <- 2;
              decr sp
            end
            else begin
              let v = succ.(next.(top)) in
              next.(top) <- next.(top) + 1;
              match color.(v) with
              | 1 -> cyclic := true
              | 0 -> push v
              | _ -> ()
            end
          done
        end)
      roots;
    if !cyclic then
      { acyclic = false; longest = huge; total_paths = huge; saturated = true;
        reachable = float_of_int !reached }
    else begin
      (* Kahn over the reachable subgraph: longest path + path counts *)
      let indeg_r = Array.make n 0 in
      for u = 0 to n - 1 do
        if color.(u) <> 0 then
          for e = first.(u) to first.(u + 1) - 1 do
            indeg_r.(succ.(e)) <- indeg_r.(succ.(e)) + 1
          done
      done;
      let depth = Array.make n 0. in
      let pc = Array.make n 0. in
      List.iter (fun r -> pc.(r) <- 1.) roots;
      let queue = Queue.create () in
      for u = 0 to n - 1 do
        if color.(u) <> 0 && indeg_r.(u) = 0 then Queue.add u queue
      done;
      let longest = ref 0. in
      let saturated = ref false in
      while not (Queue.is_empty queue) do
        let u = Queue.pop queue in
        longest := Float.max !longest depth.(u);
        for e = first.(u) to first.(u + 1) - 1 do
          let v = succ.(e) in
          depth.(v) <- Float.max (depth.(u) +. 1.) depth.(v);
          let p = pc.(u) +. pc.(v) in
          pc.(v) <-
            (if p >= path_saturation then (
               saturated := true;
               path_saturation)
             else p);
          indeg_r.(v) <- indeg_r.(v) - 1;
          if indeg_r.(v) = 0 then Queue.add v queue
        done
      done;
      let total = Array.fold_left (fun acc p -> Float.min 1e9 (acc +. p)) 0. pc in
      {
        acyclic = true;
        longest = !longest;
        total_paths = Float.max 1. total;
        saturated = !saturated || total >= path_saturation;
        reachable = float_of_int !reached;
      }
    end
  end
