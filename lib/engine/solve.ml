open Datalog

type source = Symbol.t -> Relation.t option

exception Unsafe of string

let bump_probes stats = match stats with None -> () | Some s -> s.Stats.probes <- s.Stats.probes + 1

(* Instantiate the atom's arguments, split them into a lookup pattern
   (ground positions) and residual patterns, and enumerate matches.
   Probes count actual relation accesses: a literal whose predicate has
   no relation at all performs no index work and is not counted. *)
let atom_matches ?stats src atom subst k =
  match src (Atom.symbol atom) with
  | None -> ()
  | Some rel ->
    bump_probes stats;
    let args = List.map (fun t -> Term.eval (Subst.apply_deep subst t)) atom.Atom.args in
    let pattern = Array.of_list (List.map Term.is_ground args) in
    (* a ground key component that was never interned occurs in no
       relation, so the probe is a guaranteed miss *)
    (match Tuple.find_of_list (List.filter Term.is_ground args) with
    | None -> ()
    | Some key ->
      Relation.iter_matching rel ~pattern ~key (fun tuple ->
          match Subst.match_list args (Tuple.to_list tuple) subst with
          | Some subst' -> k subst'
          | None -> ()))

let match_against ?stats src atom subst =
  let acc = ref [] in
  atom_matches ?stats src atom subst (fun s -> acc := s :: !acc);
  List.rev !acc

let term_int t =
  match t with
  | Term.Int i -> Some i
  | Term.Var _ | Term.Sym _ | Term.App _ | Term.Add _ | Term.Mul _ | Term.Div _ -> None

let eval_builtin atom subst k =
  match atom.Atom.args with
  | [ lhs; rhs ] -> begin
    let l = Term.eval (Subst.apply_deep subst lhs) in
    let r = Term.eval (Subst.apply_deep subst rhs) in
    match atom.Atom.pred with
    | "=" -> begin
      (* equality may bind variables on either side *)
      match Subst.unify l r subst with Some s -> k s | None -> ()
    end
    | op ->
      if not (Term.is_ground l && Term.is_ground r) then
        raise
          (Unsafe (Fmt.str "builtin %a reached with unbound arguments" Atom.pp atom))
      else begin
        let holds =
          match op, term_int l, term_int r with
          | "<>", _, _ -> not (Term.equal l r)
          | "<", Some a, Some b -> a < b
          | "<=", Some a, Some b -> a <= b
          | ">", Some a, Some b -> a > b
          | ">=", Some a, Some b -> a >= b
          | ("<" | "<=" | ">" | ">="), _, _ ->
            (* total order on ground terms for symbolic data *)
            let c = Term.compare l r in
            (match op with
             | "<" -> c < 0
             | "<=" -> c <= 0
             | ">" -> c > 0
             | _ -> c >= 0)
          | _ -> raise (Unsafe (Fmt.str "unknown builtin %s" op))
        in
        if holds then k subst
      end
  end
  | _ -> raise (Unsafe (Fmt.str "builtin %a must be binary" Atom.pp atom))

let solve ?stats ~source ~neg_source body subst k =
  let rec go i lits subst =
    match lits with
    | [] -> k subst
    | Rule.Pos atom :: rest when Atom.is_builtin atom ->
      eval_builtin atom subst (fun s -> go (i + 1) rest s)
    | Rule.Pos atom :: rest ->
      atom_matches ?stats (source i) atom subst (fun s -> go (i + 1) rest s)
    | Rule.Neg atom :: rest ->
      let a = Atom.apply_deep_eval subst atom in
      if not (Atom.is_ground a) then
        raise (Unsafe (Fmt.str "negated literal %a reached with unbound variables" Atom.pp a))
      else begin
        (* negated builtins are evaluated natively and touch no relation;
           only real relation membership tests count as probes *)
        let holds =
          if Atom.is_builtin a then begin
            let found = ref false in
            eval_builtin a subst (fun _ -> found := true);
            !found
          end
          else
            match neg_source (Atom.symbol a) with
            | None -> false
            | Some rel -> (
              bump_probes stats;
              match Tuple.find_of_list a.Atom.args with
              | None -> false
              | Some t -> Relation.mem rel t)
        in
        if not holds then go (i + 1) rest subst
      end
  in
  go 0 body subst

let fire_rule ?stats ~source ~neg_source ~on_fact rule =
  solve ?stats ~source ~neg_source rule.Rule.body Subst.empty (fun subst ->
      let head = Atom.apply_deep_eval subst rule.Rule.head in
      if not (Atom.is_ground head) then
        raise (Unsafe (Fmt.str "rule for %a derived non-ground head %a" Atom.pp
                         rule.Rule.head Atom.pp head));
      on_fact head)
