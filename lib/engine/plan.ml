open Datalog
module SS = Set.Make (String)

type expr =
  | Val of Value.t
  | Slot of int
  | Fn of string * expr array
  | Add of expr * expr
  | Mul of expr * expr
  | Div of expr * expr

type pat =
  | Bind of int
  | Eq of expr
  | Args of string * pat array
  | Minus of pat * expr
  | Over of pat * expr
  | Never

type scan = {
  lit : int;
  sym : Symbol.t;
  pattern : bool array;
  key : expr array;
  free : (int * pat) array;
}

type step =
  | Scan of scan
  | Test of { l : expr; r : expr; holds : Value.t -> Value.t -> bool }
  | Unify of { value : expr; pat : pat }
  | Neg of { lit : int; sym : Symbol.t; key : expr array }
  | Unsafe of (Value.t array -> string)

type instance = {
  steps : step array;
  head_sym : Symbol.t;
  head : expr array;
  nvars : int;
}

type t = { rule : Rule.t; base : instance; delta : (int * instance) list }

(* ------------------------------------------------------------------ *)
(* Join order                                                          *)
(* ------------------------------------------------------------------ *)

let term_vars t = SS.of_list (Term.vars t)
let all_vars_bound bound t = SS.subset (term_vars t) bound

let is_eq = function
  | Rule.Pos a -> Atom.is_builtin a && String.equal a.Atom.pred "="
  | Rule.Neg _ -> false

(* Variables bound after a literal succeeds.  An [=] is only placed once
   one side is fully bound, and then grounds every variable of the
   other side. *)
let bound_after bound lit =
  match lit with
  | Rule.Pos a when Atom.is_builtin a -> begin
    match a.Atom.pred, a.Atom.args with
    | "=", [ l; r ] ->
      if all_vars_bound bound l || all_vars_bound bound r then
        SS.union bound (SS.union (term_vars l) (term_vars r))
      else bound
    | _ -> bound
  end
  | Rule.Pos a -> SS.union bound (SS.of_list (Atom.vars a))
  | Rule.Neg _ -> bound

(* A builtin or negated literal is ready once it can run without an
   [Unsafe]: [=] as soon as one side is fully bound, anything else once
   all of its variables are. *)
let ready bound lit =
  match lit with
  | Rule.Pos a when Atom.is_builtin a -> begin
    match a.Atom.pred, a.Atom.args with
    | "=", [ l; r ] -> all_vars_bound bound l || all_vars_bound bound r
    | _ -> List.for_all (all_vars_bound bound) a.Atom.args
  end
  | Rule.Neg a -> List.for_all (all_vars_bound bound) a.Atom.args
  | Rule.Pos _ -> false

(* The rule's own literal order, except that an [=] with no bound side
   waits until one side is bound: before that its bindings would not be
   ground.  Every other literal stays where it is, so an unready
   comparison or negation raises [Unsafe] exactly where {!Solve} does. *)
let textual body =
  let bound = ref SS.empty in
  let waiting = ref [] in
  let out = ref [] in
  let rec place ((_, lit) as entry) =
    out := entry :: !out;
    bound := bound_after !bound lit;
    match List.find_opt (fun (_, l) -> ready !bound l) !waiting with
    | Some e ->
      waiting := List.filter (fun w -> w != e) !waiting;
      place e
    | None -> ()
  in
  List.iter
    (fun ((_, lit) as entry) ->
      if is_eq lit && not (ready !bound lit) then waiting := !waiting @ [ entry ]
      else place entry)
    body;
  List.rev_append !out !waiting

(* Greedy bound-first join ordering.  The forced literal (the semi-naive
   delta literal) is scanned first, so a round's work is proportional to
   the delta, not to the relations the rule happens to mention first.
   After each pick, ready builtins and negations are flushed (they are
   filters: running them as early as possible only shrinks the join), and
   the next relation literal is the one with the most bound argument
   positions (ties resolved towards the original left-to-right order, the
   paper's default sip).  Builtins/negations that never become ready end
   the order in original order and raise [Unsafe] when reached. *)
let order ~forced body =
  let emitted = ref [] in
  let bound = ref SS.empty in
  let emit ((_, lit) as entry) =
    emitted := entry :: !emitted;
    bound := bound_after !bound lit
  in
  let remaining = ref [] in
  List.iter
    (fun ((i, _) as entry) ->
      if i = forced then emit entry else remaining := entry :: !remaining)
    body;
  remaining := List.rev !remaining;
  let take entry = remaining := List.filter (fun e -> e != entry) !remaining in
  let rec flush () =
    match List.find_opt (fun (_, lit) -> ready !bound lit) !remaining with
    | Some entry ->
      take entry;
      emit entry;
      flush ()
    | None -> ()
  in
  while
    flush ();
    !remaining <> []
  do
    let score (_, lit) =
      match lit with
      | Rule.Pos a when not (Atom.is_builtin a) ->
        Some (List.length (List.filter (all_vars_bound !bound) a.Atom.args))
      | Rule.Pos _ | Rule.Neg _ -> None
    in
    let best =
      List.fold_left
        (fun acc entry ->
          match score entry, acc with
          | None, _ -> acc
          | Some s, Some (_, s') when s <= s' -> acc
          | Some s, _ -> Some (entry, s))
        None !remaining
    in
    match best with
    | Some (entry, _) ->
      take entry;
      emit entry
    | None ->
      List.iter emit !remaining;
      remaining := []
  done;
  List.rev !emitted

(* ------------------------------------------------------------------ *)
(* Compilation to slots                                                *)
(* ------------------------------------------------------------------ *)

(* The variables of one instance, numbered in binding order.  Static
   binding discipline makes un-binding on backtrack unnecessary: a slot
   is only ever read after a write on the current path. *)
type scope = { slots : (string, int) Hashtbl.t; mutable next : int }

let bound sc t = List.for_all (Hashtbl.mem sc.slots) (Term.vars t)

let fresh sc x =
  let i = sc.next in
  sc.next <- i + 1;
  Hashtbl.replace sc.slots x i;
  i

let rec has_arith = function
  | Term.Add _ | Term.Mul _ | Term.Div _ -> true
  | Term.App (_, xs) -> List.exists has_arith xs
  | Term.Var _ | Term.Int _ | Term.Sym _ -> false

(* A term whose variables are all bound.  Ground subterms without
   arithmetic are interned once here; arithmetic is always evaluated at
   run time, so an overflow or a division by zero surfaces where the
   rule reaches it. *)
let rec expr_of sc t =
  match t with
  | Term.Var x -> Slot (Hashtbl.find sc.slots x)
  | _ when Term.is_ground t && not (has_arith t) -> Val (Value.intern t)
  | Term.App (f, xs) -> Fn (f, Array.of_list (List.map (expr_of sc) xs))
  | Term.Add (a, b) -> Add (expr_of sc a, expr_of sc b)
  | Term.Mul (a, b) -> Mul (expr_of sc a, expr_of sc b)
  | Term.Div (a, b) -> Div (expr_of sc a, expr_of sc b)
  | Term.Int _ | Term.Sym _ -> assert false (* ground, handled above *)

(* A pattern to match against a value, binding its unbound variables
   left to right.  With [~invert], [x + c] and [x * c] with [c] bound
   are solved for [x], as the semijoin counting rules need once their
   guard literal is gone; [=] does not invert (unification does not
   evaluate an unbound side). *)
let rec pat_of ~invert sc t =
  if bound sc t then Eq (expr_of sc t)
  else
    match t with
    | Term.Var x -> Bind (fresh sc x)
    | Term.App (f, xs) ->
      let rec args = function
        | [] -> []
        | x :: rest ->
          let p = pat_of ~invert sc x in
          p :: args rest
      in
      Args (f, Array.of_list (args xs))
    | Term.Add (a, c) when invert && bound sc c -> minus ~invert sc a c
    | Term.Add (c, a) when invert && bound sc c -> minus ~invert sc a c
    | Term.Mul (a, c) when invert && bound sc c -> over ~invert sc a c
    | Term.Mul (c, a) when invert && bound sc c -> over ~invert sc a c
    | Term.Add _ | Term.Mul _ | Term.Div _ | Term.Int _ | Term.Sym _ ->
      (* never matches; its variables still get slots so that later
         literals compile, though no path ever reaches them *)
      List.iter
        (fun x -> if not (Hashtbl.mem sc.slots x) then ignore (fresh sc x))
        (Term.vars t);
      Never

and minus ~invert sc a c =
  let c = expr_of sc c in
  Minus (pat_of ~invert sc a, c)

and over ~invert sc a c =
  let c = expr_of sc c in
  Over (pat_of ~invert sc a, c)

(* The atom with its bound variables replaced by their values: the
   message of an [Unsafe] raised at this point. *)
let applied sc atom =
  let slots = Hashtbl.fold (fun x i acc -> (x, i) :: acc) sc.slots [] in
  fun env ->
    let value x =
      match List.assoc_opt x slots with
      | Some i -> Value.extern env.(i)
      | None -> Term.Var x
    in
    let arg t = Term.eval (Term.map_vars value t) in
    { atom with Atom.args = List.map arg atom.Atom.args }

let comparison = function
  | "=" -> Value.equal
  | "<>" -> fun a b -> not (Value.equal a b)
  | "<" -> fun a b -> Value.compare_structural a b < 0
  | "<=" -> fun a b -> Value.compare_structural a b <= 0
  | ">" -> fun a b -> Value.compare_structural a b > 0
  | ">=" -> fun a b -> Value.compare_structural a b >= 0
  | op -> invalid_arg ("Plan: unknown builtin " ^ op)

let compile_step sc i lit =
  let unready a =
    Unsafe (fun _ -> Fmt.str "builtin %a reached with unbound arguments" Atom.pp a)
  in
  let negated a =
    let applied = applied sc a in
    Unsafe
      (fun env ->
        Fmt.str "negated literal %a reached with unbound variables" Atom.pp (applied env))
  in
  match lit with
  | Rule.Pos ({ Atom.pred = "="; args = [ l; r ] } as a) when Atom.is_builtin a ->
    if bound sc l then Unify { value = expr_of sc l; pat = pat_of ~invert:false sc r }
    else if bound sc r then Unify { value = expr_of sc r; pat = pat_of ~invert:false sc l }
    else unready a
  | Rule.Pos ({ Atom.args = [ l; r ]; _ } as a) when Atom.is_builtin a ->
    if bound sc l && bound sc r then
      Test { l = expr_of sc l; r = expr_of sc r; holds = comparison a.Atom.pred }
    else unready a
  | Rule.Neg ({ Atom.args = [ l; r ]; _ } as a) when Atom.is_builtin a ->
    if bound sc l && bound sc r then
      let holds = comparison a.Atom.pred in
      Test { l = expr_of sc l; r = expr_of sc r; holds = (fun x y -> not (holds x y)) }
    else negated a
  | Rule.Neg a ->
    if List.for_all (bound sc) a.Atom.args then
      let key = Array.of_list (List.map (expr_of sc) a.Atom.args) in
      Neg { lit = i; sym = Atom.symbol a; key }
    else negated a
  | Rule.Pos a ->
    let args = List.mapi (fun j t -> (j, t)) a.Atom.args in
    let bound_args, free_args = List.partition (fun (_, t) -> bound sc t) args in
    let pattern = Array.of_list (List.map (fun (_, t) -> bound sc t) args) in
    let key = Array.of_list (List.map (fun (_, t) -> expr_of sc t) bound_args) in
    (* free positions match left to right, so a variable repeated within
       the literal is checked against its first occurrence *)
    let rec free = function
      | [] -> []
      | (j, t) :: rest ->
        let p = pat_of ~invert:true sc t in
        (j, p) :: free rest
    in
    let free = Array.of_list (free free_args) in
    Scan { lit = i; sym = Atom.symbol a; pattern; key; free }

let compile_instance rule ordered =
  let sc = { slots = Hashtbl.create 8; next = 0 } in
  let rec steps = function
    | [] -> []
    | (i, lit) :: rest ->
      let s = compile_step sc i lit in
      s :: steps rest
  in
  let steps = steps ordered in
  let h = rule.Rule.head in
  let steps, head =
    if List.for_all (bound sc) h.Atom.args then
      (steps, Array.of_list (List.map (expr_of sc) h.Atom.args))
    else
      let applied = applied sc h in
      let unsafe env =
        Fmt.str "rule for %a derived non-ground head %a" Atom.pp h Atom.pp (applied env)
      in
      (steps @ [ Unsafe unsafe ], [||])
  in
  {
    steps = Array.of_list steps;
    head_sym = Atom.symbol h;
    head;
    nvars = sc.next;
  }

let compile ~delta_preds rule =
  let body = List.mapi (fun i lit -> (i, lit)) rule.Rule.body in
  let delta_positions =
    List.filter_map
      (fun (i, lit) ->
        match lit with
        | Rule.Pos a
          when (not (Atom.is_builtin a)) && Symbol.Set.mem (Atom.symbol a) delta_preds
          ->
          Some i
        | Rule.Pos _ | Rule.Neg _ -> None)
      body
  in
  {
    rule;
    base = compile_instance rule (textual body);
    delta =
      List.map
        (fun dpos -> (dpos, compile_instance rule (order ~forced:dpos body)))
        delta_positions;
  }

let compile_stratum rules =
  let heads =
    List.fold_left
      (fun acc r -> Symbol.Set.add (Atom.symbol r.Rule.head) acc)
      Symbol.Set.empty rules
  in
  List.map (compile ~delta_preds:heads) rules

(* ------------------------------------------------------------------ *)
(* Execution                                                           *)
(* ------------------------------------------------------------------ *)

type view = { rel : Relation.t; lo : int; hi : int }
type source = int -> Symbol.t -> view list

let full rel = { rel; lo = 0; hi = max_int }

let db_source db _ sym =
  match Database.find db sym with Some r -> [ full r ] | None -> []

(* singleton view lists are the overwhelmingly common case (the ordinary
   engines never pass anything else): dispatch without allocating the
   List.exists / List.iter closures *)
let rec view_mem views key =
  match views with
  | [] -> false
  | [ v ] -> Relation.mem_in v.rel ~lo:v.lo ~hi:v.hi key
  | v :: rest -> Relation.mem_in v.rel ~lo:v.lo ~hi:v.hi key || view_mem rest key

let rec views_iter_matching views ~pattern ~key f =
  match views with
  | [] -> ()
  | [ v ] -> Relation.iter_matching_in v.rel ~pattern ~key ~lo:v.lo ~hi:v.hi f
  | v :: rest ->
    Relation.iter_matching_in v.rel ~pattern ~key ~lo:v.lo ~hi:v.hi f;
    views_iter_matching rest ~pattern ~key f

let int_of v =
  match Value.node v with
  | Value.Int i -> i
  | Value.Sym _ | Value.App _ -> invalid_arg "Term.eval: arithmetic over non-integer"

let rec eval env = function
  | Val v -> v
  | Slot i -> env.(i)
  | Fn (f, args) -> Value.app f (Array.map (eval env) args)
  | Add (a, b) -> Value.int (Term.add_int (int_of (eval env a)) (int_of (eval env b)))
  | Mul (a, b) -> Value.int (Term.mul_int (int_of (eval env a)) (int_of (eval env b)))
  | Div (a, b) -> Value.int (Term.div_int (int_of (eval env a)) (int_of (eval env b)))

let rec matches env p v =
  match p with
  | Bind i ->
    env.(i) <- v;
    true
  | Eq e -> Value.equal (eval env e) v
  | Args (f, ps) -> begin
    match Value.node v with
    | Value.App (g, kids) when String.equal f g && Array.length kids = Array.length ps ->
      matches_all env ps kids 0
    | Value.App _ | Value.Int _ | Value.Sym _ -> false
  end
  | Minus (p, c) -> begin
    let c = int_of (eval env c) in
    match Value.node v with
    | Value.Int n -> matches env p (Value.int (n - c))
    | Value.Sym _ | Value.App _ -> false
  end
  | Over (p, c) -> begin
    let c = int_of (eval env c) in
    match Value.node v with
    | Value.Int n -> c <> 0 && n mod c = 0 && matches env p (Value.int (n / c))
    | Value.Sym _ | Value.App _ -> false
  end
  | Never -> false

and matches_all env ps vs j =
  j >= Array.length ps || (matches env ps.(j) vs.(j) && matches_all env ps vs (j + 1))

(* the common cases, a fresh variable and a slot read, are matched
   inline here and in [fill]: they run once per retrieved tuple and key
   component *)
let rec match_free env free tuple j =
  j >= Array.length free
  ||
  let pos, p = free.(j) in
  (match p with
   | Bind i ->
     env.(i) <- tuple.(pos);
     true
   | Eq _ | Args _ | Minus _ | Over _ | Never -> matches env p tuple.(pos))
  && match_free env free tuple (j + 1)

let fill env key exprs =
  for j = 0 to Array.length exprs - 1 do
    key.(j) <-
      (match exprs.(j) with
       | Slot w -> env.(w)
       | Val v -> v
       | (Fn _ | Add _ | Mul _ | Div _) as e -> eval env e)
  done;
  key

(* Executor scratch (the env and the key buffers slots are evaluated
   into) is allocated per call, so an [on_fact] that runs the same
   instance again cannot corrupt this run's keys; probes within a run
   reuse the buffers, so a probe itself allocates nothing. *)
let run ?stats ~source ~neg_source ~on_fact inst =
  let zero = Value.int 0 in
  let env = Array.make (max 1 inst.nvars) zero in
  let keys =
    Array.map
      (function
        | Scan { key; _ } | Neg { key; _ } -> Array.make (Array.length key) zero
        | Test _ | Unify _ | Unsafe _ -> [||])
      inst.steps
  in
  let bump () =
    match stats with None -> () | Some s -> s.Stats.probes <- s.Stats.probes + 1
  in
  let nsteps = Array.length inst.steps in
  let rec go i =
    if i >= nsteps then on_fact inst.head_sym (Array.map (eval env) inst.head)
    else
      match inst.steps.(i) with
      | Scan s -> begin
        match source s.lit s.sym with
        | [] -> ()
        | views ->
          let key = fill env keys.(i) s.key in
          bump ();
          if Array.length s.free = 0 then begin
            if view_mem views key then go (i + 1)
          end
          else
            views_iter_matching views ~pattern:s.pattern ~key (fun tuple ->
                if match_free env s.free tuple 0 then go (i + 1))
      end
      | Test { l; r; holds } -> if holds (eval env l) (eval env r) then go (i + 1)
      | Unify { value; pat } -> if matches env pat (eval env value) then go (i + 1)
      | Neg { lit; sym; key } ->
        let holds =
          match neg_source lit sym with
          | [] -> false
          | views ->
            bump ();
            view_mem views (fill env keys.(i) key)
        in
        if not holds then go (i + 1)
      | Unsafe message -> raise (Solve.Unsafe (message env))
  in
  go 0
