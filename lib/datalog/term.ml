type t =
  | Var of string
  | Int of int
  | Sym of string
  | App of string * t list
  | Add of t * t
  | Mul of t * t
  | Div of t * t

let rec equal a b =
  match a, b with
  | Var x, Var y -> String.equal x y
  | Int i, Int j -> Int.equal i j
  | Sym x, Sym y -> String.equal x y
  | App (f, xs), App (g, ys) ->
    String.equal f g && List.length xs = List.length ys && List.for_all2 equal xs ys
  | Add (a1, a2), Add (b1, b2) | Mul (a1, a2), Mul (b1, b2) | Div (a1, a2), Div (b1, b2) ->
    equal a1 b1 && equal a2 b2
  | (Var _ | Int _ | Sym _ | App _ | Add _ | Mul _ | Div _), _ -> false

let rec compare a b =
  let tag = function
    | Var _ -> 0
    | Int _ -> 1
    | Sym _ -> 2
    | App _ -> 3
    | Add _ -> 4
    | Mul _ -> 5
    | Div _ -> 6
  in
  match a, b with
  | Var x, Var y -> String.compare x y
  | Int i, Int j -> Int.compare i j
  | Sym x, Sym y -> String.compare x y
  | App (f, xs), App (g, ys) ->
    let c = String.compare f g in
    if c <> 0 then c else List.compare compare xs ys
  | Add (a1, a2), Add (b1, b2) | Mul (a1, a2), Mul (b1, b2) | Div (a1, a2), Div (b1, b2) ->
    let c = compare a1 b1 in
    if c <> 0 then c else compare a2 b2
  | _ -> Int.compare (tag a) (tag b)

let rec hash = function
  | Var x -> Hashtbl.hash (0, x)
  | Int i -> Hashtbl.hash (1, i)
  | Sym s -> Hashtbl.hash (2, s)
  | App (f, xs) -> Hashtbl.hash (3, f, List.map hash xs)
  | Add (a, b) -> Hashtbl.hash (4, hash a, hash b)
  | Mul (a, b) -> Hashtbl.hash (5, hash a, hash b)
  | Div (a, b) -> Hashtbl.hash (6, hash a, hash b)

let rec is_ground = function
  | Var _ -> false
  | Int _ | Sym _ -> true
  | App (_, xs) -> List.for_all is_ground xs
  | Add (a, b) | Mul (a, b) | Div (a, b) -> is_ground a && is_ground b

let rec add_vars t acc =
  match t with
  | Var x -> if List.mem x acc then acc else x :: acc
  | Int _ | Sym _ -> acc
  | App (_, xs) -> List.fold_left (fun acc t -> add_vars t acc) acc xs
  | Add (a, b) | Mul (a, b) | Div (a, b) -> add_vars b (add_vars a acc)

let vars t = List.rev (add_vars t [])

let rec map_vars f = function
  | Var x -> f x
  | (Int _ | Sym _) as t -> t
  | App (g, xs) -> App (g, List.map (map_vars f) xs)
  | Add (a, b) -> Add (map_vars f a, map_vars f b)
  | Mul (a, b) -> Mul (map_vars f a, map_vars f b)
  | Div (a, b) -> Div (map_vars f a, map_vars f b)

let rename f t = map_vars (fun x -> Var (f x)) t

type arith_op = Plus | Times | Quot

exception Arithmetic_overflow

let add_int i j =
  let r = i + j in
  if (i >= 0 && j >= 0 && r < 0) || (i < 0 && j < 0 && r >= 0) then
    raise Arithmetic_overflow
  else r

let mul_int i j =
  if i = 0 || j = 0 then 0
  else
    let r = i * j in
    if r / j <> i then raise Arithmetic_overflow else r

let div_int i j = if j = 0 then invalid_arg "Term.eval: division by zero" else i / j

let rec eval t =
  match t with
  | Var _ | Int _ | Sym _ -> t
  | App (f, xs) -> App (f, List.map eval xs)
  | Add (a, b) -> arith Plus (eval a) (eval b)
  | Mul (a, b) -> arith Times (eval a) (eval b)
  | Div (a, b) -> arith Quot (eval a) (eval b)

and arith op a b =
  match a, b with
  | Int i, Int j -> begin
    match op with
    | Plus -> Int (add_int i j)
    | Times -> Int (mul_int i j)
    | Quot -> Int (div_int i j)
  end
  | Sym _, _ | _, Sym _ -> invalid_arg "Term.eval: arithmetic over non-integer"
  | (Var _ | App _ | Add _ | Mul _ | Div _), _ | _, (Var _ | App _ | Add _ | Mul _ | Div _)
    -> begin
    (* not yet instantiated; keep symbolic *)
    match op with Plus -> Add (a, b) | Times -> Mul (a, b) | Quot -> Div (a, b)
  end

let rec size = function
  | Var _ | Int _ | Sym _ -> 1
  | App (_, xs) -> List.fold_left (fun n t -> n + size t) 1 xs
  | Add (a, b) | Mul (a, b) | Div (a, b) -> 1 + size a + size b

let nil = Sym "[]"
let cons h t = App ("cons", [ h; t ])
let list ts = List.fold_right cons ts nil

(* Pretty-printing.  Lists are re-sugared; arithmetic prints infix with
   enough parentheses to round-trip through the parser. *)
let rec pp ppf = function
  | Var x -> Fmt.string ppf x
  | Int i -> Fmt.int ppf i
  | Sym s -> Fmt.string ppf s
  | App ("cons", [ h; t ]) -> pp_list ppf [ h ] t
  | App (f, xs) -> Fmt.pf ppf "%s(%a)" f Fmt.(list ~sep:(any ", ") pp) xs
  | Add (a, b) -> Fmt.pf ppf "%a + %a" pp_factor a pp_factor b
  | Mul (a, b) -> Fmt.pf ppf "%a * %a" pp_atomic a pp_atomic b
  | Div (a, b) -> Fmt.pf ppf "%a / %a" pp_atomic a pp_atomic b

and pp_list ppf rev_heads tail =
  match tail with
  | App ("cons", [ h; t ]) -> pp_list ppf (h :: rev_heads) t
  | Sym "[]" -> Fmt.pf ppf "[%a]" Fmt.(list ~sep:(any ", ") pp) (List.rev rev_heads)
  | t -> Fmt.pf ppf "[%a | %a]" Fmt.(list ~sep:(any ", ") pp) (List.rev rev_heads) pp t

and pp_factor ppf t =
  (* factor position inside a sum: multiplications are fine unparenthesized *)
  match t with
  | Add _ -> Fmt.pf ppf "(%a)" pp t
  | _ -> pp ppf t

and pp_atomic ppf t =
  match t with
  | Add _ | Mul _ | Div _ -> Fmt.pf ppf "(%a)" pp t
  | _ -> pp ppf t

let to_string t = Fmt.str "%a" pp t
