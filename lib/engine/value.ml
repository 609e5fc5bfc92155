(* Hash-consed ground values.

   Every ground term the engine ever stores is interned exactly once into
   a dense non-negative [int] id.  Interning is recursive: an [App] node
   is keyed by its functor and the ids of its (already interned)
   arguments, so structural equality of ground terms coincides with [=]
   on ids and the hot paths — stamp tables, index buckets, join probes —
   compare and hash machine integers instead of walking term trees.

   The pool is global and append-only.  Ids index an extern array holding
   the canonical [Term.t] of each value, so [extern] is O(1) and answer
   extraction / pretty-printing keeps the symbolic front-end API.  Ground
   arithmetic is normalized at the intern boundary: [intern (Add (Int 1,
   Int 2))] is the id of [Int 3], mirroring the evaluation the engine
   already performs when loading facts.

   [find] is the non-inserting companion used on probe paths: a ground
   term with no id cannot occur in any relation (every stored tuple's
   components were interned on insert), so an absent id is a guaranteed
   miss that costs no pool growth. *)

open Datalog

type t = int

type node = Int of int | Sym of string | App of string * t array

module Node = struct
  type t = node

  let equal a b =
    match (a, b) with
    | Int i, Int j -> Int.equal i j
    | Sym s, Sym u -> String.equal s u
    | App (f, xs), App (g, ys) ->
      String.equal f g
      && Array.length xs = Array.length ys
      &&
      let rec go i = i >= Array.length xs || (Int.equal xs.(i) ys.(i) && go (i + 1)) in
      go 0
    | _ -> false

  let hash = function
    | Int i -> i land max_int
    | Sym s -> Hashtbl.hash s
    | App (f, xs) ->
      Array.fold_left (fun h id -> ((h * 31) + id) land max_int) (Hashtbl.hash f) xs
end

module Ntbl = Hashtbl.Make (Node)

(* id -> canonical term, grown on demand; [count] is the pool size.
   [nodes] mirrors [terms] with the structural node of each id (shared
   with the intern-table key), so the pool can be walked in dense-id
   order without re-deriving child ids — the snapshot writer's linear
   scan — and the rule executor can destructure a value ({!node}). *)
let terms : Term.t array ref = ref (Array.make 1024 (Term.Int 0))
let nodes : node array ref = ref (Array.make 1024 (Int 0))
let count = ref 0
let ids : int Ntbl.t = Ntbl.create 4096

let pool_size () = !count

let push term node =
  if !count = Array.length !terms then begin
    let bigger = Array.make (2 * !count) (Term.Int 0) in
    Array.blit !terms 0 bigger 0 !count;
    terms := bigger;
    let bigger_nodes = Array.make (2 * !count) (Int 0) in
    Array.blit !nodes 0 bigger_nodes 0 !count;
    nodes := bigger_nodes
  end;
  !terms.(!count) <- term;
  !nodes.(!count) <- node;
  incr count

let alloc node canonical =
  match Ntbl.find_opt ids node with
  | Some id -> id
  | None ->
    let id = !count in
    push canonical node;
    Ntbl.add ids node id;
    id

let rec intern t =
  match t with
  | Term.Int i -> alloc (Int i) t
  | Term.Sym s -> alloc (Sym s) t
  | Term.App (f, args) ->
    let kids = Array.of_list (List.map intern args) in
    let node = App (f, kids) in
    (match Ntbl.find_opt ids node with
    | Some id -> id
    | None ->
      (* canonical arguments, so arithmetic nested under an App externs
         in evaluated form *)
      let canon_args = Array.to_list (Array.map (fun id -> !terms.(id)) kids) in
      let canonical =
        if List.for_all2 (fun a c -> a == c) args canon_args then t
        else Term.App (f, canon_args)
      in
      let id = !count in
      push canonical node;
      Ntbl.add ids node id;
      id)
  | Term.Var x -> invalid_arg ("Value.intern: non-ground term " ^ x)
  | Term.Add _ | Term.Mul _ | Term.Div _ -> (
    match Term.eval t with
    | Term.Int _ as n -> intern n
    | _ -> invalid_arg "Value.intern: non-ground arithmetic")

let rec find t =
  match t with
  | Term.Int i -> Ntbl.find_opt ids (Int i)
  | Term.Sym s -> Ntbl.find_opt ids (Sym s)
  | Term.App (f, args) ->
    let rec kids acc = function
      | [] -> Ntbl.find_opt ids (App (f, Array.of_list (List.rev acc)))
      | x :: rest -> ( match find x with Some id -> kids (id :: acc) rest | None -> None)
    in
    kids [] args
  | Term.Var _ -> None
  | Term.Add _ | Term.Mul _ | Term.Div _ -> (
    match Term.eval t with Term.Int _ as n -> find n | _ -> None)

let extern id =
  if id < 0 || id >= !count then
    invalid_arg (Fmt.str "Value.extern: unknown id %d" id);
  !terms.(id)

let of_int id =
  if id < 0 || id >= !count then
    invalid_arg (Fmt.str "Value.of_int: unknown id %d" id);
  id

let to_int id = id
let equal : t -> t -> bool = Int.equal
let hash (id : t) = id
let compare : t -> t -> int = Int.compare

(* The structural node, shared with the pool: no copy, no allocation.
   Children of an [App] were interned before it, so walking ids
   [0 .. pool_size () - 1] and writing each node yields a stream where
   every child reference points backwards — the snapshot loader's
   single-pass remap invariant. *)
let node id =
  if id < 0 || id >= !count then
    invalid_arg (Fmt.str "Value.node: unknown id %d" id);
  !nodes.(id)

let int i = alloc (Int i) (Term.Int i)

(* Intern an application from already-interned children without
   re-walking their term trees: O(1) per node.  [kids] becomes the
   pool's own array when the node is new. *)
let app f kids =
  Array.iter
    (fun k ->
      if k < 0 || k >= !count then
        invalid_arg (Fmt.str "Value.app: unknown child id %d" k))
    kids;
  let node = App (f, kids) in
  match Ntbl.find_opt ids node with
  | Some id -> id
  | None ->
    let canonical = Term.App (f, Array.to_list (Array.map (fun k -> !terms.(k)) kids)) in
    let id = !count in
    push canonical node;
    Ntbl.add ids node id;
    id

(* Order by the denoted term, not the (insertion-ordered) id: answer
   lists sort the same way they did with structural tuples. *)
let compare_structural a b = if Int.equal a b then 0 else Term.compare (extern a) (extern b)

let pp ppf id = Term.pp ppf (extern id)
