(* Epoch-stamped read snapshots: per-relation stamp watermarks, read
   through the [\[0, w)] range views of Relation.  See snapshot.mli for
   the aliasing/deletion caveats the serving layer builds on. *)

open Datalog

type t = { epoch : int; marks : (Relation.t * int) Symbol.Tbl.t }

let capture ~epoch db =
  let marks = Symbol.Tbl.create 32 in
  List.iter
    (fun sym ->
      match Database.find db sym with
      | Some rel -> Symbol.Tbl.replace marks sym (rel, Relation.size rel)
      | None -> ())
    (Database.symbols db);
  { epoch; marks }

let epoch t = t.epoch

let watermark t sym =
  match Symbol.Tbl.find_opt t.marks sym with Some (_, w) -> w | None -> 0

let iter t sym f =
  match Symbol.Tbl.find_opt t.marks sym with
  | None -> ()
  | Some (rel, w) -> Relation.iter_in rel ~lo:0 ~hi:w f

let fold t sym f init =
  let acc = ref init in
  iter t sym (fun tu -> acc := f tu !acc);
  !acc

let mem_tuple t sym tuple =
  match Symbol.Tbl.find_opt t.marks sym with
  | None -> false
  | Some (rel, w) -> Relation.mem_in rel ~lo:0 ~hi:w tuple

let mem t (a : Atom.t) =
  if not (Atom.is_ground a) then invalid_arg "Snapshot.mem: non-ground atom";
  match Tuple.find_of_list a.Atom.args with
  | None -> false
  | Some tu -> mem_tuple t (Atom.symbol a) tu

let cardinal t sym = fold t sym (fun _ n -> n + 1) 0

let total t =
  Symbol.Tbl.fold (fun sym _ acc -> acc + cardinal t sym) t.marks 0

let select t ?since (a : Atom.t) f =
  match Symbol.Tbl.find_opt t.marks (Atom.symbol a) with
  | None -> ()
  | Some (rel, w) ->
    let lo = match since with Some s -> watermark s (Atom.symbol a) | None -> 0 in
    Relation.select rel ~lo ~hi:w a.Atom.args f

let matching t a =
  let acc = ref [] in
  select t a (fun tu -> acc := tu :: !acc);
  List.sort Tuple.compare !acc
