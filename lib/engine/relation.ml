(* Single-storage relations with insertion stamps and tombstoned deletion.

   Every tuple is appended once to an insertion log and stamped with its
   log position; a flat open-addressing table ({!Ttbl}) maps each tuple
   to its stamp.  A stamp range [\[lo, hi)] then denotes a consistent
   past snapshot of the relation, which is what the semi-naive engine
   needs: "old", "delta" and "new" are ranges over one store instead of
   separate databases that must be re-hashed and merged every round.

   Deletion never reuses a stamp: removing a tuple marks its log slot
   dead in a side bitset, drops it from the stamp table and from every
   index bucket.  A subsequent re-insertion of the same tuple appends a
   fresh log entry with a fresh stamp, so it lands beyond every watermark
   taken before the re-insertion — exactly the discipline the incremental
   maintenance layer needs to tell "the post-deletion state" ([\[0, w)])
   apart from "this transaction's insertions" ([\[w, size)]) without
   copying the relation.

   The dead bitset is the out-of-band deletion marker: unlike the former
   sentinel tuple compared by physical equality, it cannot collide with
   any user fact (interning shares structurally equal tuples, so no
   constructed tuple is physically unique) and costs one byte per log
   slot.

   An index bucket holds the stamps of the tuples sharing one key in a
   growable [int] array, ascending (stamps are handed out in increasing
   order), and is read newest-first from its end; the tuples themselves
   are taken from the log.  One word per entry, against six for the
   former [(stamp, tuple)] pair plus cons cell.  A range-restricted probe
   skips the too-new suffix and stops at the first too-old entry.  A
   traversal reads the [(entries, n)] pair it started with: an insert
   only ever writes past [n] (or into a grown copy), and a removal
   replaces the array with a copy lacking the stamp (copy-on-remove), so
   the traversed prefix is never written — the snapshot semantics
   {!iter_matching} documents.  The bound positions of each index are
   precomputed, and probes resolve the index for a binding pattern by
   physical equality first — the executors pass the same compile-time
   pattern array on every probe — so the common case is a pointer walk
   over a one- or two-element list. *)

type bucket = { mutable entries : int array; mutable n : int }  (* stamps *)
type index = bucket Ttbl.t

(* the dummy every index table returns on a miss; never written *)
let no_bucket = { entries = [||]; n = 0 }

type t = {
  arity : int;
  stamps : int Ttbl.t;  (* live tuple -> insertion stamp; -1 = absent *)
  mutable log : Tuple.t array;  (* tuples in insertion order *)
  mutable dead : Bytes.t;  (* dead.(stamp) = '\001' iff the slot was removed *)
  mutable len : int;
  mutable indexes : (bool array * int array * index) list;
}

let create arity =
  {
    arity;
    stamps = Ttbl.create (-1);
    log = [||];
    dead = Bytes.empty;
    len = 0;
    indexes = [];
  }

let arity r = r.arity
let cardinal r = Ttbl.length r.stamps
let size r = r.len
let mem r t = Ttbl.get r.stamps t >= 0

let mem_in r ~lo ~hi t =
  let stamp = Ttbl.get r.stamps t in
  stamp >= 0 && lo <= stamp && stamp < hi

let live r stamp = Bytes.unsafe_get r.dead stamp = '\000'

let bound_positions pattern =
  let acc = ref [] in
  Array.iteri (fun i b -> if b then acc := i :: !acc) pattern;
  Array.of_list (List.rev !acc)

(* probe by projection ({!Ttbl.get_proj}); the key array is only
   materialized when this bucket is new.  [stamp] exceeds every stamp in
   the bucket, so appending keeps it ascending. *)
let index_add idx positions stamp t =
  let b = Ttbl.get_proj idx positions t in
  if b == no_bucket then
    Ttbl.replace idx (Array.map (fun i -> t.(i)) positions) { entries = [| stamp |]; n = 1 }
  else begin
    if b.n = Array.length b.entries then begin
      let grown = Array.make (2 * b.n) 0 in
      Array.blit b.entries 0 grown 0 b.n;
      b.entries <- grown
    end;
    b.entries.(b.n) <- stamp;
    b.n <- b.n + 1
  end

(* position of [stamp] in the ascending prefix [0, n) of [a] *)
let rec find_stamp a stamp lo hi =
  let mid = (lo + hi) / 2 in
  let s = a.(mid) in
  if s = stamp then mid
  else if s < stamp then find_stamp a stamp (mid + 1) hi
  else find_stamp a stamp lo mid

(* copy-on-remove: a traversal holding the old array keeps its view *)
let index_remove idx positions stamp t =
  let b = Ttbl.get_proj idx positions t in
  if b != no_bucket then
    if b.n = 1 then Ttbl.remove idx (Array.map (fun i -> t.(i)) positions)
    else begin
      let i = find_stamp b.entries stamp 0 b.n in
      let rest = Array.make (b.n - 1) 0 in
      Array.blit b.entries 0 rest 0 i;
      Array.blit b.entries (i + 1) rest i (b.n - 1 - i);
      b.entries <- rest;
      b.n <- b.n - 1
    end

let push r t =
  if r.len = Array.length r.log then begin
    let cap = max 16 (2 * r.len) in
    let log = Array.make cap t in
    Array.blit r.log 0 log 0 r.len;
    r.log <- log;
    let dead = Bytes.make cap '\000' in
    Bytes.blit r.dead 0 dead 0 r.len;
    r.dead <- dead
  end;
  r.log.(r.len) <- t;
  Bytes.set r.dead r.len '\000';
  r.len <- r.len + 1

let add r t =
  if Array.length t <> r.arity then
    invalid_arg
      (Fmt.str "Relation.add: tuple %a has arity %d, expected %d" Tuple.pp t
         (Array.length t) r.arity);
  let stamp = r.len in
  if not (Ttbl.add_if_absent r.stamps t stamp) then false
  else begin
    push r t;
    List.iter (fun (_, positions, idx) -> index_add idx positions stamp t) r.indexes;
    true
  end

let remove r t =
  let stamp = Ttbl.get r.stamps t in
  if stamp < 0 then false
  else begin
    Ttbl.remove r.stamps t;
    Bytes.set r.dead stamp '\001';
    List.iter (fun (_, positions, idx) -> index_remove idx positions stamp t) r.indexes;
    true
  end

let iter_in r ~lo ~hi f =
  let hi = min hi r.len in
  for i = max lo 0 to hi - 1 do
    if live r i then f r.log.(i)
  done

let iter f r = iter_in r ~lo:0 ~hi:r.len f

let fold f r init =
  let acc = ref init in
  iter (fun t -> acc := f t !acc) r;
  !acc

let to_list r = fold List.cons r []

let pattern_equal a b = Array.length a = Array.length b && Array.for_all2 Bool.equal a b

(* physical equality first: executors pass the same pattern array on
   every probe of a compiled scan *)
let rec find_index pattern = function
  | [] -> None
  | (p, _, idx) :: rest ->
    if p == pattern || pattern_equal p pattern then Some idx else find_index pattern rest

let ensure_index r pattern =
  match find_index pattern r.indexes with
  | Some idx -> idx
  | None ->
    let idx = Ttbl.create no_bucket in
    let positions = bound_positions pattern in
    for i = 0 to r.len - 1 do
      if live r i then index_add idx positions i r.log.(i)
    done;
    r.indexes <- (pattern, positions, idx) :: r.indexes;
    idx

(* newest first from position [i] down: skip stamps >= hi, stop below
   lo.  Top-level so a probe allocates no closure. *)
let rec iter_stamps r stamps i ~lo ~hi f =
  if i >= 0 then begin
    let stamp = Array.unsafe_get stamps i in
    if stamp >= hi then iter_stamps r stamps (i - 1) ~lo ~hi f
    else if stamp >= lo then begin
      f r.log.(stamp);
      iter_stamps r stamps (i - 1) ~lo ~hi f
    end
  end

(* over the [(entries, n)] pair read at the start *)
let iter_bucket r b ~lo ~hi f = iter_stamps r b.entries (b.n - 1) ~lo ~hi f

let iter_matching_in r ~pattern ~key ~lo ~hi f =
  if Array.length pattern <> r.arity then
    invalid_arg "Relation.iter_matching_in: pattern arity mismatch";
  if Array.for_all not pattern then iter_in r ~lo ~hi f
  else
    let b = Ttbl.get (ensure_index r pattern) key in
    if b != no_bucket then iter_bucket r b ~lo ~hi f

let iter_matching r ~pattern ~key f = iter_matching_in r ~pattern ~key ~lo:0 ~hi:max_int f

let lookup r ~pattern ~key =
  let acc = ref [] in
  iter_matching r ~pattern ~key (fun t -> acc := t :: !acc);
  !acc

(* ---- selection by query arguments ----

   The one answer projection every layer shares: [Eval.answers],
   [Rewritten.answers], snapshot reads and the serving cache all read
   "the tuples matching these arguments" through [select]. *)

let selection r args =
  let argv = Array.of_list args in
  if Array.length argv <> r.arity then invalid_arg "Relation.select: argument count mismatch";
  match Tuple.find_of_list (List.filter Datalog.Term.is_ground args) with
  | None -> None (* a constant never interned occurs in no relation *)
  | Some key ->
    let nonvar_open = function Datalog.Term.Var _ -> false | a -> not (Datalog.Term.is_ground a) in
    let keep =
      if Array.exists nonvar_open argv then fun t ->
        Option.is_some (Datalog.Subst.match_list args (Tuple.to_list t) Datalog.Subst.empty)
      else begin
        (* a repeated variable forces equal components *)
        let first = Hashtbl.create 4 and eqs = ref [] in
        Array.iteri
          (fun i -> function
            | Datalog.Term.Var v -> (
              match Hashtbl.find_opt first v with
              | Some j -> eqs := (i, j) :: !eqs
              | None -> Hashtbl.add first v i)
            | _ -> ())
          argv;
        match !eqs with
        | [] -> fun _ -> true
        | eqs -> fun t -> List.for_all (fun (i, j) -> Value.equal t.(i) t.(j)) eqs
      end
    in
    Some (Array.map Datalog.Term.is_ground argv, key, keep)

let select r ?(lo = 0) ?(hi = max_int) args f =
  match selection r args with
  | None -> ()
  | Some (pattern, key, keep) ->
    let f t = if keep t then f t in
    if Array.for_all not pattern then iter_in r ~lo ~hi f
    else begin
      match find_index pattern r.indexes with
      | Some idx ->
        let b = Ttbl.get idx key in
        if b != no_bucket then iter_bucket r b ~lo ~hi f
      | None ->
        (* no index for this pattern: never build one here (readers
           share the relation), scan the range instead *)
        let positions = bound_positions pattern in
        iter_in r ~lo ~hi (fun t -> if Tuple.equal_proj positions t key then f t)
    end

let prepare r args =
  let pattern = Array.of_list (List.map Datalog.Term.is_ground args) in
  if Array.length pattern <> r.arity then invalid_arg "Relation.prepare: argument count mismatch";
  if Array.exists Fun.id pattern then ignore (ensure_index r pattern)

let indexed r = List.map (fun (pattern, _, _) -> pattern) r.indexes

let copy r =
  let r' = create r.arity in
  iter (fun t -> ignore (add r' t)) r;
  r'

(* Exact-fidelity export for the snapshot writer: the full log including
   tombstoned slots, so stamps survive a save/load round trip.  Replaying
   add/remove would not do — a dead slot's tuple may coincide with a
   later live slot, and stamp positions feed the maintenance layer's
   watermark arithmetic. *)
let export_log r = (Array.sub r.log 0 r.len, Bytes.sub r.dead 0 r.len)

let of_log ~arity ~log ~dead =
  let len = Array.length log in
  if Bytes.length dead <> len then
    invalid_arg "Relation.of_log: dead bitset length mismatch";
  (* pre-size the stamp table for the known population: a bulk load
     should pay one allocation, not a cascade of doubling rehashes *)
  let r =
    {
      arity;
      stamps = Ttbl.create ~initial:(4 * max 1 len) (-1);
      log = Array.copy log;
      dead = Bytes.copy dead;
      len;
      indexes = [];
    }
  in
  Array.iteri
    (fun stamp t ->
      if Array.length t <> arity then
        invalid_arg
          (Fmt.str "Relation.of_log: tuple %a has arity %d, expected %d" Tuple.pp t
             (Array.length t) arity);
      if Bytes.get dead stamp = '\000' && not (Ttbl.add_if_absent r.stamps t stamp) then
        invalid_arg (Fmt.str "Relation.of_log: duplicate live tuple %a" Tuple.pp t))
    log;
  r

let clear r =
  Ttbl.reset r.stamps;
  r.log <- [||];
  r.dead <- Bytes.empty;
  r.len <- 0;
  r.indexes <- []

let pp ppf r =
  let items = List.sort Tuple.compare (to_list r) in
  Fmt.pf ppf "{%a}" (Fmt.list ~sep:(Fmt.any "; ") Tuple.pp) items
