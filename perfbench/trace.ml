(* In-memory spans around calls into the program's layers.

   A span has a name ("<layer>.<call>"), start and end times, the span
   that was open when it started, and the id of the request it belongs
   to.  Spans are appended to an in-memory buffer and written out once,
   as Chrome trace events, when the replay ends.  With recording off,
   [span] is a direct call: the difference between a replay with spans
   off and one with spans on is the tracing overhead. *)

type span = {
  id : int;
  name : string;
  req : int;
  tag : string;  (* e.g. the eval family, "" when none *)
  parent : int;  (* -1 at top level *)
  t0 : float;
  t1 : float;
}

let enabled = ref false
let buf : span list ref = ref []
let open_stack : int list ref = ref []
let next_id = ref 0
let current_req = ref 0
let current_tag = ref ""
let now = Unix.gettimeofday

let reset ~on =
  enabled := on;
  buf := [];
  open_stack := [];
  next_id := 0

let request ?(tag = "") req =
  current_req := req;
  current_tag := tag

let span name f =
  if not !enabled then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !open_stack with p :: _ -> p | [] -> -1 in
    open_stack := id :: !open_stack;
    let req = !current_req and tag = !current_tag in
    let t0 = now () in
    let finish () =
      let t1 = now () in
      open_stack := List.tl !open_stack;
      buf := { id; name; req; tag; parent; t0; t1 } :: !buf
    in
    match f () with
    | v ->
      finish ();
      v
    | exception e ->
      finish ();
      raise e
  end

let spans () = List.rev !buf
let duration s = s.t1 -. s.t0

let layer_of name =
  match String.index_opt name '.' with Some i -> String.sub name 0 i | None -> name

(* self time: the span minus the time its direct children cover
   (children of one parent never overlap in a single-threaded replay) *)
let self_times spans =
  let child = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child s.parent
          (duration s +. Option.value ~default:0. (Hashtbl.find_opt child s.parent)))
    spans;
  List.map (fun s -> (s, duration s -. Option.value ~default:0. (Hashtbl.find_opt child s.id))) spans

(* share of [lo, hi] covered by the union of the top-level spans *)
let coverage spans ~lo ~hi =
  let top = List.filter (fun s -> s.parent < 0) spans in
  let sorted = List.sort (fun a b -> Float.compare a.t0 b.t0) top in
  let covered, _ =
    List.fold_left
      (fun (acc, reach) s ->
        let a = Float.max s.t0 reach and b = Float.min s.t1 hi in
        if b > a then (acc +. (b -. a), Float.max reach s.t1) else (acc, Float.max reach s.t1))
      (0., lo) sorted
  in
  if hi > lo then covered /. (hi -. lo) else 0.

let write_chrome path spans =
  let origin = match spans with s :: _ -> s.t0 | [] -> 0. in
  Out_channel.with_open_bin path (fun oc ->
      output_string oc "[\n";
      List.iteri
        (fun i s ->
          if i > 0 then output_string oc ",\n";
          Printf.fprintf oc
            "{\"name\": %S, \"cat\": %S, \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": %.3f, \
             \"dur\": %.3f, \"args\": {\"id\": %d, \"parent\": %d, \"req\": %d, \"tag\": %S}}"
            s.name (layer_of s.name)
            ((s.t0 -. origin) *. 1e6)
            (duration s *. 1e6) s.id s.parent s.req s.tag)
        spans;
      output_string oc "\n]\n")
