(* Seeded input generation.  Every input the benchmark feeds the program
   is a pure function of (workload, seed): the [.dl] files of the
   one-shot eval pool and the serve program plus its per-connection
   request streams.  The checker and the traced replay regenerate the
   same values in memory instead of parsing the files back, so a parser
   defect cannot hide in the reference. *)

open Datalog
module G = Workload.Generate
module P = Workload.Programs

let sym s = Term.Sym s
let node prefix i = G.node prefix i
let edge a b = Atom.make "edge" [ a; b ]

(* a private generator per (seed, purpose), so adding one family never
   shifts the draws of another; the pair is scrambled (splitmix64's
   finalizer) because the LCG's first draws from nearby states are
   nearly equal *)
let rng seed salt =
  let open Int64 in
  let z = ref (add (mul (of_int seed) 0x9E3779B97F4A7C15L) (of_int salt)) in
  z := mul (logxor !z (shift_right_logical !z 30)) 0xBF58476D1CE4E5B9L;
  z := mul (logxor !z (shift_right_logical !z 27)) 0x94D049BB133111EBL;
  z := logxor !z (shift_right_logical !z 31);
  G.rng (to_int (shift_right_logical !z 2))

let draw r bound = G.next r ~bound

(* ------------------------------------------------------------------ *)
(* eval-oneshot: five query families, [pool] files each                *)
(* ------------------------------------------------------------------ *)

type eval_input = {
  family : string;
  index : int;
  program : Program.t;  (* rules only *)
  facts : Atom.t list;
  query : Atom.t;
}

let families = [ "ancestor"; "sg"; "tc_dense"; "hub"; "reverse" ]
let pool = 4

(* Sizes are chosen so each family costs roughly the same per query on
   a 2-core x86 box (30-90 ms including process start).  The seed
   draws the bound constants (and the order of the reversed list) but
   keeps every node name and size, so no seed changes the amount of
   work a family does. *)
let eval_input ~seed family index =
  let fi = List.length (List.filter (fun f -> f < family) families) in
  let r = rng seed (1000 + (100 * index) + fi) in
  match family with
  | "ancestor" ->
    (* long chain, query mid-chain: ~700 rounds with one-tuple deltas *)
    let len = 700 in
    let depth = 345 + draw r 11 in
    {
      family; index;
      program = P.ancestor;
      facts = G.chain ~pred:"p" ~prefix:"n" len;
      query = P.ancestor_query (node "n" (len - depth));
    }
  | "sg" ->
    (* nonlinear same generation over a complete 3-ary tree: every node
       of a level is symmetric, so the drawn constant fixes no cost *)
    let branching = 3 and depth = 5 in
    let lo = 13 and width = 27 (* level 3: nodes 13..39 *) in
    {
      family; index;
      program = P.nonlinear_same_generation;
      facts = G.bushy_same_generation ~prefix:"bsg" ~branching ~depth ();
      query = P.same_generation_query (node "bsg" (lo + draw r width));
    }
  | "tc_dense" ->
    (* few rounds with thousands-wide deltas; the closure from any node
       is the whole strongly connected graph *)
    let nodes = 200 and degree = 6 in
    {
      family; index;
      program = P.transitive_closure;
      facts = G.dense_graph ~pred:"edge" ~nodes ~degree ~seed:11 ();
      query = P.tc_query (node "n" (draw r nodes));
    }
  | "hub" ->
    (* three spokes deep into a chain: the full sip passes their targets
       into tc, the bound-only sip would close the whole chain *)
    let len = 1000 in
    let at = 745 + draw r 11 in
    let spokes = List.init 3 (fun i -> Atom.make "spoke" [ node "h" 0; node "n" (at + i) ]) in
    {
      family; index;
      program = P.hub;
      facts = G.chain ~pred:"edge" ~prefix:"n" len @ spokes;
      query = P.hub_query (node "h" 0);
    }
  | "reverse" ->
    (* function symbols: the counting rewrites are eligible *)
    let len = 35 in
    let perm = Array.init len Fun.id in
    for i = len - 1 downto 1 do
      let j = draw r (i + 1) in
      let t = perm.(i) in
      perm.(i) <- perm.(j);
      perm.(j) <- t
    done;
    let l = Term.list (Array.to_list (Array.map (fun v -> Term.Int v) perm)) in
    { family; index; program = P.list_reverse; facts = []; query = P.reverse_query l }
  | f -> invalid_arg ("Gen.eval_input: unknown family " ^ f)

let eval_pool ~seed =
  List.concat_map (fun f -> List.init pool (fun i -> eval_input ~seed f i)) families

(* the set-up probe: a tiny query, so its time is process start, load
   and analysis rather than evaluation *)
let warmup_input ~seed =
  {
    family = "warmup"; index = 0;
    program = P.ancestor;
    facts = G.chain ~pred:"p" ~prefix:"n" 20;
    query = P.ancestor_query (node "n" (draw (rng seed 7) 10));
  }

let eval_file_name (e : eval_input) = Printf.sprintf "%s_%d.dl" e.family e.index

let render ~program ~facts ~query =
  let b = Buffer.create 65536 in
  List.iter
    (fun r ->
      Buffer.add_string b (Rule.to_string r);
      Buffer.add_char b '\n')
    (Program.rules program);
  List.iter
    (fun a ->
      Buffer.add_string b (Atom.to_string a);
      Buffer.add_string b ".\n")
    facts;
  Buffer.add_string b ("?- " ^ Atom.to_string query ^ ".\n");
  Buffer.contents b

let render_eval (e : eval_input) = render ~program:e.program ~facts:e.facts ~query:e.query

(* ------------------------------------------------------------------ *)
(* serve-*: transitive closure over keys fanning into chains           *)
(* ------------------------------------------------------------------ *)

(* The graph: [chains] disjoint chains c_j_0 -> ... -> c_j_len, and
   [keys] source nodes k_i, each with edges to the heads of [fanout]
   distinct chains drawn from the seed.  A key is reachable from no
   other node, so the first read of a key installs its magic seed under
   the write lock, and every key answers exactly fanout * (len + 1)
   rows.  The file stays under 20k facts: loading a program (preflight
   included) grows quadratically with its fact count. *)
type serve_shape = {
  keys : int;
  chains : int;
  chain_len : int;
  fanout : int;
  warm_reads : int;  (* per connection *)
  max_ops : int;  (* timed requests generated per connection *)
  cold : float;  (* serve-read: share of reads that name a new key *)
  txn_share : float;  (* serve-mixed-durable: share of requests that are txns *)
}

let serve_read_shape =
  {
    keys = 8000; chains = 100; chain_len = 14; fanout = 2;
    warm_reads = 1500; max_ops = 60_000; cold = 0.15; txn_share = 0.;
  }

let serve_mixed_shape =
  {
    keys = 300; chains = 100; chain_len = 14; fanout = 2;
    warm_reads = 600; max_ops = 60_000; cold = 0.; txn_share = 0.2;
  }

let shape_of = function
  | "serve-read" -> serve_read_shape
  | "serve-mixed-durable" -> serve_mixed_shape
  | w -> invalid_arg ("Gen.shape_of: not a serve workload: " ^ w)

let key i = node "k" i
let chain_node j i = sym (Printf.sprintf "c_%d_%d" j i)
let boot_key = sym "k_boot"

let serve_graph ~seed shape =
  let r = rng seed 31 in
  let chain_edges =
    List.concat
      (List.init shape.chains (fun j ->
           List.init shape.chain_len (fun i -> edge (chain_node j i) (chain_node j (i + 1)))))
  in
  let key_targets =
    Array.init shape.keys (fun _ ->
        let picked = Hashtbl.create 4 in
        let rec pick acc n =
          if n = 0 then Array.of_list (List.rev acc)
          else
            let j = draw r shape.chains in
            if Hashtbl.mem picked j then pick acc n
            else (
              Hashtbl.add picked j ();
              pick (j :: acc) (n - 1))
        in
        pick [] shape.fanout)
  in
  let key_edges =
    List.concat
      (List.init shape.keys (fun i ->
           Array.to_list (Array.map (fun j -> edge (key i) (chain_node j 0)) key_targets.(i))))
  in
  let boot = edge boot_key (chain_node 0 0) in
  (boot :: chain_edges) @ key_edges

let serve_program = P.transitive_closure
let serve_query = P.tc_query boot_key

type request =
  | Read of int  (* key index *)
  | Insert of Atom.t
  | Delete of Atom.t

(* Zipf(1) rank over [n] items by inverse CDF of the continuous
   harmonic density: rank 0 is the most popular *)
let zipf_rank r n =
  let u = float_of_int (draw r 1_000_000) /. 1_000_000. in
  let x = Float.pow (float_of_int (n + 1)) u in
  min (n - 1) (max 0 (int_of_float x - 1))

(* serve-read: one global key sequence dealt round-robin to the two
   connections.  Each read names a never-read key with probability
   [cold], else a Zipf rank over the keys read so far (ranked by first
   appearance).  Cold reads are the ones that install seeds, so their
   share stays [cold] whatever the throughput. *)
let read_streams ~seed shape =
  let r = rng seed 47 in
  let order = Array.init shape.keys Fun.id in
  for i = shape.keys - 1 downto 1 do
    let j = draw r (i + 1) in
    let t = order.(i) in
    order.(i) <- order.(j);
    order.(j) <- t
  done;
  let introduced = ref 0 in
  let next () =
    let fresh = !introduced = 0 || float_of_int (draw r 1_000_000) < shape.cold *. 1e6 in
    if fresh && !introduced < shape.keys then begin
      incr introduced;
      Read order.(!introduced - 1)
    end
    else Read order.(zipf_rank r !introduced)
  in
  let per = shape.warm_reads + shape.max_ops in
  let s0 = Array.make per (Read 0) and s1 = Array.make per (Read 0) in
  for i = 0 to per - 1 do
    s0.(i) <- next ();
    s1.(i) <- next ()
  done;
  [| s0; s1 |]

(* serve-mixed-durable: the warm-up reads every key once (so no timed
   read installs), then Zipf reads mixed with single-op transactions.
   A transaction inserts an edge from a key to a fresh leaf node, or
   deletes the oldest edge the same connection inserted: the base graph
   stays steady, inserts repair the cached answers of their key in
   place, deletes evict them.  Connection c only touches keys of its
   own parity and leaves named after itself, so the two connections
   never race on one edge. *)
let mixed_streams ~seed shape =
  Array.init 2 (fun c ->
      let r = rng seed (53 + c) in
      let rank_to_key = Array.init shape.keys Fun.id in
      for i = shape.keys - 1 downto 1 do
        let j = draw r (i + 1) in
        let t = rank_to_key.(i) in
        rank_to_key.(i) <- rank_to_key.(j);
        rank_to_key.(j) <- t
      done;
      let warm =
        Array.init shape.warm_reads (fun i ->
            if i < shape.keys / 2 then Read ((2 * i) + c) else Read rank_to_key.(zipf_rank r shape.keys))
      in
      let pending = Queue.create () in
      let leaves = ref 0 in
      let timed =
        Array.init shape.max_ops (fun _ ->
            if float_of_int (draw r 1_000_000) < shape.txn_share *. 1e6 then begin
              if not (Queue.is_empty pending) then Delete (Queue.pop pending)
              else begin
                let k = (2 * draw r (shape.keys / 2)) + c in
                incr leaves;
                let a = edge (key k) (sym (Printf.sprintf "x_%d_%d" c !leaves)) in
                Queue.push a pending;
                Insert a
              end
            end
            else Read rank_to_key.(zipf_rank r shape.keys))
      in
      Array.append warm timed)

let serve_streams ~workload ~seed =
  let shape = shape_of workload in
  let base = serve_graph ~seed shape in
  let streams =
    if workload = "serve-read" then read_streams ~seed shape else mixed_streams ~seed shape
  in
  (shape, base, streams)

let atom_request = function
  | Read k -> Printf.sprintf "{\"op\": \"query\", \"atom\": \"tc(k_%d, Ans)\"}" k
  | Insert a -> Printf.sprintf "{\"op\": \"txn\", \"ops\": [{\"insert\": \"%s\"}]}" (Atom.to_string a)
  | Delete a -> Printf.sprintf "{\"op\": \"txn\", \"ops\": [{\"delete\": \"%s\"}]}" (Atom.to_string a)

(* ------------------------------------------------------------------ *)
(* Writing the inputs                                                  *)
(* ------------------------------------------------------------------ *)

let write path s = Out_channel.with_open_bin path (fun oc -> output_string oc s)

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    Unix.mkdir d 0o755
  end

(* eval-oneshot: the pool files, the set-up probe, and [order.txt]
   naming the files in the order the closed loop runs them (family
   round-robin, so every family has the same share of the queries) *)
let write_eval ~seed dir =
  mkdir_p dir;
  let inputs = eval_pool ~seed in
  List.iter (fun e -> write (Filename.concat dir (eval_file_name e)) (render_eval e)) inputs;
  let w = warmup_input ~seed in
  write (Filename.concat dir "warmup.dl") (render_eval w);
  let order =
    List.concat
      (List.init pool (fun i ->
           List.map (fun f -> Printf.sprintf "%s_%d.dl\n" f i) families))
  in
  write (Filename.concat dir "order.txt") (String.concat "" order)

(* serve-*: [program.dl], and per connection [connC.req] holding one
   request line per operation, warm-up first; [meta.txt] says where the
   warm-up ends *)
let write_serve ~workload ~seed dir =
  mkdir_p dir;
  let shape, base, streams = serve_streams ~workload ~seed in
  write (Filename.concat dir "program.dl") (render ~program:serve_program ~facts:base ~query:serve_query);
  Array.iteri
    (fun c s ->
      let b = Buffer.create (Array.length s * 48) in
      Array.iter
        (fun rq ->
          Buffer.add_string b (atom_request rq);
          Buffer.add_char b '\n')
        s;
      write (Filename.concat dir (Printf.sprintf "conn%d.req" c)) (Buffer.contents b))
    streams;
  write (Filename.concat dir "meta.txt") (Printf.sprintf "warm %d\n" shape.warm_reads)

let write_inputs ~workload ~seed dir =
  match workload with
  | "eval-oneshot" -> write_eval ~seed dir
  | "serve-read" | "serve-mixed-durable" -> write_serve ~workload ~seed dir
  | w -> invalid_arg ("unknown workload " ^ w)
