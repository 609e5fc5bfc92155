(* The traced replay: the workload's seeded inputs, replayed in this
   process through the layers' public functions, one span per call.

   eval-oneshot runs every pool input [reps] times through the steps
   [magic eval --strategy auto] takes: parse, preflight, EDB load, cost
   based choice, rewrite, plan compile, fixpoint, answer projection.

   serve-* replays the warm-up and a fixed prefix of the timed streams
   twice: once through the server layer (decode, Registry.query or
   Registry.transact, encode), and once one layer down, through the
   Incr.Session (and Persist.Store with a database) calls the registry
   makes inside, so the maintenance and journaling costs of the same
   operations get spans of their own.

   Each replay runs twice with spans off and twice with spans on; the
   ratio of the faster wall time of each kind is the tracing
   overhead. *)

open Datalog
module C = Magic_core

let max_facts = 5_000_000 (* the CLI's default budget *)

type metric = { name : string; value : float; unit_ : string }

let metrics : metric list ref = ref []
let emit name unit_ value = metrics := { name; value; unit_ } :: !metrics
let notes : string list ref = ref []
let note fmt = Printf.ksprintf (fun s -> notes := s :: !notes) fmt

let durations name spans =
  List.filter_map (fun (s : Trace.span) -> if s.name = name then Some (Trace.duration s) else None) spans
  |> Array.of_list

let durations_tag name tag spans =
  List.filter_map
    (fun (s : Trace.span) ->
      if s.name = name && s.tag = tag then Some (Trace.duration s) else None)
    spans
  |> Array.of_list

(* a percentile of [xs] in ms (scale 1e3) or us (1e6); an empty sample
   means the replay made no such call: 0.  Too few samples to support
   the percentile: -1, with a note. *)
let emit_pct name unit_ scale p xs =
  if Array.length xs = 0 then emit name unit_ 0.
  else
    match Stat.percentile p xs with
    | Ok r -> emit name unit_ (r.Stat.value *. scale)
    | Error msg ->
      note "%s: %s" name msg;
      emit name unit_ (-1.)

let emit_mean name unit_ scale xs = emit name unit_ (Stat.mean xs *. scale)

(* ------------------------------------------------------------------ *)
(* eval-oneshot                                                        *)
(* ------------------------------------------------------------------ *)

type eval_step = {
  family : string;
  stats : Engine.Stats.t;
  answers : int;
  est_facts : float;
  rules_out : int;
  magic_rules : int;
  gc : Engine.Stats.gc_counters;
}

let strata_rules program = Engine.Eval.Internal.strata program

(* what the CLI does before it evaluates or serves: parse, preflight,
   split the facts into the EDB *)
let load_program text =
  let program, query, srcmap =
    Trace.span "datalog.parse" (fun () ->
        match Parser.parse_program_spanned text with
        | Ok r -> r
        | Error e -> failwith e.Parser.message)
  in
  let errors = Trace.span "analysis.preflight" (fun () -> Analysis.preflight ~srcmap ?query program) in
  if errors <> [] then failwith "preflight rejected a generated input";
  Trace.span "engine.load" (fun () ->
      let program, facts = Parser.split_facts program in
      (program, Option.get query, Engine.Database.of_facts facts))

let eval_one (text : string) family =
  let program, query, edb = load_program text in
  let choice = Trace.span "analysis.choose" (fun () -> Analysis.choose_strategy ~db:edb program query) in
  let winner = choice.Analysis.Pass_cost.winner in
  let run_plan rules =
    Trace.span "engine.plan" (fun () ->
        List.iter (fun st -> ignore (Engine.Plan.compile_stratum st)) (strata_rules rules))
  in
  let gc0 = Engine.Stats.gc_now () in
  let stats, answers, rules_out, magic_rules, gc =
    match winner.Analysis.Pass_cost.method_ with
    | C.Rewrite.Rewritten_bottom_up (rw, options) ->
      let rewritten = Trace.span "core.rewrite" (fun () -> C.Rewrite.rewrite ~options rw program query) in
      run_plan rewritten.C.Rewritten.program;
      let gc0 = Engine.Stats.gc_now () in
      let out = Trace.span "engine.eval" (fun () -> C.Rewritten.run ~max_facts rewritten ~edb) in
      let gc = Engine.Stats.gc_delta ~before:gc0 ~after:(Engine.Stats.gc_now ()) in
      let answers = Trace.span "engine.answers" (fun () -> C.Rewritten.answers rewritten out) in
      let magic =
        List.length
          (List.filter
             (fun (m : C.Rewritten.rule_meta) ->
               match m.C.Rewritten.kind with C.Rewritten.Magic_def _ -> true | _ -> false)
             rewritten.C.Rewritten.meta)
      in
      (out.Engine.Eval.stats, List.length answers, Program.size rewritten.C.Rewritten.program, magic, gc)
    | C.Rewrite.Original `Seminaive ->
      run_plan program;
      let gc0 = Engine.Stats.gc_now () in
      let out = Trace.span "engine.eval" (fun () -> Engine.Eval.seminaive ~max_facts program ~edb) in
      let gc = Engine.Stats.gc_delta ~before:gc0 ~after:(Engine.Stats.gc_now ()) in
      let answers = Trace.span "engine.answers" (fun () -> Engine.Eval.answers out query) in
      (out.Engine.Eval.stats, List.length answers, Program.size program, 0, gc)
    | m ->
      let r = Trace.span "engine.eval" (fun () -> C.Rewrite.run ~max_facts m program query ~edb) in
      let gc = Engine.Stats.gc_delta ~before:gc0 ~after:(Engine.Stats.gc_now ()) in
      (r.C.Rewrite.stats, List.length r.C.Rewrite.answers, Program.size program, 0, gc)
  in
  {
    family; stats; answers; est_facts = winner.Analysis.Pass_cost.est_facts; rules_out; magic_rules; gc;
  }

let eval_reps = 5

let eval_pass ~seed =
  let pool = Gen.eval_pool ~seed in
  let find f i = List.find (fun (e : Gen.eval_input) -> e.Gen.family = f && e.Gen.index = i) pool in
  let order =
    List.concat
      (List.init eval_reps (fun _ ->
           List.concat (List.init Gen.pool (fun i -> List.map (fun f -> find f i) Gen.families))))
  in
  let inputs = List.map (fun (e : Gen.eval_input) -> (e.Gen.family, Gen.render_eval e)) order in
  let t0 = Trace.now () in
  let steps =
    List.mapi
      (fun req (family, text) ->
        Trace.request ~tag:family req;
        eval_one text family)
      inputs
  in
  (steps, t0, Trace.now ())

let eval_metrics steps spans =
  let ms = 1e3 in
  emit_pct "datalog.parse_ms" "ms" ms 0.5 (durations "datalog.parse" spans);
  emit_pct "analysis.preflight_ms" "ms" ms 0.5 (durations "analysis.preflight" spans);
  emit_pct "analysis.choose_ms" "ms" ms 0.5 (durations "analysis.choose" spans);
  emit_pct "core.rewrite_ms" "ms" ms 0.5 (durations "core.rewrite" spans);
  List.iter
    (fun f ->
      let mine = Array.of_list (List.filter (fun s -> s.family = f) steps) in
      let avg g = Stat.mean (Array.map g mine) in
      let facts s = float_of_int s.stats.Engine.Stats.facts in
      emit ("analysis.est_facts_error." ^ f) "ratio"
        (avg (fun s -> Float.abs (Float.log (Float.max 1. s.est_facts /. Float.max 1. (facts s)))));
      emit ("core.rules_out." ^ f) "count" (avg (fun s -> float_of_int s.rules_out));
      emit ("core.magic_rules." ^ f) "count" (avg (fun s -> float_of_int s.magic_rules));
      emit_pct ("engine.plan_ms." ^ f) "ms" ms 0.5 (durations_tag "engine.plan" f spans);
      emit_pct ("engine.eval_ms." ^ f) "ms" ms 0.5 (durations_tag "engine.eval" f spans);
      emit_pct ("engine.answers_ms." ^ f) "ms" ms 0.5 (durations_tag "engine.answers" f spans);
      emit ("engine.rounds." ^ f) "count" (avg (fun s -> float_of_int s.stats.Engine.Stats.iterations));
      emit ("engine.firings." ^ f) "count" (avg (fun s -> float_of_int s.stats.Engine.Stats.firings));
      emit ("engine.facts." ^ f) "count" (avg facts);
      emit ("engine.probes." ^ f) "count" (avg (fun s -> float_of_int s.stats.Engine.Stats.probes));
      emit ("engine.facts_per_answer." ^ f) "ratio"
        (avg (fun s -> facts s /. float_of_int (max 1 s.answers)));
      emit ("engine.minor_mwords." ^ f) "Mwords"
        (avg (fun s -> s.gc.Engine.Stats.minor_words /. 1e6));
      emit ("engine.major_collections." ^ f) "count"
        (avg (fun s -> float_of_int s.gc.Engine.Stats.major_collections)))
    Gen.families

(* ------------------------------------------------------------------ *)
(* serve-*                                                             *)
(* ------------------------------------------------------------------ *)

(* timed requests replayed per connection, after the warm-up: enough
   for >= 1000 seed installs on serve-read and >= 1000 transactions on
   serve-mixed-durable, so their p99 stands on ten samples *)
let serve_timed = function "serve-read" -> 4000 | _ -> 2600

type serve_op = { req : int; timed : bool; rq : Gen.request; line : string }

let serve_ops ~workload ~seed =
  let shape, base, streams = Gen.serve_streams ~workload ~seed in
  let n = shape.Gen.warm_reads + serve_timed workload in
  let ops =
    List.concat
      (List.init n (fun i ->
           List.init 2 (fun c ->
               let rq = streams.(c).(i) in
               { req = (2 * i) + c; timed = i >= shape.Gen.warm_reads; rq; line = Gen.atom_request rq })))
  in
  (base, ops)

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

type reply = { bytes : int; is_read : bool }

(* the server layer, as the daemon drives it per request line *)
let registry_pass ~text ~db ops =
  Trace.request (-1);
  let program, query, edb = load_program text in
  let reg =
    Trace.span "server.create" (fun () ->
        Server.Registry.create ~strategy:Incr.Session.GMS ~max_facts ?db program query ~edb)
  in
  List.map
    (fun op ->
      Trace.request op.req;
      let resp =
        match Trace.span "server.decode" (fun () -> Server.Protocol.decode_request op.line) with
        | Error r -> r
        | Ok (Server.Protocol.Query a) -> Trace.span "server.query" (fun () -> Server.Registry.query reg a)
        | Ok (Server.Protocol.Txn ops) ->
          Trace.span "server.transact" (fun () -> Server.Registry.transact reg ops)
        | Ok _ -> failwith "unexpected request in a replay stream"
      in
      (match resp with
      | Server.Protocol.Error { message; _ } -> failwith ("replayed request failed: " ^ message)
      | _ -> ());
      let out = Trace.span "server.encode" (fun () -> Server.Protocol.encode_response resp) in
      { bytes = String.length out; is_read = (match op.rq with Gen.Read _ -> true | _ -> false) })
    ops

type maint = {
  mutable overdeleted : int;
  mutable rederived : int;
  mutable delta_firings : int;
  mutable txns : int;
  mutable wal_bytes : int;
  mutable journaled : int;
  mutable checkpoints : int;
  mutable reopen_replayed : int;
  mutable snapshot_bytes : int;
}

let file_size path = try (Unix.stat path).Unix.st_size with Unix.Unix_error _ -> 0

(* one layer down: the session (and store) calls the registry makes
   under its write lock, for the same operations in the same order *)
let session_pass ~text ~db ops =
  Trace.request (-1);
  let program, query, edb = load_program text in
  let m =
    {
      overdeleted = 0; rederived = 0; delta_firings = 0; txns = 0; wal_bytes = 0; journaled = 0;
      checkpoints = 0; reopen_replayed = 0; snapshot_bytes = 0;
    }
  in
  let store, session =
    match db with
    | None ->
      let s =
        Trace.span "incr.create" (fun () ->
            Incr.Session.create ~strategy:Incr.Session.GMS ~max_facts program query ~edb)
      in
      (None, s)
    | Some dir ->
      (* checkpoints are taken here, at the registry's default cadence,
         so that they get spans of their own *)
      let st =
        Trace.span "persist.create" (fun () ->
            Persist.Store.open_or_create ~strategy:Incr.Session.GMS ~max_facts ~checkpoint_every:0 ~dir
              program query ~edb)
      in
      (Some st, Persist.Store.session st)
  in
  let journal f =
    Option.iter
      (fun st ->
        Trace.span "persist.journal" (fun () -> f st);
        m.journaled <- m.journaled + 1;
        if m.journaled mod 64 = 0 then begin
          m.wal_bytes <- m.wal_bytes + file_size (Persist.Store.wal_path (Option.get db));
          Trace.span "persist.checkpoint" (fun () -> Persist.Store.checkpoint st);
          m.checkpoints <- m.checkpoints + 1
        end)
      store
  in
  let installed = Hashtbl.create 4096 in
  List.iter
    (fun op ->
      Trace.request op.req;
      match op.rq with
      | Gen.Read k ->
        if not (Hashtbl.mem installed k) then begin
          Hashtbl.replace installed k ();
          let q = Workload.Programs.tc_query (Gen.key k) in
          let _, _, summary =
            Trace.span "incr.install" (fun () -> Incr.Session.query_delta ~max_facts session q)
          in
          if summary <> [] then journal (fun st -> Persist.Store.journal_install st q)
        end
      | Gen.Insert a | Gen.Delete a ->
        let ops = [ (match op.rq with Gen.Insert _ -> Incr.Maintain.Insert a | _ -> Incr.Maintain.Delete a) ] in
        let stats, _ =
          Trace.span "incr.update" (fun () -> Incr.Session.update_delta ~max_facts session ops)
        in
        m.txns <- m.txns + 1;
        m.overdeleted <- m.overdeleted + stats.Engine.Stats.overdeleted;
        m.rederived <- m.rederived + stats.Engine.Stats.rederived;
        m.delta_firings <- m.delta_firings + stats.Engine.Stats.delta_firings;
        journal (fun st -> Persist.Store.journal_txn st ops))
    ops;
  (match (store, db) with
  | Some _, Some dir ->
    m.wal_bytes <- m.wal_bytes + file_size (Persist.Store.wal_path dir);
    (* the crash: the handle is dropped without a final checkpoint, and
       the directory is opened again as a restarted daemon would *)
    let st =
      Trace.span "persist.reopen" (fun () ->
          Persist.Store.open_or_create ~strategy:Incr.Session.GMS ~max_facts ~dir program query ~edb)
    in
    m.reopen_replayed <- Persist.Store.replayed st;
    m.snapshot_bytes <- file_size (Persist.Store.snapshot_path dir)
  | _ -> ());
  m

let serve_pass ~workload ~seed ~workdir =
  let base, ops = serve_ops ~workload ~seed in
  let text = Gen.render ~program:Gen.serve_program ~facts:base ~query:Gen.serve_query in
  let durable = workload = "serve-mixed-durable" in
  let fresh name =
    let d = Filename.concat workdir name in
    rm_rf d;
    if durable then Some d else None
  in
  let t0 = Trace.now () in
  let replies = registry_pass ~text ~db:(fresh "replay-registry-db") ops in
  let m = session_pass ~text ~db:(fresh "replay-session-db") ops in
  let t1 = Trace.now () in
  ignore (fresh "replay-registry-db");
  ignore (fresh "replay-session-db");
  ((ops, replies, m), t0, t1)

let serve_metrics (ops, replies, m) spans =
  let ms = 1e3 and us = 1e6 in
  let timed_reqs = Hashtbl.create 4096 in
  List.iter (fun op -> if op.timed then Hashtbl.replace timed_reqs op.req ()) ops;
  let timed name =
    List.filter_map
      (fun (s : Trace.span) ->
        if s.name = name && Hashtbl.mem timed_reqs s.req then Some (Trace.duration s) else None)
      spans
    |> Array.of_list
  in
  emit_mean "datalog.parse_ms" "ms" ms (durations "datalog.parse" spans);
  emit_mean "analysis.preflight_ms" "ms" ms (durations "analysis.preflight" spans);
  emit_pct "incr.install_ms_p50" "ms" ms 0.5 (durations "incr.install" spans);
  emit_pct "incr.install_ms_p99" "ms" ms 0.99 (durations "incr.install" spans);
  emit_pct "incr.update_ms_p50" "ms" ms 0.5 (durations "incr.update" spans);
  emit_pct "incr.update_ms_p99" "ms" ms 0.99 (durations "incr.update" spans);
  let per_txn x = if m.txns = 0 then 0. else float_of_int x /. float_of_int m.txns in
  emit "incr.overdeleted" "count/txn" (per_txn m.overdeleted);
  emit "incr.rederived" "count/txn" (per_txn m.rederived);
  emit "incr.rederive_ratio" "ratio"
    (if m.overdeleted = 0 then 0. else float_of_int m.rederived /. float_of_int m.overdeleted);
  emit "incr.delta_firings" "count/txn" (per_txn m.delta_firings);
  emit_pct "persist.journal_ms_p50" "ms" ms 0.5 (durations "persist.journal" spans);
  emit_pct "persist.journal_ms_p99" "ms" ms 0.99 (durations "persist.journal" spans);
  emit_mean "persist.checkpoint_ms" "ms" ms (durations "persist.checkpoint" spans);
  emit "persist.checkpoints" "count" (float_of_int m.checkpoints);
  emit_mean "persist.reopen_ms" "ms" ms (durations "persist.reopen" spans);
  emit "persist.replayed" "count" (float_of_int m.reopen_replayed);
  emit "persist.snapshot_bytes" "bytes" (float_of_int m.snapshot_bytes);
  emit "persist.wal_bytes_per_op" "bytes"
    (if m.journaled = 0 then 0. else float_of_int m.wal_bytes /. float_of_int m.journaled);
  emit_pct "server.decode_us" "us" us 0.5 (timed "server.decode");
  emit_pct "server.encode_us" "us" us 0.5 (timed "server.encode");
  emit_pct "server.query_ms" "ms" ms 0.5 (timed "server.query");
  let read_bytes = List.filter_map (fun r -> if r.is_read then Some (float_of_int r.bytes) else None) replies in
  emit "server.answer_bytes_per_read" "bytes" (Stat.mean (Array.of_list read_bytes));
  let transact = timed "server.transact" in
  emit_pct "server.transact_ms" "ms" ms 0.5 transact;
  (* the registry's own share of a commit: its transact span minus the
     maintenance, journal and checkpoint spans of the same operation in
     the layer-down replay *)
  let inner = Hashtbl.create 1024 in
  List.iter
    (fun (s : Trace.span) ->
      match s.name with
      | "incr.update" | "persist.journal" | "persist.checkpoint" ->
        Hashtbl.replace inner s.req (Trace.duration s +. Option.value ~default:0. (Hashtbl.find_opt inner s.req))
      | _ -> ())
    spans;
  let self =
    List.filter_map
      (fun (s : Trace.span) ->
        if s.name = "server.transact" && Hashtbl.mem timed_reqs s.req then
          Some (Trace.duration s -. Option.value ~default:0. (Hashtbl.find_opt inner s.req))
        else None)
      spans
  in
  emit_pct "server.transact_self_ms" "ms" ms 0.5 (Array.of_list self)

(* ------------------------------------------------------------------ *)
(* Entry point                                                         *)
(* ------------------------------------------------------------------ *)

let layers = [ "datalog"; "analysis"; "core"; "engine"; "incr"; "persist"; "server" ]

(* every metric the other workload kinds report, as 0: on this workload
   the replay makes no such call *)
let fill_absent () =
  let have = List.map (fun m -> m.name) !metrics in
  let zero name unit_ = if not (List.mem name have) then emit name unit_ 0. in
  List.iter (fun (n, u) -> zero n u)
    [
      ("datalog.parse_ms", "ms"); ("analysis.preflight_ms", "ms"); ("analysis.choose_ms", "ms");
      ("core.rewrite_ms", "ms");
      ("incr.install_ms_p50", "ms"); ("incr.install_ms_p99", "ms"); ("incr.update_ms_p50", "ms");
      ("incr.update_ms_p99", "ms"); ("incr.overdeleted", "count/txn"); ("incr.rederived", "count/txn");
      ("incr.rederive_ratio", "ratio"); ("incr.delta_firings", "count/txn");
      ("persist.journal_ms_p50", "ms"); ("persist.journal_ms_p99", "ms"); ("persist.checkpoint_ms", "ms");
      ("persist.checkpoints", "count"); ("persist.reopen_ms", "ms"); ("persist.replayed", "count");
      ("persist.snapshot_bytes", "bytes"); ("persist.wal_bytes_per_op", "bytes");
      ("server.decode_us", "us"); ("server.encode_us", "us"); ("server.query_ms", "ms");
      ("server.answer_bytes_per_read", "bytes"); ("server.transact_ms", "ms");
      ("server.transact_self_ms", "ms");
    ];
  List.iter
    (fun f ->
      List.iter (fun (n, u) -> zero (n ^ "." ^ f) u)
        [
          ("analysis.est_facts_error", "ratio"); ("core.rules_out", "count"); ("core.magic_rules", "count");
          ("engine.plan_ms", "ms"); ("engine.eval_ms", "ms"); ("engine.answers_ms", "ms");
          ("engine.rounds", "count"); ("engine.firings", "count"); ("engine.facts", "count");
          ("engine.probes", "count"); ("engine.facts_per_answer", "ratio"); ("engine.minor_mwords", "Mwords");
          ("engine.major_collections", "count");
        ])
    Gen.families

let run ~workload ~seed ~workdir ~span_file =
  metrics := [];
  notes := [];
  let pass () =
    if workload = "eval-oneshot" then
      let steps, t0, t1 = eval_pass ~seed in
      (`Eval steps, t0, t1)
    else
      let r, t0, t1 = serve_pass ~workload ~seed ~workdir in
      (`Serve r, t0, t1)
  in
  (* off, on, off, on: the first pass also pays for cold caches, so the
     overhead compares the faster pass of each kind; spans and metrics
     come from the last pass *)
  let timed_pass ~on =
    Gc.compact ();
    Trace.reset ~on;
    let result, t0, t1 = pass () in
    (result, t0, t1, Trace.spans ())
  in
  let _, a0, a1, _ = timed_pass ~on:false in
  let _, b0, b1, _ = timed_pass ~on:true in
  let _, c0, c1, _ = timed_pass ~on:false in
  let result, on0, on1, spans = timed_pass ~on:true in
  Trace.reset ~on:false;
  Trace.write_chrome span_file spans;
  (match result with `Eval steps -> eval_metrics steps spans | `Serve r -> serve_metrics r spans);
  let selfs = Trace.self_times spans in
  List.iter
    (fun layer ->
      let total =
        List.fold_left
          (fun acc ((s : Trace.span), self) -> if Trace.layer_of s.name = layer then acc +. self else acc)
          0. selfs
      in
      emit (layer ^ ".self_ms") "ms" (total *. 1e3))
    layers;
  let wall_off = Float.min (a1 -. a0) (c1 -. c0) and wall_on = Float.min (b1 -. b0) (on1 -. on0) in
  emit "trace.overhead" "%" (100. *. ((wall_on /. wall_off) -. 1.));
  emit "trace.coverage" "%" (100. *. Trace.coverage spans ~lo:on0 ~hi:on1);
  emit "trace.spans" "count" (float_of_int (List.length spans));
  emit "trace.replay_s" "s" wall_on;
  fill_absent ();
  let body =
    List.rev_map
      (fun m -> Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" m.name m.value m.unit_)
      !metrics
  in
  Printf.sprintf "{\"metrics\": {%s}, \"notes\": [%s]}" (String.concat ", " body)
    (String.concat ", " (List.rev_map (Printf.sprintf "%S") !notes))
