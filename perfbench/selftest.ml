(* The benchmark's own tests: seeded inputs are reproducible, the
   checks catch a planted wrong answer and a planted lost write, and the
   percentile helper refuses a percentile with too few samples beyond
   it.  [run.py --selftest] runs these and its own Python tests. *)

let failures = ref 0

let expect name ok =
  Printf.printf "%s %s\n%!" (if ok then "ok  " else "FAIL") name;
  if not ok then incr failures

let files_of dir =
  Sys.readdir dir |> Array.to_list |> List.sort String.compare
  |> List.map (fun f -> (f, In_channel.with_open_bin (Filename.concat dir f) In_channel.input_all))

let same_seed_same_inputs tmp =
  List.iter
    (fun workload ->
      let d name = Filename.concat tmp (Printf.sprintf "%s-%s" workload name) in
      Replay.rm_rf (d "a");
      Replay.rm_rf (d "b");
      Replay.rm_rf (d "c");
      Gen.write_inputs ~workload ~seed:7 (d "a");
      Gen.write_inputs ~workload ~seed:7 (d "b");
      Gen.write_inputs ~workload ~seed:8 (d "c");
      expect (workload ^ ": same seed gives byte-identical inputs") (files_of (d "a") = files_of (d "b"));
      expect (workload ^ ": another seed gives other inputs") (files_of (d "a") <> files_of (d "c"));
      List.iter (fun n -> Replay.rm_rf (d n)) [ "a"; "b"; "c" ])
    [ "eval-oneshot"; "serve-read"; "serve-mixed-durable" ]

let planted_eval_answer () =
  let seed = 3 in
  let e = List.find (fun (e : Gen.eval_input) -> e.Gen.family = "hub") (Gen.eval_pool ~seed) in
  let file = Gen.eval_file_name e in
  let answers = Check.eval_reference e in
  let output rows = String.concat "\n" rows ^ "\n% method=auto:gms status=ok iterations=1\n" in
  let good = Check.check_eval ~seed [ (file, output answers, 3) ] in
  expect "eval: reference answers pass" (good.Check.wrong = 0 && good.Check.checked = 3);
  let planted =
    match answers with
    | first :: rest -> (String.sub first 0 (String.length first - 1) ^ "9)") :: rest
    | [] -> [ "(x)" ]
  in
  let bad = Check.check_eval ~seed [ (file, output planted, 2) ] in
  expect "eval: a planted wrong answer fails the check" (bad.Check.wrong = 2);
  let dropped = Check.check_eval ~seed [ (file, output (List.tl answers), 1) ] in
  expect "eval: a dropped answer fails the check" (dropped.Check.wrong = 1)

let serve_fixture () =
  let _, facts, streams = Gen.serve_streams ~workload:"serve-mixed-durable" ~seed:5 in
  (facts, streams, Check.graph_of facts)

(* the first transaction of connection 0, and its stream position *)
let first_txn streams =
  let s = streams.(0) in
  let rec go i = match s.(i) with Gen.Read _ -> go (i + 1) | _ -> i in
  go 0

let planted_serve_answer () =
  let facts, streams, base = serve_fixture () in
  let read_idx = 0 in
  let k = match streams.(0).(read_idx) with Gen.Read k -> k | _ -> assert false in
  let rows = Check.reach_rows base (Check.key_name k) in
  let record rows = Check.Read_reply { conn = 0; idx = read_idx; epoch = 1; rows } in
  let good = Check.check_serve ~base:facts ~streams [ record rows ] in
  expect "serve: reference answers pass" (good.Check.wrong = 0 && good.Check.checked = 1);
  let bad = Check.check_serve ~base:facts ~streams [ record (List.tl rows) ] in
  expect "serve: a planted wrong answer fails the check" (bad.Check.wrong = 1)

let planted_lost_write () =
  let facts, streams, base = serve_fixture () in
  let i = first_txn streams in
  let a = match streams.(0).(i) with Gen.Insert a -> a | _ -> assert false in
  let src, _ = Check.edge_ends a in
  let key = Scanf.sscanf src "k_%d" Fun.id in
  let before = Check.reach_rows base src in
  Check.apply base streams.(0).(i);
  let after = Check.reach_rows base src in
  let records rows =
    [ Check.Txn_reply { conn = 0; idx = i; epoch = 1 }; Check.After_restart { key; rows } ]
  in
  let kept = Check.check_serve ~base:facts ~streams (records after) in
  expect "serve: an acknowledged write seen after restart passes" (kept.Check.lost = 0);
  let lost = Check.check_serve ~base:facts ~streams (records before) in
  expect "serve: a planted lost write fails the check" (lost.Check.lost = 1)

let percentile_helper () =
  let xs n = Array.init n float_of_int in
  let refused p n = Result.is_error (Stat.percentile p (xs n)) in
  let samples p n = match Stat.percentile p (xs n) with Ok r -> r.Stat.samples | Error _ -> -1 in
  expect "percentile: p99 of 999 samples is refused" (refused 0.99 999);
  expect "percentile: p99 of 1000 samples reports its sample count" (samples 0.99 1000 = 1000);
  expect "percentile: p50 of 19 samples is refused" (refused 0.5 19);
  expect "percentile: p50 of 20 samples is allowed" (samples 0.5 20 = 20);
  expect "percentile: p50 of 1..21 is 11"
    (match Stat.percentile 0.5 (Array.init 21 (fun i -> float_of_int (i + 1))) with
    | Ok r -> r.Stat.value = 11.
    | Error _ -> false)

let run tmp =
  Gen.mkdir_p tmp;
  same_seed_same_inputs tmp;
  planted_eval_answer ();
  planted_serve_answer ();
  planted_lost_write ();
  percentile_helper ();
  if !failures > 0 then begin
    Printf.printf "%d selftest failure(s)\n" !failures;
    exit 1
  end
