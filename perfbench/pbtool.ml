(* The benchmark's in-process half; run.py drives it.

     pbtool gen WORKLOAD SEED DIR           write the seeded inputs
     pbtool check-eval SEED LIST            check recorded eval outputs
     pbtool check-serve WORKLOAD SEED FILE  check recorded serve replies
     pbtool replay WORKLOAD SEED DIR SPANS  traced replay: per-layer metrics
     pbtool selftest DIR                    the benchmark's own tests

   The check and replay commands print one JSON object on stdout. *)

let usage () =
  prerr_endline "usage: pbtool (gen|check-eval|check-serve|replay|selftest) ARGS...";
  exit 2

(* LIST: one line per distinct output, "FILE<TAB>COUNT<TAB>PATH" *)
let read_outputs list =
  In_channel.with_open_bin list In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (( <> ) "")
  |> List.map (fun line ->
         match String.split_on_char '\t' line with
         | [ file; count; path ] ->
           (file, In_channel.with_open_bin path In_channel.input_all, int_of_string count)
         | _ -> failwith ("malformed output list line: " ^ line))

let check_serve ~workload ~seed records =
  let _, base, streams = Gen.serve_streams ~workload ~seed in
  Check.check_serve ~base ~streams records

let () =
  match Array.to_list Sys.argv |> List.tl with
  | [ "gen"; workload; seed; dir ] -> Gen.write_inputs ~workload ~seed:(int_of_string seed) dir
  | [ "check-eval"; seed; list ] ->
    print_endline (Check.verdict_json (Check.check_eval ~seed:(int_of_string seed) (read_outputs list)))
  | [ "check-serve"; workload; seed; file ] ->
    print_endline
      (Check.verdict_json (check_serve ~workload ~seed:(int_of_string seed) (Check.parse_records file)))
  | [ "replay"; workload; seed; dir; spans ] ->
    print_endline (Replay.run ~workload ~seed:(int_of_string seed) ~workdir:dir ~span_file:spans)
  | [ "selftest"; dir ] -> Selftest.run dir
  | _ -> usage ()
