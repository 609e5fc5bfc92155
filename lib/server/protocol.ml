open Datalog
module J = Engine.Json_out

type request =
  | Query of Atom.t
  | Txn of Incr.Maintain.op list
  | Stats
  | Shutdown

type error_code =
  | Bad_json
  | Bad_request
  | Parse_error
  | Non_ground
  | Incompatible
  | Budget
  | Internal

type rows = { count : int; json : string }

let rows l =
  { count = List.length l; json = J.arr_inline (List.map (fun row -> J.arr_inline (List.map J.str row)) l) }

(* an answers array as string rows; [None] unless every row is an array
   of strings *)
let string_rows items =
  let all f l =
    let l' = List.filter_map f l in
    if List.compare_lengths l l' = 0 then Some l' else None
  in
  all (fun r -> Option.bind (Json.to_list r) (all (function Json.Str s -> Some s | _ -> None))) items

let rows_list r =
  match Option.bind (Result.to_option (Json.parse r.json)) Json.to_list with
  | Some items -> Option.get (string_rows items)
  | None -> invalid_arg "Protocol.rows_list: not a row array"

type response =
  | Answers of { epoch : int; cache_hit : bool; answers : rows; time_s : float }
  | Committed of { epoch : int; ops : int; time_s : float }
  | Stats_reply of (string * string) list
  | Shutdown_ack
  | Error of { code : error_code; message : string }

let code_string = function
  | Bad_json -> "bad-json"
  | Bad_request -> "bad-request"
  | Parse_error -> "parse-error"
  | Non_ground -> "non-ground"
  | Incompatible -> "incompatible-query"
  | Budget -> "budget-exhausted"
  | Internal -> "internal"

let code_of_string = function
  | "bad-json" -> Bad_json
  | "bad-request" -> Bad_request
  | "parse-error" -> Parse_error
  | "non-ground" -> Non_ground
  | "incompatible-query" -> Incompatible
  | "budget-exhausted" -> Budget
  | _ -> Internal

let err code fmt = Fmt.kstr (fun message -> Error { code; message }) fmt

let parse_atom_string s =
  match Parser.parse_atom s with
  | a -> Ok a
  | exception Parser.Error msg -> Result.Error (err Parse_error "%S: %s" s msg)

(* ---- decoding requests ---- *)

let decode_txn_op (v : Json.t) =
  let ground_atom build s =
    match parse_atom_string s with
    | Result.Error _ as e -> e
    | Ok a ->
      if Atom.is_ground a then Ok (build a)
      else
        Result.Error
          (err Non_ground "transaction op %S must be ground (no variables)" s)
  in
  match (Json.member "insert" v, Json.member "delete" v) with
  | Some (Json.Str s), None -> ground_atom (fun a -> Incr.Maintain.Insert a) s
  | None, Some (Json.Str s) -> ground_atom (fun a -> Incr.Maintain.Delete a) s
  | _ ->
    Result.Error
      (err Bad_request
         "each txn op must be {\"insert\": \"atom\"} or {\"delete\": \"atom\"}")

let decode_request line =
  match Json.parse line with
  | Result.Error { Json.message; offset } ->
    Result.Error (err Bad_json "column %d: %s" (offset + 1) message)
  | Ok v -> (
    match Option.bind (Json.member "op" v) Json.to_string with
    | None -> Result.Error (err Bad_request "missing string field \"op\"")
    | Some "stats" -> Ok Stats
    | Some "shutdown" -> Ok Shutdown
    | Some "query" -> (
      match Option.bind (Json.member "atom" v) Json.to_string with
      | None ->
        Result.Error (err Bad_request "query needs a string field \"atom\"")
      | Some s -> Result.map (fun a -> Query a) (parse_atom_string s))
    | Some "txn" -> (
      match Option.bind (Json.member "ops" v) Json.to_list with
      | None ->
        Result.Error (err Bad_request "txn needs an array field \"ops\"")
      | Some items ->
        let rec go acc = function
          | [] -> Ok (Txn (List.rev acc))
          | item :: rest -> (
            match decode_txn_op item with
            | Ok op -> go (op :: acc) rest
            | Result.Error _ as e -> e)
        in
        go [] items)
    | Some op -> Result.Error (err Bad_request "unknown op %S" op))

(* ---- encoding ---- *)

let encode_request = function
  | Stats -> J.obj [ J.field "op" (J.str "stats") ]
  | Shutdown -> J.obj [ J.field "op" (J.str "shutdown") ]
  | Query a ->
    J.obj
      [ J.field "op" (J.str "query"); J.field "atom" (J.str (Atom.to_string a)) ]
  | Txn ops ->
    let op_json = function
      | Incr.Maintain.Insert a ->
        J.obj [ J.field "insert" (J.str (Atom.to_string a)) ]
      | Incr.Maintain.Delete a ->
        J.obj [ J.field "delete" (J.str (Atom.to_string a)) ]
    in
    J.obj
      [ J.field "op" (J.str "txn"); J.field "ops" (J.arr_inline (List.map op_json ops)) ]

let encode_response = function
  | Answers { epoch; cache_hit; answers; time_s } ->
    J.obj
      [
        J.field "ok" "true";
        J.field "kind" (J.str "answers");
        J.field "epoch" (string_of_int epoch);
        J.field "cache" (J.str (if cache_hit then "hit" else "miss"));
        J.field "n" (string_of_int answers.count);
        J.field "answers" answers.json;
        J.field "time_s" (Printf.sprintf "%.6f" time_s);
      ]
  | Committed { epoch; ops; time_s } ->
    J.obj
      [
        J.field "ok" "true";
        J.field "kind" (J.str "committed");
        J.field "epoch" (string_of_int epoch);
        J.field "ops" (string_of_int ops);
        J.field "time_s" (Printf.sprintf "%.6f" time_s);
      ]
  | Stats_reply fields ->
    J.obj
      [
        J.field "ok" "true";
        J.field "kind" (J.str "stats");
        J.field "stats" (J.obj (List.map (fun (k, v) -> J.field k v) fields));
      ]
  | Shutdown_ack ->
    J.obj [ J.field "ok" "true"; J.field "kind" (J.str "shutdown") ]
  | Error { code; message } ->
    J.obj
      [
        J.field "ok" "false";
        J.field "code" (J.str (code_string code));
        J.field "message" (J.str message);
      ]

(* ---- decoding responses (client side) ---- *)

let to_float = function Json.Num f -> Some f | _ -> None

let decode_response line =
  let ( let* ) o f = match o with Some x -> f x | None -> Result.Error line in
  let fail msg = Result.Error (Fmt.str "%s (in %S)" msg line) in
  match Json.parse line with
  | Result.Error { Json.message; _ } -> fail ("bad response JSON: " ^ message)
  | Ok v -> (
    match Json.member "ok" v with
    | Some (Json.Bool false) ->
      let code =
        match Option.bind (Json.member "code" v) Json.to_string with
        | Some s -> code_of_string s
        | None -> Internal
      in
      let message =
        Option.value ~default:""
          (Option.bind (Json.member "message" v) Json.to_string)
      in
      Ok (Error { code; message })
    | Some (Json.Bool true) -> (
      match Option.bind (Json.member "kind" v) Json.to_string with
      | Some "shutdown" -> Ok Shutdown_ack
      | Some "committed" -> (
        match
          let* epoch = Option.bind (Json.member "epoch" v) Json.to_int in
          let* ops = Option.bind (Json.member "ops" v) Json.to_int in
          let* time_s = Option.bind (Json.member "time_s" v) to_float in
          Ok (Committed { epoch; ops; time_s })
        with
        | Ok _ as r -> r
        | Result.Error _ -> fail "malformed committed response")
      | Some "answers" -> (
        match
          let* epoch = Option.bind (Json.member "epoch" v) Json.to_int in
          let* cache = Option.bind (Json.member "cache" v) Json.to_string in
          let* items = Option.bind (Json.member "answers" v) Json.to_list in
          let* time_s = Option.bind (Json.member "time_s" v) to_float in
          let* answers = string_rows items in
          Ok (Answers { epoch; cache_hit = cache = "hit"; answers = rows answers; time_s })
        with
        | Ok _ as r -> r
        | Result.Error _ -> fail "malformed answers response")
      | Some "stats" -> (
        match Json.member "stats" v with
        | Some (Json.Obj fields) ->
          Ok
            (Stats_reply
               (List.map (fun (k, v) -> (k, Fmt.str "%a" Json.pp v)) fields))
        | _ -> fail "malformed stats response")
      | _ -> fail "unknown response kind")
    | _ -> fail "response missing boolean \"ok\"")
