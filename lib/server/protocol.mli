(** Line-oriented JSON wire protocol of [magic serve].

    One request per line, one response line per request.  Atoms travel
    as Datalog concrete syntax inside JSON strings, so a client needs no
    Datalog-aware encoder.  Requests:

    {v
      {"op": "query", "atom": "path(a, X)"}
      {"op": "txn", "ops": [{"insert": "edge(a,b)"}, {"delete": "edge(b,c)"}]}
      {"op": "stats"}
      {"op": "shutdown"}
    v}

    Responses carry ["ok": true] with a ["kind"] discriminator, or
    ["ok": false] with a machine-readable ["code"] and a human-readable
    ["message"].  A malformed line is answered with an error response —
    never a dropped connection or a crash. *)

open Datalog

type request =
  | Query of Atom.t
  | Txn of Incr.Maintain.op list
  | Stats
  | Shutdown

type error_code =
  | Bad_json  (** the line is not a JSON value *)
  | Bad_request  (** well-formed JSON, but not a known request shape *)
  | Parse_error  (** an atom string failed Datalog parsing *)
  | Non_ground  (** a transaction op carries variables *)
  | Incompatible  (** the query cannot be served by the warm session *)
  | Budget  (** admission control: evaluation budget exhausted *)
  | Internal

type rows = private { count : int; json : string }
(** An answer set ready for the wire: the number of rows and their JSON
    rendering [\[\["a", "b"\], ...\]], each component printed in Datalog
    concrete syntax.  The server renders a set once and sends the same
    string on every cache hit. *)

val rows : string list list -> rows
(** Render rows, in the given order. *)

val rows_list : rows -> string list list
(** The rows back as strings. *)

type response =
  | Answers of { epoch : int; cache_hit : bool; answers : rows; time_s : float }
  | Committed of { epoch : int; ops : int; time_s : float }
  | Stats_reply of (string * string) list
      (** field name paired with its already-JSON-encoded value *)
  | Shutdown_ack
  | Error of { code : error_code; message : string }

val code_string : error_code -> string

val decode_request : string -> (request, response) result
(** Parse one request line.  The [Error _] branch is the ready-to-send
    error response describing what was wrong with the line. *)

val encode_request : request -> string
(** One line, no trailing newline. *)

val encode_response : response -> string
(** One line, no trailing newline. *)

val decode_response : string -> (response, string) result
(** Client side: parse one response line. *)
