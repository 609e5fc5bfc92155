open Datalog

type t = {
  program : Program.t;  (** as parsed, facts included, index-aligned with [srcmap] *)
  query : Atom.t option;
  srcmap : Parser.source_map;
}

let make ?(srcmap = Parser.empty_map) ?query program = { program; query; srcmap }

let clause t i = Parser.rule_spans t.srcmap i

let rule_span t i =
  match clause t i with Some c -> c.Parser.clause_span | None -> Loc.dummy

let head_span t i =
  match clause t i with Some c -> c.Parser.head_span | None -> Loc.dummy

let lit_span t i j =
  match clause t i with
  | Some c ->
    let spans = c.Parser.literal_spans in
    if j >= 0 && j < Array.length spans && not (Loc.is_dummy spans.(j)) then spans.(j)
    else c.Parser.clause_span
  | None -> Loc.dummy

let query_span t = Option.value ~default:Loc.dummy t.srcmap.Parser.query_span
