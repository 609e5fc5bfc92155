open Datalog
module Db = Engine.Database
module Rel = Engine.Relation
module Session = Incr.Session

type t = {
  dir : string;
  program : Program.t;
  digest : string;
  max_facts : int option;
  checkpoint_every : int;
  mutable session : Session.t;
  mutable wal : Wal.writer;
  mutable since_checkpoint : int;
  mutable appended : int;
  mutable n_checkpoints : int;
  mutable n_replayed : int;
  restored_ : bool;
}

let snapshot_path dir = Filename.concat dir "snapshot.magic"
let wal_path dir = Filename.concat dir "wal.magic"
let program_digest p = Digest.to_hex (Digest.string (Program.to_string p))

let session t = t.session
let restored t = t.restored_
let replayed t = t.n_replayed
let wal_records t = t.appended
let checkpoints t = t.n_checkpoints

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* ------------------------------------------------------------------ *)
(* Loading: snapshot + WAL suffix                                      *)
(* ------------------------------------------------------------------ *)

let meta_error dir msg =
  Codec.corrupt ~file:(snapshot_path dir) ~section:"META" ~offset:12 msg

(* Replay is the recovery half of the commit protocol: every intact
   record was once a successful, acknowledged commit against exactly
   this prefix of the state, so re-applying cannot fail (the digest
   check pins the program; installs are idempotent). *)
let load_from_disk ~dir ~program ~digest ~strategy_req ~max_facts =
  let spath = snapshot_path dir in
  let meta, image = Snapshot_file.load spath in
  if meta.Snapshot_file.program_digest <> digest then
    meta_error dir
      (Fmt.str
         "snapshot was written for a different program (digest %s, this program is %s)"
         meta.Snapshot_file.program_digest digest);
  let strategy =
    match Session.strategy_of_string meta.Snapshot_file.strategy with
    | Some s when s <> Session.Auto -> s
    | _ -> meta_error dir (Fmt.str "unknown session strategy %S" meta.Snapshot_file.strategy)
  in
  (match strategy_req with
  | Some s when s <> Session.Auto && s <> strategy ->
    meta_error dir
      (Fmt.str "store holds a %s session but strategy %s was requested"
         (Session.strategy_to_string strategy)
         (Session.strategy_to_string s))
  | _ -> ());
  let query =
    match Parser.parse_atom meta.Snapshot_file.query with
    | q -> q
    | exception Parser.Error msg ->
      meta_error dir (Fmt.str "unparsable query %S: %s" meta.Snapshot_file.query msg)
  in
  let session =
    Session.of_image program
      { Session.i_strategy = strategy; i_query = query; i_maintain = image }
  in
  let wpath = wal_path dir in
  let records, tail =
    if Sys.file_exists wpath then Wal.replay wpath else ([], Wal.Clean)
  in
  (match tail with Wal.Clean -> () | Wal.Torn at -> Io.truncate wpath at);
  List.iter
    (fun record ->
      match record with
      | Wal.Txn ops -> ignore (Session.update ?max_facts session ops)
      | Wal.Install q -> ignore (Session.query_delta ?max_facts session q))
    records;
  (session, List.length records)

(* ------------------------------------------------------------------ *)
(* Checkpointing and journaling                                        *)
(* ------------------------------------------------------------------ *)

let write_snapshot t =
  let im = Session.image t.session in
  let meta =
    {
      Snapshot_file.strategy = Session.strategy_to_string im.Session.i_strategy;
      query = Atom.to_string im.Session.i_query;
      program_digest = t.digest;
    }
  in
  Snapshot_file.save ~path:(snapshot_path t.dir) ~meta im.Session.i_maintain

let checkpoint t =
  write_snapshot t;
  (* the snapshot now covers everything the WAL held: start a new one *)
  Wal.close t.wal;
  t.wal <- Wal.create (wal_path t.dir);
  t.since_checkpoint <- 0;
  t.n_checkpoints <- t.n_checkpoints + 1

let bump t =
  t.appended <- t.appended + 1;
  t.since_checkpoint <- t.since_checkpoint + 1;
  if t.checkpoint_every > 0 && t.since_checkpoint >= t.checkpoint_every then checkpoint t

let journal_txn t ops =
  if ops <> [] then begin
    Wal.append t.wal (Wal.Txn ops);
    bump t
  end

let journal_install t q =
  Wal.append t.wal (Wal.Install q);
  bump t

(* ------------------------------------------------------------------ *)
(* Opening                                                             *)
(* ------------------------------------------------------------------ *)

let open_or_create ?strategy ?max_facts ?(checkpoint_every = 64) ~dir program query ~edb =
  let digest = program_digest program in
  if Sys.file_exists (snapshot_path dir) then begin
    let session, n_replayed =
      load_from_disk ~dir ~program ~digest ~strategy_req:strategy ~max_facts
    in
    let t =
      {
        dir;
        program;
        digest;
        max_facts;
        checkpoint_every;
        session;
        wal = Wal.open_append (wal_path dir);
        since_checkpoint = n_replayed;
        appended = 0;
        n_checkpoints = 0;
        n_replayed;
        restored_ = true;
      }
    in
    (* fold a long replay into the snapshot now rather than on shutdown *)
    if t.checkpoint_every > 0 && t.since_checkpoint >= t.checkpoint_every then checkpoint t;
    t
  end
  else begin
    mkdir_p dir;
    let strategy = Option.value strategy ~default:Session.Original in
    let session = Session.create ~strategy ?max_facts program query ~edb in
    let t =
      {
        dir;
        program;
        digest;
        max_facts;
        checkpoint_every;
        session;
        wal = Wal.create (wal_path dir);
        since_checkpoint = 0;
        appended = 0;
        n_checkpoints = 0;
        n_replayed = 0;
        restored_ = false;
      }
    in
    write_snapshot t;
    t.n_checkpoints <- 1;
    t
  end

(* ------------------------------------------------------------------ *)
(* Session-driving conveniences                                        *)
(* ------------------------------------------------------------------ *)

let update_delta t ops =
  let stats, summary = Session.update_delta ?max_facts:t.max_facts t.session ops in
  journal_txn t ops;
  (stats, summary)

let update t ops = fst (update_delta t ops)

let query t q =
  let installed, stats, _summary = Session.query_delta ?max_facts:t.max_facts t.session q in
  if installed > 0 then journal_install t q;
  (Session.answers t.session, stats)

(* The base EDB plus externally asserted facts of the original program's
   derived predicates; magic/supplementary relations (derived under the
   maintained, possibly rewritten program) are dropped — a new query
   plants its own seeds. *)
let extract_edb session =
  let db = Session.db session in
  let maintained =
    match Session.rewritten session with
    | Some rw -> rw.Magic_core.Rewritten.program
    | None -> Session.program session
  in
  let derived = Program.derived maintained in
  let orig_derived = Program.derived (Session.program session) in
  let edb = Db.create () in
  List.iter
    (fun sym ->
      if not (Symbol.Set.mem sym derived) then
        match Db.find db sym with
        | Some r -> Db.install edb sym (Rel.copy r)
        | None -> ())
    (Db.symbols db);
  let im = Session.image session in
  List.iter
    (fun (sym, tus) ->
      if Symbol.Set.mem sym orig_derived then
        List.iter (fun tu -> ignore (Db.add_tuple edb sym tu)) tus)
    im.Session.i_maintain.Incr.Maintain.im_external;
  edb

let reset t q =
  let edb = extract_edb t.session in
  let strategy = Session.strategy t.session in
  let session = Session.create ~strategy ?max_facts:t.max_facts t.program q ~edb in
  t.session <- session;
  checkpoint t;
  session

let recover t =
  Wal.close t.wal;
  let session, n =
    load_from_disk ~dir:t.dir ~program:t.program ~digest:t.digest ~strategy_req:None
      ~max_facts:t.max_facts
  in
  t.session <- session;
  t.wal <- Wal.open_append (wal_path t.dir);
  t.n_replayed <- t.n_replayed + n;
  session

let close t =
  checkpoint t;
  Wal.close t.wal
