open Relational
open Nfr_core

module Ntuple_table = Hashtbl.Make (struct
  type t = Ntuple.t

  let equal = Ntuple.equal
  let hash = Ntuple.hash
end)

module Rid_set = Set.Make (struct
  type t = Heap.rid

  let compare = Stdlib.compare
end)

module Tuple_table = Hashtbl.Make (struct
  type t = Tuple.t

  let equal = Tuple.equal
  let hash = Tuple.hash
end)

(* The first-committer-wins ledger: committed flat tuples indexed by
   tuple, each bucket holding the commit sequences that wrote it
   (newest first). Indexing by tuple makes [modified_since] one probe
   instead of a scan over every committed write since the last prune;
   [entries] counts (tuple, seq) pairs so [ledger_size] is O(1). *)
type ledger = {
  writes : int list ref Tuple_table.t;
  mutable entries : int;
}

type health =
  | Healthy
  | Degraded of string

(* An open storage-level transaction: the WAL has seen Txn_begin (and
   zero or more Txn_insert/Txn_delete), the in-memory layers hold the
   applied ops, and [undo] can put everything back if the commit
   record never lands. *)
type txn_state = {
  txid : int;
  mutable undo : Update.journal_entry list;  (* application order *)
  mutable written : Tuple.t list;  (* flat tuples touched, newest first *)
}

type t = {
  schema : Schema.t;
  order : Attribute.t list;
  store : Update.Store.t;
  page_size : int;
  mutable heap : Heap.t;
  mutable index : Index.t;
  mutable rids : Heap.rid Ntuple_table.t;  (* live ntuple -> rid *)
  mutable versions : int Ntuple_table.t;  (* live ntuple -> commit seq *)
  mutable dead : Rid_set.t;
  ordered_on : int option;  (* schema position of the B+-tree key *)
  mutable btree : Btree.t option;
  wal : Wal.t option;
  wal_path : string option;
  sync_on_commit : bool;
  mutable health : health;
  mutable commit_seq : int;  (* commits applied to this instance *)
  ledger : ledger;  (* committed writes since the last prune *)
  mutable txn : txn_state option;
}

let encode_record nt =
  let buffer = Buffer.create 64 in
  Codec.encode_ntuple buffer nt;
  Buffer.contents buffer

let ordered_values t nt =
  match t.ordered_on with
  | None -> Vset.singleton (Value.of_int 0) (* unused *)
  | Some position -> Ntuple.component nt position

let physical_add t nt =
  Obs.Registry.add_gauge Obs.Registry.global "storage.live_tuples" 1.;
  let rid = Heap.append t.heap (encode_record nt) in
  Ntuple_table.replace t.rids nt rid;
  (* Stamp the image with the sequence its op will commit at; the
     bump happens when the commit (or autocommit op) completes. *)
  Ntuple_table.replace t.versions nt (t.commit_seq + 1);
  List.iteri
    (fun position component ->
      Vset.fold (fun value () -> Index.add t.index ~position value rid) component ())
    (Ntuple.components nt);
  match t.btree with
  | Some tree ->
    Vset.fold (fun value () -> Btree.insert tree value rid) (ordered_values t nt) ()
  | None -> ()

let physical_remove t nt =
  match Ntuple_table.find_opt t.rids nt with
  | Some rid ->
    Obs.Registry.add_gauge Obs.Registry.global "storage.live_tuples" (-1.);
    Ntuple_table.remove t.rids nt;
    Ntuple_table.remove t.versions nt;
    t.dead <- Rid_set.add rid t.dead;
    (match t.btree with
    | Some tree ->
      Vset.fold (fun value () -> Btree.remove tree value rid) (ordered_values t nt) ()
    | None -> ())
  | None -> ()

let apply_journal t journal =
  List.iter
    (fun entry ->
      match entry with
      | Update.Added nt -> physical_add t nt
      | Update.Removed nt -> physical_remove t nt)
    journal

(* [synchronous] (default true) makes every commit point — autocommit
   op or Txn_commit — fsync before returning, so an embedded caller's
   acknowledgement is durable. The server opens tables with
   [~synchronous:false] and runs group commit instead: the event loop
   batches one [sync_wal] per tick over every dirty log and only then
   releases the acknowledgements it deferred. *)
let create ?(page_size = Page.default_size) ?wal_path ?(synchronous = true)
    ?ordered_on ~order schema =
  let ordered_position =
    Option.map (fun attribute -> Schema.position schema attribute) ordered_on
  in
  {
    schema;
    order;
    store = Update.Store.create ~order schema;
    page_size;
    heap = Heap.create ~page_size ();
    index = Index.create ();
    rids = Ntuple_table.create 256;
    versions = Ntuple_table.create 256;
    dead = Rid_set.empty;
    ordered_on = ordered_position;
    btree = Option.map (fun _ -> Btree.create ()) ordered_position;
    wal = Option.map Wal.open_log wal_path;
    wal_path;
    sync_on_commit = synchronous;
    health = Healthy;
    commit_seq = 0;
    ledger = { writes = Tuple_table.create 256; entries = 0 };
    txn = None;
  }

let apply_unlogged t entry =
  match entry with
  | Wal.Insert tuple ->
    let journal = Update.Store.insert_journaled t.store tuple in
    apply_journal t journal;
    journal <> []
  | Wal.Delete tuple ->
    let journal = Update.Store.delete_journaled t.store tuple in
    apply_journal t journal;
    true
  | Wal.Txn_begin _ | Wal.Txn_insert _ | Wal.Txn_delete _ | Wal.Txn_commit _
  | Wal.Txn_abort _ ->
    invalid_arg "Table.apply_unlogged: transaction records must be folded first"
  | Wal.View_def _ | Wal.View_drop _ ->
    invalid_arg "Table.apply_unlogged: view catalog records do not belong to a table log"
  | Wal.Manifest_commit _ ->
    invalid_arg "Table.apply_unlogged: manifest records belong to the commit manifest log"

(* The commit point of one autocommit op or one whole transaction:
   advance the sequence and remember which flat tuples it wrote, so a
   later committer can be checked against this one (first committer
   wins). *)
let note_commit t tuples =
  t.commit_seq <- t.commit_seq + 1;
  List.iter
    (fun tuple ->
      let bucket =
        match Tuple_table.find_opt t.ledger.writes tuple with
        | Some bucket -> bucket
        | None ->
          let bucket = ref [] in
          Tuple_table.replace t.ledger.writes tuple bucket;
          bucket
      in
      bucket := t.commit_seq :: !bucket;
      t.ledger.entries <- t.ledger.entries + 1)
    tuples

(* One canonical pass: V_P(flat) is unique (Theorem 2), so nesting the
   whole relation once builds the same store as inserting fact by fact,
   and each canonical tuple is appended to the heap exactly once — no
   record is written and then superseded by a merge. *)
let load ?page_size ?wal_path ?synchronous ?ordered_on ~order flat =
  let canonical = Nest.canonical flat order in
  let t =
    {
      (create ?page_size ?wal_path ?synchronous ?ordered_on ~order
         (Relation.schema flat))
      with
      store = Update.Store.of_nfr ~order canonical;
    }
  in
  Nfr.iter (physical_add t) canonical;
  (* The bulk load is commit #1: its images carry stamp 1, and the
     ledger stays empty (a load is its own checkpoint). *)
  if Relation.cardinality flat > 0 then t.commit_seq <- 1;
  t

(* Fold a replayed entry stream into its committed effects:
   autocommit entries pass through one by one, transactional ops
   buffer per txid and surface as one group at their Txn_commit, and
   anything whose commit never landed — an explicit Txn_abort, or a
   buffer still open at end of log (a torn transaction) — is
   discarded. Discarded ops are correct rollback, not data loss.

   [durable] is the global-commit-manifest check: when given, a
   per-table Txn_commit is merely {e provisional}, and the group it
   closes only survives if the manifest holds a synced record for its
   txid. A commit whose manifest record is missing — a crash between
   the per-table appends and the manifest sync — is discarded exactly
   like a torn transaction, which is what makes multi-table commits
   all-or-nothing: either every table's group passes the same check,
   or none does. Such crash discards (torn tails and manifest-missing
   commits, not explicit aborts) are additionally reported per txid so
   the recovery report can break down what the crash cost. *)
type fold_report = {
  groups : [ `Auto of Wal.entry | `Group of Wal.entry list ] list;
  discarded_ops : int;  (* every discarded op: aborts, torn, manifest *)
  crash_discards : (int * int) list;  (* (txid, ops) torn or non-durable *)
}

let fold_committed ?durable entries =
  let buffers : (int, Wal.entry list ref) Hashtbl.t = Hashtbl.create 8 in
  let started : int list ref = ref [] in  (* txids in begin order *)
  let discarded = ref 0 in
  let crash_discards = ref [] in
  let buffer_of txid =
    match Hashtbl.find_opt buffers txid with
    | Some ops -> ops
    | None ->
      let ops = ref [] in
      Hashtbl.replace buffers txid ops;
      started := txid :: !started;
      ops
  in
  let drop ?(crash = false) txid =
    match Hashtbl.find_opt buffers txid with
    | Some ops ->
      discarded := !discarded + List.length !ops;
      if crash then crash_discards := (txid, List.length !ops) :: !crash_discards;
      Hashtbl.remove buffers txid;
      started := List.filter (fun id -> id <> txid) !started
    | None -> if crash then crash_discards := (txid, 0) :: !crash_discards
  in
  let groups =
    List.filter_map
      (fun entry ->
        match entry with
        | Wal.Insert _ | Wal.Delete _ -> Some (`Auto entry)
        | Wal.Txn_begin txid ->
          (* A re-begun txid implicitly aborts the earlier attempt. *)
          drop txid;
          ignore (buffer_of txid);
          None
        | Wal.Txn_insert (txid, tuple) ->
          let ops = buffer_of txid in
          ops := Wal.Insert tuple :: !ops;
          None
        | Wal.Txn_delete (txid, tuple) ->
          let ops = buffer_of txid in
          ops := Wal.Delete tuple :: !ops;
          None
        | Wal.Txn_commit txid -> (
          match durable with
          | Some durable when not (durable txid) ->
            (* Provisional commit with no manifest record: the crash
               landed between this table's append and the manifest
               sync. Roll the group back. *)
            drop ~crash:true txid;
            None
          | _ -> (
            match Hashtbl.find_opt buffers txid with
            | Some ops ->
              Hashtbl.remove buffers txid;
              started := List.filter (fun id -> id <> txid) !started;
              Some (`Group (List.rev !ops))
            | None -> Some (`Group [])))
        | Wal.Txn_abort txid ->
          drop txid;
          None
        | Wal.View_def _ | Wal.View_drop _ | Wal.Manifest_commit _ ->
          (* Catalog/manifest records; a table log should never hold
             one, but a foreign entry is not worth failing recovery
             over. *)
          None)
      entries
  in
  List.iter (drop ~crash:true) (List.rev !started);
  { groups; discarded_ops = !discarded; crash_discards = List.rev !crash_discards }

let recover ?page_size ?synchronous ?ordered_on ?durable ~wal_path ~order schema =
  let entries = Wal.replay wal_path in
  let t = create ?page_size ~wal_path ?synchronous ?ordered_on ~order schema in
  let { groups; _ } = fold_committed ?durable entries in
  let apply entry =
    match apply_unlogged t entry with
    | _ -> ()
    | exception Update.Not_in_relation ->
      (* A delete whose insert was lost cannot be replayed; the log
         is the source of truth, so this is corruption. *)
      Storage_error.corrupt ~context:"Table.recover" ~offset:0
        "WAL deletes a tuple that is not present"
  in
  List.iter
    (function
      | `Auto entry ->
        apply entry;
        note_commit t []
      | `Group entries ->
        List.iter apply entries;
        note_commit t [])
    groups;
  t

type recovery_report = {
  wal_salvage : Wal.salvage option;
  snapshot_status : [ `Loaded | `Absent | `Corrupt of string | `None_requested ];
  stale_wal : bool;
  applied : int;
  skipped_ops : int;
  discarded_txn_ops : int;
  discarded_txns : (int * int) list;
      (* (txid, ops rolled back) for each transaction this table
         discarded as a crash cost: a torn tail, or a provisional
         commit whose manifest record never synced. Cross-table
         recovery aggregates these per table so an operator can audit
         exactly what a crash rolled back where. *)
}

(* Replay entries, skipping (and counting) any that cannot be applied —
   a delete whose insert was salvaged away, or a decoded-but-bogus
   tuple from debris that slipped past a legacy checksum. Nothing in
   here may take the table down mid-recovery. Uncommitted transactional
   tails are folded away first and counted separately: discarding them
   is the contract, not damage. *)
let apply_salvaged ?durable t entries =
  let { groups; discarded_ops; crash_discards } = fold_committed ?durable entries in
  let applied = ref 0 and skipped = ref 0 in
  let apply entry =
    match apply_unlogged t entry with
    | _ -> incr applied
    | exception
        ( Update.Not_in_relation | Update.Update_diverged _
        | Storage_error.Error _ | Invalid_argument _ | Failure _ ) ->
      incr skipped
  in
  List.iter
    (function
      | `Auto entry ->
        apply entry;
        note_commit t []
      | `Group entries ->
        List.iter apply entries;
        note_commit t [])
    groups;
  (!applied, !skipped, discarded_ops, crash_discards)

let degrade_if_lossy t report =
  let wal_damage =
    match report.wal_salvage with
    | Some salvage -> salvage.Wal.bytes_skipped > 0
    | None -> false
  in
  let snapshot_damage = match report.snapshot_status with `Corrupt _ -> true | _ -> false in
  if wal_damage || snapshot_damage || report.skipped_ops > 0 then
    t.health <-
      Degraded
        (Printf.sprintf
           "recovered with loss (snapshot %s, %d WAL bytes skipped, %d ops skipped)"
           (match report.snapshot_status with
           | `Corrupt reason -> "corrupt: " ^ reason
           | `Loaded -> "ok"
           | `Absent -> "absent"
           | `None_requested -> "not requested")
           (match report.wal_salvage with
           | Some salvage -> salvage.Wal.bytes_skipped
           | None -> 0)
           report.skipped_ops)

let recover_salvage ?page_size ?synchronous ?ordered_on ?durable ~wal_path ~order
    schema =
  Obs.Span.with_span Obs.Span.Salvage wal_path @@ fun _ ->
  Obs.Registry.incr Obs.Registry.global "wal.recover_salvage_total";
  let salvage = Wal.replay_salvage wal_path in
  let t = create ?page_size ~wal_path ?synchronous ?ordered_on ~order schema in
  let applied, skipped_ops, discarded_txn_ops, discarded_txns =
    apply_salvaged ?durable t salvage.Wal.entries
  in
  let report =
    {
      wal_salvage = Some salvage;
      snapshot_status = `None_requested;
      stale_wal = false;
      applied;
      skipped_ops;
      discarded_txn_ops;
      discarded_txns;
    }
  in
  degrade_if_lossy t report;
  (t, report)

let close t = Option.iter Wal.close t.wal
let schema t = t.schema
let nest_order t = t.order

let ordered_attribute t =
  Option.map (fun position -> Schema.attribute_at t.schema position) t.ordered_on

let posting_size t attribute value =
  Index.posting_size t.index ~position:(Schema.position t.schema attribute) value

let health t = t.health

let require_writable t =
  match t.health with
  | Healthy -> ()
  | Degraded reason -> raise (Storage_error.Error (Storage_error.Degraded reason))

(* Run a WAL operation under the durability error envelope. A failure
   (closed channel, I/O error, fsync error) leaves the logical and
   physical layers untouched and consistent: the table transitions to
   read-only [Degraded] and the typed error propagates. A
   [Failpoint.Crashed] is different — it simulates process death and
   must reach the harness untranslated. *)
let guard_wal t f =
  match t.wal with
  | None -> ()
  | Some wal -> (
    try f wal with
    | Failpoint.Crashed _ as e -> raise e
    | Storage_error.Error ((Storage_error.Closed _ | Storage_error.Corrupt _) as err) ->
      let reason = Storage_error.to_string err in
      t.health <- Degraded reason;
      raise (Storage_error.Error (Storage_error.Degraded reason))
    | Sys_error reason ->
      t.health <- Degraded reason;
      raise (Storage_error.Error (Storage_error.Degraded reason))
    | Unix.Unix_error (err, _, _) ->
      let reason = Unix.error_message err in
      t.health <- Degraded reason;
      raise (Storage_error.Error (Storage_error.Degraded reason)))

(* Log the entry before touching any in-memory state. [~sync:true]
   marks a commit point: on a synchronous table the append is fsynced
   before this returns, so the caller's acknowledgement is durable.
   Asynchronous tables leave the bytes in the OS page cache for the
   group-commit scheduler ([sync_wal]) to cover. *)
let log_durably ?(sync = false) t entry =
  guard_wal t (fun wal ->
      Wal.append wal entry;
      if sync && t.sync_on_commit then Wal.sync wal)

let sync_wal t = guard_wal t Wal.sync

let wal_unsynced t =
  match t.wal with Some wal -> Wal.unsynced_bytes wal | None -> 0

let require_no_txn t context =
  if t.txn <> None then
    invalid_arg (context ^ ": a storage transaction is already open")

let insert t tuple =
  require_writable t;
  require_no_txn t "Table.insert";
  if Update.Store.member t.store tuple then false
  else begin
    log_durably ~sync:true t (Wal.Insert tuple);
    let applied = apply_unlogged t (Wal.Insert tuple) in
    note_commit t [ tuple ];
    applied
  end

let delete t tuple =
  require_writable t;
  require_no_txn t "Table.delete";
  if not (Update.Store.member t.store tuple) then raise Update.Not_in_relation;
  log_durably ~sync:true t (Wal.Delete tuple);
  ignore (apply_unlogged t (Wal.Delete tuple));
  note_commit t [ tuple ]

(* ------------------------------------------------------------------ *)
(* Storage-level transactions                                          *)
(* ------------------------------------------------------------------ *)

let commit_seq t = t.commit_seq
let in_txn t = t.txn <> None
let version_of t nt = Ntuple_table.find_opt t.versions nt

(* One bucket probe; sequences are newest-first, so the head decides. *)
let modified_since t ~seq tuple =
  match Tuple_table.find_opt t.ledger.writes tuple with
  | Some bucket -> ( match !bucket with s :: _ -> s > seq | [] -> false)
  | None -> false

let prune_ledger t ~below =
  let stale =
    Tuple_table.fold
      (fun tuple bucket acc ->
        let kept = List.filter (fun s -> s > below) !bucket in
        let dropped = List.length !bucket - List.length kept in
        t.ledger.entries <- t.ledger.entries - dropped;
        bucket := kept;
        if kept = [] then tuple :: acc else acc)
      t.ledger.writes []
  in
  List.iter (Tuple_table.remove t.ledger.writes) stale

let ledger_size t = t.ledger.entries

let require_txn t context txid =
  match t.txn with
  | Some txn when txn.txid = txid -> txn
  | Some txn ->
    invalid_arg
      (Printf.sprintf "%s: transaction %d is open, not %d" context txn.txid txid)
  | None -> invalid_arg (context ^ ": no storage transaction is open")

let begin_txn t ~txid =
  require_writable t;
  require_no_txn t "Table.begin_txn";
  log_durably t (Wal.Txn_begin txid);
  t.txn <- Some { txid; undo = []; written = [] }

let txn_insert t ~txid tuple =
  require_writable t;
  let txn = require_txn t "Table.txn_insert" txid in
  if Update.Store.member t.store tuple then false
  else begin
    log_durably t (Wal.Txn_insert (txid, tuple));
    let journal = Update.Store.insert_journaled t.store tuple in
    apply_journal t journal;
    txn.undo <- List.rev_append journal txn.undo;
    txn.written <- tuple :: txn.written;
    journal <> []
  end

let txn_delete t ~txid tuple =
  require_writable t;
  let txn = require_txn t "Table.txn_delete" txid in
  if not (Update.Store.member t.store tuple) then raise Update.Not_in_relation;
  log_durably t (Wal.Txn_delete (txid, tuple));
  let journal = Update.Store.delete_journaled t.store tuple in
  apply_journal t journal;
  txn.undo <- List.rev_append journal txn.undo;
  txn.written <- tuple :: txn.written

let commit_txn t ~txid =
  require_writable t;
  let txn = require_txn t "Table.commit_txn" txid in
  (* The commit record is the transaction's durability point; the
     Txn_begin/op entries before it ride along under the same fsync. *)
  log_durably ~sync:true t (Wal.Txn_commit txid);
  note_commit t (List.rev txn.written);
  t.txn <- None;
  t.commit_seq

(* Put the in-memory layers back exactly as they were before the
   transaction's ops, then record the abort. The undo application
   cannot fail (it replays already-derived journal entries); if the
   abort record itself cannot be logged the table is degraded but the
   memory image is already consistent — and recovery discards the
   commit-less tail anyway, so disk agrees. *)
let abort_txn t ~txid =
  let txn = require_txn t "Table.abort_txn" txid in
  (* [undo] is accumulated newest-first, so re-reverse before inverting. *)
  let inverse = Update.invert_journal (List.rev txn.undo) in
  Update.Store.apply_journal t.store inverse;
  apply_journal t inverse;
  t.txn <- None;
  match t.wal with
  | None -> ()
  | Some _ -> (
    try log_durably t (Wal.Txn_abort txid)
    with Storage_error.Error _ -> ())

let member t tuple = Update.Store.member t.store tuple
let snapshot t = Update.Store.snapshot t.store
let cardinality t = Update.Store.cardinality t.store
let fact_count t = Nfr.expansion_size (snapshot t)

let lookup t ~stats attribute value =
  let position = Schema.position t.schema attribute in
  let rids = Index.lookup t.index ~stats ~position value in
  List.filter_map
    (fun rid ->
      if Rid_set.mem rid t.dead then None
      else begin
        let record = Heap.fetch t.heap ~stats rid in
        Some (fst (Codec.decode_ntuple (Bytes.of_string record) 0))
      end)
    rids

let scan t ~stats f =
  Heap.scan t.heap ~stats (fun rid record ->
      if not (Rid_set.mem rid t.dead) then
        f (fst (Codec.decode_ntuple (Bytes.of_string record) 0)))

let decode_record record = fst (Codec.decode_ntuple (Bytes.of_string record) 0)

let scan_cursor t ~stats =
  let next = Heap.cursor t.heap ~stats in
  let rec pull () =
    match next () with
    | None -> None
    | Some (rid, record) ->
      if Rid_set.mem rid t.dead then pull () else Some (decode_record record)
  in
  pull

let lookup_cursor t ~stats attribute value =
  let position = Schema.position t.schema attribute in
  let pending = ref (Index.lookup t.index ~stats ~position value) in
  let rec pull () =
    match !pending with
    | [] -> None
    | rid :: rest ->
      pending := rest;
      if Rid_set.mem rid t.dead then pull ()
      else Some (decode_record (Heap.fetch t.heap ~stats rid))
  in
  pull

let range_cursor t ~stats ?lo ?hi ?lo_incl ?hi_incl () =
  match t.btree, t.ordered_on with
  | Some tree, Some _position ->
    (* The leaf walk (keys and rid lists) happens up front; records are
       fetched and decoded lazily, one tuple per pull. A rid posted
       under several in-range keys is returned once. *)
    let postings = ref (Btree.range_open tree ~stats ?lo ?hi ?lo_incl ?hi_incl ()) in
    let current = ref [] in
    let seen = ref Rid_set.empty in
    let rec pull () =
      match !current with
      | rid :: rest ->
        current := rest;
        if Rid_set.mem rid !seen || Rid_set.mem rid t.dead then pull ()
        else begin
          seen := Rid_set.add rid !seen;
          Some (decode_record (Heap.fetch t.heap ~stats rid))
        end
      | [] -> (
        match !postings with
        | [] -> None
        | (_key, rids) :: rest ->
          postings := rest;
          current := rids;
          pull ())
    in
    pull
  | None, _ | _, None ->
    invalid_arg "Table.range_cursor: no ordered index (pass ~ordered_on)"

let range t ~stats ~lo ~hi =
  match t.btree with
  | None -> invalid_arg "Table.range: no ordered index (pass ~ordered_on)"
  | Some _ ->
    let next = range_cursor t ~stats ~lo ~hi () in
    let rec collect acc =
      match next () with
      | Some nt -> collect (nt :: acc)
      | None -> List.rev acc
    in
    collect []

let live_records t = Ntuple_table.length t.rids
let dead_records t = Rid_set.cardinal t.dead
let pages t = Heap.page_count t.heap
let pool t = Heap.pool t.heap
let pool_hit_rate t = Bufpool.hit_rate (Heap.pool t.heap)

let compact t =
  let live = snapshot t in
  (* Rebuilding re-appends every live record through [physical_add],
     which would restamp the images at the current sequence; a compact
     changes the physical layout, not the commit history, so carry the
     stamps over. *)
  let stamps = t.versions in
  t.heap <- Heap.create ~page_size:t.page_size ();
  t.index <- Index.create ();
  t.rids <- Ntuple_table.create 256;
  t.versions <- Ntuple_table.create 256;
  t.dead <- Rid_set.empty;
  t.btree <- Option.map (fun _ -> Btree.create ()) t.ordered_on;
  Nfr.iter (physical_add t) live;
  Ntuple_table.iter
    (fun nt seq ->
      if Ntuple_table.mem t.rids nt then Ntuple_table.replace t.versions nt seq)
    stamps

let checkpoint t =
  require_writable t;
  compact t;
  match t.wal with
  | Some wal -> Wal.truncate wal
  | None -> Option.iter Wal.reset t.wal_path

(* Snapshot format v1: magic "NF2SNAP1", then a CRC-32-protected body
   (varint WAL generation at save time, schema as degree + name/ty-tag
   pairs, nest order names, tuple count, tuples), then the CRC-32 of
   the body little-endian. Legacy snapshots (no magic, no trailer,
   no generation) still load. Writes go to [path ^ ".tmp"] and rename
   into place, so a crash mid-save never clobbers the old snapshot. *)
let snapshot_magic = "NF2SNAP1"

let ty_tag = function
  | Value.Tint -> 0
  | Value.Tfloat -> 1
  | Value.Tstring -> 2
  | Value.Tbool -> 3

let ty_of_tag ~offset = function
  | 0 -> Value.Tint
  | 1 -> Value.Tfloat
  | 2 -> Value.Tstring
  | 3 -> Value.Tbool
  | tag ->
    Storage_error.corrupt ~context:"Table.load_snapshot" ~offset
      (Printf.sprintf "unknown type tag %d" tag)

let encode_string buffer s =
  Codec.encode_varint buffer (String.length s);
  Buffer.add_string buffer s

let decode_string bytes offset =
  let length, offset = Codec.decode_varint bytes offset in
  if length < 0 || offset + length > Bytes.length bytes then
    Storage_error.corrupt ~context:"Table.load_snapshot" ~offset "truncated string";
  (Bytes.sub_string bytes offset length, offset + length)

let add_le32 buffer n =
  for shift = 0 to 3 do
    Buffer.add_char buffer (Char.chr ((n lsr (shift * 8)) land 0xFF))
  done

let read_le32 s offset =
  let byte i = Char.code s.[offset + i] in
  byte 0 lor (byte 1 lsl 8) lor (byte 2 lsl 16) lor (byte 3 lsl 24)

let save_snapshot t path =
  Obs.Span.with_span Obs.Span.Snapshot_write path @@ fun snapshot_span ->
  Obs.Registry.incr Obs.Registry.global "snapshot.write_total";
  let body = Buffer.create 4096 in
  Codec.encode_varint body (match t.wal with Some wal -> Wal.generation wal | None -> 0);
  Codec.encode_varint body (Schema.degree t.schema);
  List.iter
    (fun (attribute, ty) ->
      encode_string body (Attribute.name attribute);
      Codec.encode_varint body (ty_tag ty))
    (Schema.columns t.schema);
  List.iter (fun attribute -> encode_string body (Attribute.name attribute)) t.order;
  let snapshot = snapshot t in
  Codec.encode_varint body (Nfr.cardinality snapshot);
  Nfr.iter (Codec.encode_ntuple body) snapshot;
  let payload = Buffer.contents body in
  let file = Buffer.create (String.length payload + 16) in
  Buffer.add_string file snapshot_magic;
  Buffer.add_string file payload;
  add_le32 file (Crc32.digest payload);
  let temp = path ^ ".tmp" in
  (match Failpoint.on_write "snapshot.body" (Buffer.contents file) with
  | Failpoint.Full data ->
    Out_channel.with_open_bin temp (fun oc -> Out_channel.output_string oc data)
  | Failpoint.Dropped ->
    Out_channel.with_open_bin temp (fun oc -> Out_channel.output_string oc "")
  | Failpoint.Partial prefix ->
    Out_channel.with_open_bin temp (fun oc -> Out_channel.output_string oc prefix);
    raise (Failpoint.Crashed "snapshot.body"));
  Obs.Span.set_bytes snapshot_span (String.length payload);
  Failpoint.hit "snapshot.rename";
  Sys.rename temp path

(* Parse a snapshot file into (wal generation, table) — raising typed
   errors on any damage; integrity is checked before anything is
   built. *)
let parse_snapshot ?page_size ?wal_path ?synchronous ?ordered_on contents =
  let generation, bytes =
    if
      String.length contents >= String.length snapshot_magic + 4
      && String.sub contents 0 (String.length snapshot_magic) = snapshot_magic
    then begin
      let body_length = String.length contents - String.length snapshot_magic - 4 in
      let stored = read_le32 contents (String.length contents - 4) in
      let payload = String.sub contents (String.length snapshot_magic) body_length in
      if Crc32.digest payload <> stored then
        Storage_error.corrupt ~context:"Table.load_snapshot"
          ~offset:(String.length contents - 4)
          "checksum mismatch (torn or bit-flipped snapshot)";
      let bytes = Bytes.of_string payload in
      let generation, offset = Codec.decode_varint bytes 0 in
      (generation, (bytes, offset))
    end
    else (0, (Bytes.of_string contents, 0))
  in
  let bytes, start = bytes in
  let degree, offset = Codec.decode_varint bytes start in
  if degree = 0 then
    Storage_error.corrupt ~context:"Table.load_snapshot" ~offset:start "empty schema";
  if degree < 0 || degree > Bytes.length bytes - offset then
    Storage_error.corrupt ~context:"Table.load_snapshot" ~offset:start
      "schema degree exceeds snapshot size";
  let columns = ref [] in
  let offset = ref offset in
  for _ = 1 to degree do
    let name, next = decode_string bytes !offset in
    let tag, next = Codec.decode_varint bytes next in
    columns := (name, ty_of_tag ~offset:next tag) :: !columns;
    offset := next
  done;
  let schema = Schema.of_names (List.rev !columns) in
  let order = ref [] in
  for _ = 1 to degree do
    let name, next = decode_string bytes !offset in
    order := Attribute.make name :: !order;
    offset := next
  done;
  let count, next = Codec.decode_varint bytes !offset in
  if count < 0 || count > Bytes.length bytes - next then
    Storage_error.corrupt ~context:"Table.load_snapshot" ~offset:!offset
      "tuple count exceeds snapshot size";
  offset := next;
  let t =
    create ?page_size ?wal_path ?synchronous ?ordered_on
      ~order:(List.rev !order) schema
  in
  for _ = 1 to count do
    let nt, next = Codec.decode_ntuple bytes !offset in
    offset := next;
    (* Feed the flat facts through the normal path so logic and
       physical layers stay in sync and canonicity is re-established
       even if the snapshot was tampered with. *)
    List.iter
      (fun tuple -> ignore (apply_unlogged t (Wal.Insert tuple)))
      (Ntuple.expand nt)
  done;
  if count > 0 then t.commit_seq <- 1;
  (generation, t)

let load_snapshot ?page_size ?wal_path ?synchronous ?ordered_on ?durable path =
  Obs.Span.with_span Obs.Span.Snapshot_load path @@ fun _ ->
  Obs.Registry.incr Obs.Registry.global "snapshot.load_total";
  let contents = In_channel.with_open_bin path In_channel.input_all in
  let snapshot_generation, t =
    parse_snapshot ?page_size ?wal_path ?synchronous ?ordered_on contents
  in
  (match wal_path with
  | Some wal_path ->
    let salvage = Wal.replay_salvage wal_path in
    (* A WAL at or below the snapshot's generation predates it — its
       entries are already folded into the snapshot (the crash window
       between save_snapshot and the checkpoint's truncation), so
       replaying them would double-apply. *)
    let stale = snapshot_generation > 0 && salvage.Wal.generation <= snapshot_generation in
    if not stale then begin
      let { groups; _ } = fold_committed ?durable (Wal.replay wal_path) in
      let apply entry =
        match apply_unlogged t entry with
        | _ -> ()
        | exception Update.Not_in_relation ->
          Storage_error.corrupt ~context:"Table.load_snapshot" ~offset:0
            "WAL deletes an absent tuple"
      in
      List.iter
        (function
          | `Auto entry ->
            apply entry;
            note_commit t []
          | `Group entries ->
            List.iter apply entries;
            note_commit t [])
        groups
    end
  | None -> ());
  t

let load_snapshot_salvage ?page_size ?wal_path ?synchronous ?ordered_on ?durable
    path =
  Obs.Span.with_span Obs.Span.Salvage path @@ fun _ ->
  Obs.Registry.incr Obs.Registry.global "snapshot.salvage_total";
  let snapshot_result =
    match In_channel.with_open_bin path In_channel.input_all with
    | contents -> (
      match parse_snapshot ?page_size ?wal_path ?synchronous ?ordered_on contents with
      | result -> Ok result
      | exception Storage_error.Error err -> Error (Storage_error.to_string err)
      | exception Schema.Schema_error reason -> Error reason)
    | exception Sys_error _ -> Error "snapshot file unreadable"
  in
  let (snapshot_generation, t), snapshot_status =
    match snapshot_result with
    | Ok (generation, t) -> ((generation, t), `Loaded)
    | Error reason ->
      let missing = not (Sys.file_exists path) in
      ( (0, create ?page_size ~order:[ Attribute.make "_" ] (Schema.strings [ "_" ])),
        if missing then `Absent else `Corrupt reason )
  in
  (* A corrupt snapshot leaves us without a schema to recover into;
     the caller owns the schema in that situation and should use
     [recover_salvage] — signalled through the report. *)
  match wal_path with
  | None ->
    let report =
      {
        wal_salvage = None;
        snapshot_status;
        stale_wal = false;
        applied = 0;
        skipped_ops = 0;
        discarded_txn_ops = 0;
        discarded_txns = [];
      }
    in
    degrade_if_lossy t report;
    (t, report)
  | Some wal_path ->
    let salvage = Wal.replay_salvage wal_path in
    let stale =
      snapshot_status = `Loaded && snapshot_generation > 0
      && salvage.Wal.generation <= snapshot_generation
    in
    let applied, skipped_ops, discarded_txn_ops, discarded_txns =
      if stale || snapshot_status <> `Loaded then (0, 0, 0, [])
      else apply_salvaged ?durable t salvage.Wal.entries
    in
    let report =
      {
        wal_salvage = Some salvage;
        snapshot_status;
        stale_wal = stale;
        applied;
        skipped_ops;
        discarded_txn_ops;
        discarded_txns;
      }
    in
    degrade_if_lossy t report;
    (t, report)

(* ------------------------------------------------------------------ *)
(* Cross-layer invariants                                              *)
(* ------------------------------------------------------------------ *)

let check_invariants t =
  let snapshot = snapshot t in
  let ntuples = Nfr.ntuples snapshot in
  let stats = Stats.create () in
  let rid_count_matches = List.length ntuples = Ntuple_table.length t.rids in
  let store_mirrored =
    List.for_all (fun nt -> Ntuple_table.mem t.rids nt) ntuples
  in
  let versions_stamped =
    Ntuple_table.length t.versions = Ntuple_table.length t.rids
    && Ntuple_table.fold
         (fun nt _rid acc ->
           acc
           &&
           match Ntuple_table.find_opt t.versions nt with
           | Some seq -> seq >= 1 && seq <= t.commit_seq + 1
           | None -> false)
         t.rids true
  in
  let heap_roundtrips =
    Ntuple_table.fold
      (fun nt rid acc ->
        acc
        && (not (Rid_set.mem rid t.dead))
        &&
        match Codec.decode_ntuple (Bytes.of_string (Heap.get t.heap rid)) 0 with
        | decoded, _ -> Ntuple.equal decoded nt
        | exception Storage_error.Error _ -> false
        | exception Invalid_argument _ -> false)
      t.rids true
  in
  let postings_complete =
    Ntuple_table.fold
      (fun nt rid acc ->
        acc
        && List.for_all
             (fun (position, component) ->
               Vset.for_all
                 (fun value ->
                   List.mem rid (Index.lookup t.index ~stats ~position value))
                 component)
             (List.mapi (fun i component -> (i, component)) (Ntuple.components nt)))
      t.rids true
  in
  let btree_consistent =
    match t.btree, t.ordered_on with
    | Some tree, Some position ->
      Btree.check_invariants tree
      && Ntuple_table.fold
           (fun nt rid acc ->
             acc
             && Vset.for_all
                  (fun value -> List.mem rid (Btree.lookup tree ~stats value))
                  (Ntuple.component nt position))
           t.rids true
    | None, _ | _, None -> true
  in
  rid_count_matches && store_mirrored && versions_stamped && heap_roundtrips
  && postings_complete && btree_consistent
