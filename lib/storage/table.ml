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

let physical_add_stamped t nt stamp =
  Obs.Registry.add_gauge Obs.Registry.global "storage.live_tuples" 1.;
  let rid = Heap.append t.heap (encode_record nt) in
  Ntuple_table.replace t.rids nt rid;
  Ntuple_table.replace t.versions nt stamp;
  List.iteri
    (fun position component ->
      Vset.fold (fun value () -> Index.add t.index ~position value rid) component ())
    (Ntuple.components nt);
  match t.btree with
  | Some tree ->
    Vset.fold (fun value () -> Btree.insert tree value rid) (ordered_values t nt) ()
  | None -> ()

(* Stamp the image with the sequence its op will commit at; the bump
   happens when the commit (or autocommit op) completes. *)
let physical_add t nt = physical_add_stamped t nt (t.commit_seq + 1)

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
let make ?(page_size = Page.default_size) ?wal_path ?(synchronous = true) ?ordered_on
    ~wal ~store ~order schema =
  let ordered_position =
    Option.map (fun attribute -> Schema.position schema attribute) ordered_on
  in
  {
    schema;
    order;
    store;
    page_size;
    heap = Heap.create ~page_size ();
    index = Index.create ();
    rids = Ntuple_table.create 256;
    versions = Ntuple_table.create 256;
    dead = Rid_set.empty;
    ordered_on = ordered_position;
    btree = Option.map (fun _ -> Btree.create ()) ordered_position;
    wal;
    wal_path;
    sync_on_commit = synchronous;
    health = Healthy;
    commit_seq = 0;
    ledger = { writes = Tuple_table.create 256; entries = 0 };
    txn = None;
  }

let create ?page_size ?wal_path ?synchronous ?ordered_on ~order schema =
  make ?page_size ?wal_path ?synchronous ?ordered_on
    ~wal:(Option.map Wal.open_log wal_path)
    ~store:(Update.Store.create ~order schema)
    ~order schema

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

(* Fold a replayed entry stream into its committed effects: each
   autocommit entry is a group of its own, transactional ops buffer
   per txid and surface as one group at their Txn_commit, and anything
   whose commit never landed — an explicit Txn_abort, or a buffer
   still open at end of log (a torn transaction) — is discarded.
   Discarded ops are correct rollback, not data loss. Every group holds
   only Insert/Delete entries and counts as one commit.

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
  groups : Wal.entry list list;
  discarded_ops : int;  (* every discarded op: aborts, torn, manifest *)
  crash_discards : (int * int) list;  (* (txid, ops) torn or non-durable *)
}

let no_log = { groups = []; discarded_ops = 0; crash_discards = [] }

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
        | Wal.Insert _ | Wal.Delete _ -> Some [ entry ]
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
              Some (List.rev !ops)
            | None -> Some []))
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

(* Apply committed groups, in order, to a flat fact set. An entry that
   cannot apply — a delete of an absent tuple (its insert was lost), or
   a tuple that does not fit the schema (debris that passed a legacy
   checksum) — is corruption under [~strict], since the log is the
   source of truth; otherwise it is skipped and counted. Returns the
   net facts and the (applied, skipped) entry counts. *)
let fold_log ~strict ~context base groups =
  let applied = ref 0 and skipped = ref 0 in
  let cannot_apply facts reason =
    if strict then Storage_error.corrupt ~context ~offset:0 reason;
    incr skipped;
    facts
  in
  let apply facts entry =
    match entry with
    | Wal.Insert tuple -> (
      match Relation.add facts tuple with
      | facts ->
        incr applied;
        facts
      | exception Schema.Schema_error reason -> cannot_apply facts reason)
    | Wal.Delete tuple when Relation.mem facts tuple ->
      incr applied;
      Relation.remove facts tuple
    | _ -> cannot_apply facts "WAL deletes a tuple that is not present"
  in
  let facts = List.fold_left (List.fold_left apply) base groups in
  (facts, !applied, !skipped)

(* Lay a canonical NFR out in a fresh heap, index and B+-tree: one
   record per tuple, none dead, each stamped with [stamp nt]. *)
let lay_out t ~stamp canonical =
  Obs.Registry.add_gauge Obs.Registry.global "storage.live_tuples"
    (-.float_of_int (Ntuple_table.length t.rids));
  t.heap <- Heap.create ~page_size:t.page_size ();
  t.index <- Index.create ();
  t.rids <- Ntuple_table.create 256;
  t.versions <- Ntuple_table.create 256;
  t.dead <- Rid_set.empty;
  t.btree <- Option.map (fun _ -> Btree.create ()) t.ordered_on;
  Nfr.iter (fun nt -> physical_add_stamped t nt (stamp nt)) canonical

(* Every load and recovery builds here, in one canonical pass. V_P is
   unique and independent of the order tuples were composed in
   (Theorem 2), so a table is fully determined by its net flat
   relation: fold the committed log onto the base facts, nest once,
   and write each canonical tuple to the heap once. That costs
   O(|base| + |log|) plus one nest — not one Sec. 4 update per fact —
   and leaves no dead record behind. It also re-canonicalises a
   tampered snapshot, whose stored tuples are only used for their
   facts.

   The sequence is the one a fact-by-fact replay reaches: a non-empty
   base is commit 1 and each group one more. Every image is stamped
   with the last of them — it was committed at or before it. The WAL is
   opened from [scan], the recovery's one read of it, when given. *)
let build ?page_size ?wal_path ?scan ?synchronous ?ordered_on ~strict ~context ~order base
    groups =
  let facts, applied, skipped = fold_log ~strict ~context base groups in
  let canonical = Nest.canonical facts order in
  let wal =
    Option.map
      (fun path ->
        match scan with Some scan -> Wal.open_scanned path scan | None -> Wal.open_log path)
      wal_path
  in
  let t =
    make ?page_size ?wal_path ?synchronous ?ordered_on ~wal
      ~store:(Update.Store.of_nfr ~order canonical)
      ~order (Relation.schema base)
  in
  t.commit_seq <- (if Relation.is_empty base then 0 else 1) + List.length groups;
  lay_out t ~stamp:(fun _ -> t.commit_seq) canonical;
  (t, applied, skipped)

let load ?page_size ?wal_path ?synchronous ?ordered_on ~order flat =
  let t, _, _ =
    build ?page_size ?wal_path ?synchronous ?ordered_on ~strict:true ~context:"Table.load"
      ~order flat []
  in
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

(* A WAL at or below the snapshot's generation predates it: its entries
   are already folded into the snapshot (the crash window between
   save_snapshot and the checkpoint's truncation), so replaying them
   would double-apply. Retire such a log by truncating it past the
   snapshot's generation: left as it is, the next write would land in a
   log the next recovery skips as stale again. *)
let is_stale ~generation scan = generation > 0 && scan.Wal.generation <= generation

let retire_stale t ~generation = Option.iter (Wal.truncate ~past:generation) t.wal

(* Every recovery: a base (a parsed snapshot, or the empty relation at
   generation 0) plus [scan], the one read of its WAL. A strict
   recovery refuses mid-log damage and inapplicable entries; a salvage
   one skips and counts them. Uncommitted transactional tails are
   folded away before the build and counted apart from the skipped
   entries: discarding them is the contract, not damage. *)
let recover_onto ?page_size ?wal_path ?synchronous ?ordered_on ?durable ~strict ~context
    ~snapshot_status (generation, order, base) scan =
  let stale = Option.fold ~none:false ~some:(is_stale ~generation) scan in
  let folded =
    match scan with
    | Some scan when not stale ->
      fold_committed ?durable (if strict then Wal.clean_entries scan else scan.Wal.entries)
    | Some _ | None -> no_log
  in
  let t, applied, skipped_ops =
    build ?page_size ?wal_path ?scan ?synchronous ?ordered_on ~strict ~context ~order base
      folded.groups
  in
  if stale then retire_stale t ~generation;
  ( t,
    {
      wal_salvage = scan;
      snapshot_status;
      stale_wal = stale;
      applied;
      skipped_ops;
      discarded_txn_ops = folded.discarded_ops;
      discarded_txns = folded.crash_discards;
    } )

let salvaged (t, report) =
  degrade_if_lossy t report;
  (t, report)

let recover ?page_size ?synchronous ?ordered_on ?durable ~wal_path ~order schema =
  fst
    (recover_onto ?page_size ~wal_path ?synchronous ?ordered_on ?durable ~strict:true
       ~context:"Table.recover" ~snapshot_status:`None_requested
       (0, order, Relation.empty schema)
       (Some (Wal.replay_salvage wal_path)))

let recover_salvage ?page_size ?synchronous ?ordered_on ?durable ~wal_path ~order
    schema =
  Obs.Span.with_span Obs.Span.Salvage wal_path @@ fun _ ->
  Obs.Registry.incr Obs.Registry.global "wal.recover_salvage_total";
  salvaged
    (recover_onto ?page_size ~wal_path ?synchronous ?ordered_on ?durable ~strict:false
       ~context:"Table.recover_salvage" ~snapshot_status:`None_requested
       (0, order, Relation.empty schema)
       (Some (Wal.replay_salvage wal_path)))

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
    let journal = Update.Store.insert_journaled t.store tuple in
    apply_journal t journal;
    note_commit t [ tuple ];
    journal <> []
  end

let delete t tuple =
  require_writable t;
  require_no_txn t "Table.delete";
  if not (Update.Store.member t.store tuple) then raise Update.Not_in_relation;
  log_durably ~sync:true t (Wal.Delete tuple);
  apply_journal t (Update.Store.delete_journaled t.store tuple);
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
  (* A compact changes the physical layout, not the commit history:
     carry the images' stamps over rather than restamping them. *)
  let stamps = t.versions in
  lay_out t
    ~stamp:(fun nt ->
      Option.value (Ntuple_table.find_opt stamps nt) ~default:(t.commit_seq + 1))
    (snapshot t)

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
  (* The new snapshot must be on disk before the rename publishes it,
     and the rename before the caller truncates the WAL it covers: a
     power cut must never leave a truncated log behind an empty or
     old snapshot. *)
  let write_synced data =
    Out_channel.with_open_bin temp (fun oc ->
        Out_channel.output_string oc data;
        Out_channel.flush oc;
        let fd = Unix.descr_of_out_channel oc in
        match Failpoint.on_sync "snapshot.sync" with
        | Failpoint.Proceed -> Unix.fsync fd
        | Failpoint.Power_cut ->
          (* Power lost before the fsync: none of the bytes landed. *)
          Unix.ftruncate fd 0;
          raise (Failpoint.Crashed "snapshot.sync"))
  in
  (match Failpoint.on_write "snapshot.body" (Buffer.contents file) with
  | Failpoint.Full data -> write_synced data
  | Failpoint.Dropped -> write_synced ""
  | Failpoint.Partial prefix ->
    Out_channel.with_open_bin temp (fun oc -> Out_channel.output_string oc prefix);
    raise (Failpoint.Crashed "snapshot.body"));
  Obs.Span.set_bytes snapshot_span (String.length payload);
  Failpoint.hit "snapshot.rename";
  Sys.rename temp path;
  let dir = Unix.openfile (Filename.dirname path) [ Unix.O_RDONLY ] 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close dir)
    (fun () -> try Unix.fsync dir with Unix.Unix_error _ -> ())

(* Parse a snapshot file into (WAL generation, nest order, flat facts),
   raising typed errors on any damage; integrity is checked before
   anything is built. The stored tuples are only read for their facts:
   [build] re-nests them, so a tampered snapshot comes back canonical. *)
let parse_snapshot contents =
  let context = "Table.load_snapshot" in
  let generation, bytes =
    if
      String.length contents >= String.length snapshot_magic + 4
      && String.sub contents 0 (String.length snapshot_magic) = snapshot_magic
    then begin
      let body_length = String.length contents - String.length snapshot_magic - 4 in
      let stored = read_le32 contents (String.length contents - 4) in
      let payload = String.sub contents (String.length snapshot_magic) body_length in
      if Crc32.digest payload <> stored then
        Storage_error.corrupt ~context ~offset:(String.length contents - 4)
          "checksum mismatch (torn or bit-flipped snapshot)";
      let bytes = Bytes.of_string payload in
      let generation, offset = Codec.decode_varint bytes 0 in
      (generation, (bytes, offset))
    end
    else (0, (Bytes.of_string contents, 0))
  in
  let bytes, start = bytes in
  let degree, offset = Codec.decode_varint bytes start in
  if degree = 0 then Storage_error.corrupt ~context ~offset:start "empty schema";
  if degree < 0 || degree > Bytes.length bytes - offset then
    Storage_error.corrupt ~context ~offset:start "schema degree exceeds snapshot size";
  let columns = ref [] in
  let offset = ref offset in
  for _ = 1 to degree do
    let name, next = decode_string bytes !offset in
    let tag, next = Codec.decode_varint bytes next in
    columns := (name, ty_of_tag ~offset:next tag) :: !columns;
    offset := next
  done;
  let order = ref [] in
  for _ = 1 to degree do
    let name, next = decode_string bytes !offset in
    order := Attribute.make name :: !order;
    offset := next
  done;
  let count, next = Codec.decode_varint bytes !offset in
  if count < 0 || count > Bytes.length bytes - next then
    Storage_error.corrupt ~context ~offset:!offset "tuple count exceeds snapshot size";
  offset := next;
  match Schema.of_names (List.rev !columns) with
  | exception Schema.Schema_error reason -> Storage_error.corrupt ~context ~offset:0 reason
  | schema ->
    let facts = ref (Relation.empty schema) in
    for _ = 1 to count do
      let nt, next = Codec.decode_ntuple bytes !offset in
      offset := next;
      List.iter
        (fun tuple ->
          match Relation.add !facts tuple with
          | added -> facts := added
          | exception Schema.Schema_error reason ->
            Storage_error.corrupt ~context ~offset:next reason)
        (Ntuple.expand nt)
    done;
    (generation, List.rev !order, !facts)

let read_snapshot path = In_channel.with_open_bin path In_channel.input_all

let load_snapshot ?page_size ?wal_path ?synchronous ?ordered_on ?durable path =
  Obs.Span.with_span Obs.Span.Snapshot_load path @@ fun _ ->
  Obs.Registry.incr Obs.Registry.global "snapshot.load_total";
  let parsed = parse_snapshot (read_snapshot path) in
  fst
    (recover_onto ?page_size ?wal_path ?synchronous ?ordered_on ?durable ~strict:true
       ~context:"Table.load_snapshot" ~snapshot_status:`Loaded parsed
       (Option.map Wal.replay_salvage wal_path))

let load_snapshot_salvage ?page_size ?wal_path ?synchronous ?ordered_on ?durable
    path =
  Obs.Span.with_span Obs.Span.Salvage path @@ fun _ ->
  Obs.Registry.incr Obs.Registry.global "snapshot.salvage_total";
  let scan = Option.map Wal.replay_salvage wal_path in
  match parse_snapshot (read_snapshot path) with
  | parsed ->
    salvaged
      (recover_onto ?page_size ?wal_path ?synchronous ?ordered_on ?durable ~strict:false
         ~context:"Table.load_snapshot_salvage" ~snapshot_status:`Loaded parsed scan)
  | exception ((Storage_error.Error _ | Sys_error _) as error) ->
    (* A corrupt snapshot leaves us without a schema to recover into;
       the caller owns the schema in that situation and should use
       [recover_salvage] — signalled through the report. *)
    let snapshot_status =
      match error with
      | _ when not (Sys.file_exists path) -> `Absent
      | Storage_error.Error err -> `Corrupt (Storage_error.to_string err)
      | _ -> `Corrupt "snapshot file unreadable"
    in
    salvaged
      ( create ?page_size ~order:[ Attribute.make "_" ] (Schema.strings [ "_" ]),
        { wal_salvage = scan; snapshot_status; stale_wal = false; applied = 0;
          skipped_ops = 0; discarded_txn_ops = 0; discarded_txns = [] } )

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
