(** A live NFR table: canonical maintenance + physical storage + WAL.

    Combines the three layers this library builds:

    - logic: {!Nfr_core.Update.Store} keeps the relation canonical
      under inserts/deletes (Sec. 4 algorithms, postings-indexed);
    - physical: every current NFR tuple lives in a {!Heap} record with
      {!Index} postings; updates tombstone dead records and append new
      ones (journal-driven), {!compact} rebuilds when the dead ratio
      grows;
    - durability: a logical {!Wal}; {!recover} rebuilds from it, so a
      crash loses at most the unfinished entry.

    Every load and recovery ({!load}, {!recover}, {!load_snapshot} and
    their salvage variants) builds in one canonical pass: the
    committed log is folded onto the base's flat facts, the result is
    nested once ([V_P] is unique, Theorem 2) and each canonical tuple
    is written to the heap once. Recovery therefore costs
    O(|snapshot facts| + |log|) plus one nest pass, not one Sec. 4
    update per fact, and leaves no dead record. {!compact} lays the
    live tuples out the same way.

    The heap/index are in-memory stand-ins for disk blocks (as in
    {!Engine}); durability comes solely from the WAL.

    {2 Failure model}

    Durability failures never leave the table half-updated: the WAL
    append happens strictly before any logical or physical mutation,
    and when it fails (closed handle, I/O error) the table transitions
    to the read-only {!constructor-Degraded} health state with the
    in-memory layers still mutually consistent; the write raises
    {!Storage_error.Error}. Recovery from damaged media goes through
    {!recover_salvage}/{!load_snapshot_salvage}, which never raise on
    corruption — they skip what cannot be replayed and return a
    {!recovery_report}; a lossy recovery also lands Degraded.
    {!check_invariants} cross-validates the canonical store against
    the heap, the postings index and the B+-tree. *)

open Relational
open Nfr_core

type t

(** Health of the durability layer. A [Degraded] table serves reads
    but rejects {!insert}/{!delete}/{!checkpoint} with
    {!Storage_error.Error}[ (Degraded _)]. *)
type health =
  | Healthy
  | Degraded of string  (** reason recorded at the transition *)

val create :
  ?page_size:int ->
  ?wal_path:string ->
  ?synchronous:bool ->
  ?ordered_on:Attribute.t ->
  order:Attribute.t list ->
  Schema.t ->
  t
(** An empty table. With [wal_path], every update is logged before it
    is applied; with [ordered_on], a {!Btree} over that attribute's
    component values is maintained and {!range} becomes available.

    [synchronous] (default [true]) makes every commit point fsync
    ({!Wal.sync}) before returning — an embedded caller's
    acknowledgement is durable against power loss. Pass
    [~synchronous:false] to run group commit instead: appends stop at
    the OS page cache and a scheduler (the server's event loop) must
    call {!sync_wal} before acknowledging; see {!wal_unsynced}. *)

val load :
  ?page_size:int ->
  ?wal_path:string ->
  ?synchronous:bool ->
  ?ordered_on:Attribute.t ->
  order:Attribute.t list ->
  Relation.t ->
  t
(** Bulk-load a flat relation (canonicalized; not logged — a bulk load
    is its own checkpoint). *)

val recover :
  ?page_size:int ->
  ?synchronous:bool ->
  ?ordered_on:Attribute.t ->
  ?durable:(int -> bool) ->
  wal_path:string ->
  order:Attribute.t list ->
  Schema.t ->
  t
(** Rebuild from the WAL alone: its committed entries, folded onto an
    empty relation, nested once. The WAL is read and CRC-checked once
    and the table appends to it afterwards. {!commit_seq} is the
    number of committed groups (autocommit ops and transactions).

    [durable] is the global-commit-manifest check: when given, every
    per-table [Txn_commit] is treated as {e provisional} and its group
    only survives when [durable txid] holds — i.e. when the commit
    manifest carries a synced record for the transaction. Build it
    from {!Manifest.durable} so a crash between one table's commit
    append and the manifest sync rolls the transaction back in {e
    every} participating table, not just the ones whose commit record
    was lost. Without [durable] the per-table commit record remains
    the commit point (pre-manifest behaviour).
    @raise Storage_error.Error on mid-log corruption or a delete of an
    absent tuple — use {!recover_salvage} to recover around damage. *)

(** What a salvage recovery found and did. *)
type recovery_report = {
  wal_salvage : Wal.salvage option;  (** [None] when no WAL was involved *)
  snapshot_status : [ `Loaded | `Absent | `Corrupt of string | `None_requested ];
  stale_wal : bool;
      (** the WAL predates the snapshot (crash between
          {!save_snapshot} and the checkpoint's truncation) and was
          skipped *)
  applied : int;  (** WAL entries applied *)
  skipped_ops : int;  (** WAL entries that could not be applied *)
  discarded_txn_ops : int;
      (** transactional ops whose commit never became durable (torn
          transaction, explicit abort, or a provisional commit with no
          manifest record) — rolled back by design, not loss, so they
          never degrade the table *)
  discarded_txns : (int * int) list;
      (** per-transaction breakdown of the {e crash} discards:
          [(txid, ops)] for every group rolled back because the log
          tore before its commit record or because its manifest record
          never synced. Explicit aborts are not listed — they are user
          rollback, not crash cost. Aggregating this field across a
          database's tables is the cross-table audit of what a crash
          rolled back where. *)
}

val recover_salvage :
  ?page_size:int ->
  ?synchronous:bool ->
  ?ordered_on:Attribute.t ->
  ?durable:(int -> bool) ->
  wal_path:string ->
  order:Attribute.t list ->
  Schema.t ->
  t * recovery_report
(** Like {!recover} but never raises on damage: mid-log corruption is
    skipped frame by frame ({!Wal.replay_salvage}) and inapplicable
    entries are counted rather than fatal. A lossy recovery leaves the
    table {!constructor-Degraded} (read-only); {!check_invariants}
    holds either way. *)

val health : t -> health

val check_invariants : t -> bool
(** Cross-layer audit: the canonical store, the rid map, the heap
    records, the postings index and the B+-tree all describe the same
    relation (every live NFR tuple decodes from its heap record, is
    indexed under each of its component values, and is absent from the
    tombstone set; B+-tree structural invariants hold). *)

val close : t -> unit

val schema : t -> Schema.t
val nest_order : t -> Attribute.t list
val ordered_attribute : t -> Attribute.t option
(** The attribute carrying the B+-tree, if any. *)

val posting_size : t -> Attribute.t -> Value.t -> int
(** Selectivity statistic: how many heap records (live or tombstoned)
    the inverted index lists for this (attribute, value). Free of
    charge — used by the physical planner to rank candidate probes. *)

val insert : t -> Tuple.t -> bool
(** Logs, updates the canonical store, mirrors the journal onto the
    heap/index, and commits (advancing {!commit_seq}). [false] (and no
    log entry) on duplicates.
    @raise Storage_error.Error [(Degraded _)] when the table is (or
    this call's durability failure leaves it) degraded; the logical
    and physical layers are untouched in that case.
    @raise Invalid_argument while a storage transaction is open. *)

val delete : t -> Tuple.t -> unit
(** @raise Update.Not_in_relation when absent (nothing is logged).
    @raise Storage_error.Error [(Degraded _)] as for {!insert}.
    @raise Invalid_argument while a storage transaction is open. *)

(** {2 Storage-level transactions}

    The atomic unit under the executor's MVCC layer: ops between
    {!begin_txn} and {!commit_txn} are logged as txn records
    ([Txn_begin] .. [Txn_insert]/[Txn_delete] .. [Txn_commit]) and
    replayed all-or-nothing by recovery — a log that ends before the
    commit record (crash mid-transaction) has the whole group
    discarded, and an explicit {!abort_txn} both undoes the in-memory
    effects (journal inversion) and logs [Txn_abort]. One storage
    transaction may be open per table at a time; autocommit
    {!insert}/{!delete} are rejected while it is. Each committed op —
    autocommit or transactional — stamps the NFR images it creates
    with the commit sequence, and the flat tuples it wrote are
    remembered in a ledger so {!modified_since} can answer
    first-committer-wins visibility checks. The ledger grows with
    every commit; an MVCC layer on top should {!prune_ledger} below
    the oldest live snapshot it still tracks. *)

val commit_seq : t -> int
(** Number of commits applied to this table instance (bulk loads count
    as commit 1). A recovered table counts a non-empty snapshot as
    commit 1 and each committed WAL group as one more, and stamps every
    recovered image ({!version_of}) with that last sequence. *)

val in_txn : t -> bool

val version_of : t -> Ntuple.t -> int option
(** The commit sequence stamped on a live NFR image, [None] when the
    tuple is not live. *)

val modified_since : t -> seq:int -> Tuple.t -> bool
(** Has any commit after [seq] written (inserted or deleted) this flat
    tuple? The first-committer-wins check: a transaction whose
    snapshot was taken at [seq] must abort if a tuple it wrote
    satisfies this. One hash probe — the ledger is indexed by tuple,
    so a COMMIT validates in O(writes), independent of how many other
    commits the ledger still retains. *)

val prune_ledger : t -> below:int -> unit
(** Drop ledger entries at or below [below] — safe once no live
    snapshot is older than that sequence. *)

val ledger_size : t -> int
(** Number of retained [(tuple, commit seq)] ledger entries. O(1). *)

val begin_txn : t -> txid:int -> unit
(** Log [Txn_begin] and open the storage transaction.
    @raise Invalid_argument when one is already open.
    @raise Storage_error.Error [(Degraded _)] as for {!insert}. *)

val txn_insert : t -> txid:int -> Tuple.t -> bool
(** {!insert} within the open transaction: logged as [Txn_insert],
    applied immediately, undone by {!abort_txn} or a commit-less log.
    @raise Invalid_argument when transaction [txid] is not open. *)

val txn_delete : t -> txid:int -> Tuple.t -> unit
(** @raise Update.Not_in_relation when absent (nothing is logged). *)

val commit_txn : t -> txid:int -> int
(** Log [Txn_commit], advance and return {!commit_seq}, and enter the
    transaction's writes into the ledger. On a standalone table this
    makes the group durable: recovery replays it atomically. Under a
    global commit manifest the record is only {e provisional} — the
    transaction is durable once its {!Manifest.append} record syncs,
    and recovery with a [durable] check discards provisional commits
    the manifest never acknowledged. *)

val abort_txn : t -> txid:int -> unit
(** Undo every applied op (inverted journals, applied newest-first),
    close the transaction and log [Txn_abort]. The in-memory layers
    are restored even when logging the abort record fails (the table
    degrades; recovery discards the commit-less tail regardless). *)

val member : t -> Tuple.t -> bool
val snapshot : t -> Nfr.t
val cardinality : t -> int
(** Current number of NFR tuples. *)

val fact_count : t -> int
(** Number of flat facts ([R*] cardinality). *)

val lookup : t -> stats:Stats.t -> Attribute.t -> Value.t -> Ntuple.t list
(** Indexed containment lookup against the physical store (tombstoned
    records are skipped but charged as index probes). *)

val scan : t -> stats:Stats.t -> (Ntuple.t -> unit) -> unit
(** Full heap scan over live records. *)

val range : t -> stats:Stats.t -> lo:Value.t -> hi:Value.t -> Ntuple.t list
(** NFR tuples whose ordered component holds a value in
    [\[lo, hi\]], each returned once, via the B+-tree.
    @raise Invalid_argument when the table has no ordered index. *)

(** {2 Pull-based cursors}

    Each cursor is a [unit -> Ntuple.t option] thunk returning the
    next live tuple (or [None] when exhausted), charging the given
    stats exactly as the materializing variant would — but one tuple
    per pull, so a pipelined consumer holds O(1) decoded tuples. The
    table must not be mutated while a cursor is live. *)

val scan_cursor : t -> stats:Stats.t -> unit -> Ntuple.t option
(** Streaming {!scan}. *)

val lookup_cursor :
  t -> stats:Stats.t -> Attribute.t -> Value.t -> unit -> Ntuple.t option
(** Streaming {!lookup}: the index probe happens at creation, heap
    fetches and decoding happen lazily per pull. *)

val range_cursor :
  t ->
  stats:Stats.t ->
  ?lo:Value.t ->
  ?hi:Value.t ->
  ?lo_incl:bool ->
  ?hi_incl:bool ->
  unit ->
  unit ->
  Ntuple.t option
(** Streaming {!range}, with either bound optional (open-ended
    one-sided ranges walk the leaf chain from the leftmost leaf or to
    its end) and either bound strict when its [_incl] flag is [false]
    (the boundary group is skipped in the B+-tree, never fetched).
    Each matching tuple is returned once.
    @raise Invalid_argument when the table has no ordered index. *)

val live_records : t -> int
val dead_records : t -> int
val pages : t -> int

val pool : t -> Bufpool.t
(** The heap's buffer pool (reset when {!compact} rebuilds the heap). *)

val pool_hit_rate : t -> float
(** Observed buffer-pool hit rate of this table's heap — the planner
    prices repeated index probes below a cold scan with it. *)

(** {2 Group commit} *)

val sync_wal : t -> unit
(** Fsync the table's WAL ({!Wal.sync}); a no-op without a WAL or when
    nothing is pending. The group-commit barrier: once this returns,
    every previously appended entry is durable and the deferred
    acknowledgements it covers may be released.
    @raise Storage_error.Error [(Degraded _)] on an fsync failure (the
    table degrades, exactly as for a failed append). *)

val wal_unsynced : t -> int
(** Bytes appended to the WAL but not yet covered by a sync; 0 without
    a WAL. What the group-commit scheduler polls to find dirty logs. *)

val compact : t -> unit
(** Rebuild heap and index from the live snapshot, dropping
    tombstones. *)

val checkpoint : t -> unit
(** {!compact} and truncate the WAL (bumping its generation). Pair
    with {!save_snapshot} first — after a checkpoint the WAL alone
    replays to an empty table. A crash between the two is safe: the
    snapshot records the pre-truncation generation, so recovery
    recognizes the old log as stale instead of double-applying it. *)

val save_snapshot : t -> string -> unit
(** Serialize schema, nest order and every NFR tuple to a file
    (binary, via {!Codec}), atomically: the bytes (with a magic header
    and CRC-32 trailer) go to [path ^ ".tmp"] and are renamed into
    place, so a crash mid-save leaves any previous snapshot intact.
    The file is fsynced before the rename and its directory after it,
    so once this returns the snapshot survives a power cut and the
    WAL it covers may be truncated. *)

val load_snapshot :
  ?page_size:int ->
  ?wal_path:string ->
  ?synchronous:bool ->
  ?ordered_on:Attribute.t ->
  ?durable:(int -> bool) ->
  string ->
  t
(** Rebuild a table from {!save_snapshot} output, then replay
    [wal_path] (if given) on top — the full recovery story: snapshot
    at the last checkpoint + the log since. A WAL whose generation is
    at or below the snapshot's is stale (already folded in): it is
    skipped, and truncated past the snapshot's generation so later
    writes land in a log the next recovery replays. The snapshot's
    stored tuples are only read for their facts and re-nested, so a
    tampered snapshot comes back canonical. Legacy un-checksummed
    snapshots still load.
    @raise Storage_error.Error on a torn, bit-flipped or otherwise
    malformed snapshot, or on an inapplicable WAL entry. *)

val load_snapshot_salvage :
  ?page_size:int ->
  ?wal_path:string ->
  ?synchronous:bool ->
  ?ordered_on:Attribute.t ->
  ?durable:(int -> bool) ->
  string ->
  t * recovery_report
(** Best-effort {!load_snapshot}: a corrupt or missing snapshot is
    reported (not raised) and recovery falls back to an empty
    placeholder table — check [snapshot_status] and rerun
    {!recover_salvage} with the authoritative schema in that case;
    WAL damage and inapplicable entries are skipped and counted as in
    {!recover_salvage}. *)
