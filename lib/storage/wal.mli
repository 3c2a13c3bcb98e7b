(** A logical write-ahead log.

    Records the {e user-level} operations (insert/delete of one flat
    tuple) rather than physical effects — which is exactly what makes
    logical logging cheap for NFRs: entries are tuple-sized no matter
    how large the touched groups were, and recovery folds them onto
    the snapshot's facts and nests once (see {!Table}).

    {2 On-disk format}

    v1 files start with a header (magic ["NF2WALv1"] + a varint
    {e generation}) and hold frames of [0xA7 marker, varint length,
    payload, CRC-32]. The generation increments on every truncation
    ({!reset}/{!truncate}); {!Table.save_snapshot} records it, which
    is how recovery distinguishes a fresh post-checkpoint log from a
    stale pre-checkpoint one. The legacy v0 format (no header, 1-byte
    additive checksum) is still replayed transparently, and
    {!open_log} keeps appending v0 frames to a v0 file so a single
    log never mixes formats.

    {2 Durability contract}

    {!append} is {e buffered}: the frame reaches the OS page cache
    (a stdlib flush), which survives process death but not power
    loss. {!sync} is the durability barrier — a real [Unix.fsync] —
    and is what an acknowledgement must wait for. The split is what
    makes group commit possible: many appends, one [fsync].

    Appends and syncs are threaded through {!Failpoint} sites
    (["wal.append.before"], ["wal.append.frame"],
    ["wal.append.after"], ["wal.sync.before"], ["wal.sync.after"],
    ["wal.reset"]), so the crash matrix can inject torn writes, bit
    flips, lost flushes, power cuts that drop unsynced bytes, and
    crashes at every step and verify recovery. *)

open Relational

type entry =
  | Insert of Tuple.t  (** autocommit insert (legacy tag; replays as its own txn) *)
  | Delete of Tuple.t  (** autocommit delete *)
  | Txn_begin of int  (** open transaction [txid] *)
  | Txn_insert of int * Tuple.t  (** insert within transaction [txid] *)
  | Txn_delete of int * Tuple.t  (** delete within transaction [txid] *)
  | Txn_commit of int  (** transaction [txid] committed — its ops are durable *)
  | Txn_abort of int  (** transaction [txid] rolled back — discard its ops *)
  | View_def of { view : string; base : string; by : string list }
      (** view-catalog record: [view] materializes [base] nested by
          the named partition attributes. Lives in the views catalog
          log, never in a table log; view {e contents} are not logged —
          recovery rematerializes by renesting the recovered base. *)
  | View_drop of string  (** view-catalog record: the view was dropped *)
  | Manifest_commit of { txid : int; tables : (string * int) list }
      (** global-commit-manifest record: transaction [txid] committed
          across [tables], claiming the paired commit sequence in each.
          Lives only in the [_commit.wal] manifest log; a per-table
          [Txn_commit] is {e provisional} until the manifest record
          that names it is synced. *)

type format = V0  (** legacy: unframed, 1-byte additive checksum *)
            | V1  (** current: header + marker/CRC-32 frames *)

type t
(** An open log handle (append mode). *)

val open_log : string -> t
(** Opens (creating if absent) for appending. A fresh file gets a v1
    header at generation 1; an existing v0 file stays v0. A torn final
    frame (crash debris) is trimmed back to the last frame boundary so
    new appends never land mid-log behind it. *)

val generation : t -> int
(** The log's current generation (0 for legacy v0 files). *)

val append : t -> entry -> unit
(** Encode, frame, write, flush to the OS page cache. {b Not} durable
    against power loss until a following {!sync} covers it.
    @raise Storage_error.Error [(Closed _)] after {!close}.
    @raise Failpoint.Crashed when an armed fault fires at one of the
    append sites (simulated process death — the handle is unusable). *)

val sync : t -> unit
(** The durability barrier: flush then [Unix.fsync]. Every byte
    appended before the call is on the platter when it returns; a
    no-op when nothing new was appended since the last sync.
    @raise Storage_error.Error [(Closed _)] after {!close}.
    @raise Failpoint.Crashed when an armed fault fires at a
    ["wal.sync.*"] site ({!Failpoint.Lose_unsynced} additionally
    truncates the file back to the durable watermark first —
    simulated power loss). *)

val unsynced_bytes : t -> int
(** Bytes appended since the last {!sync} (0 when fully durable) —
    what a group-commit scheduler polls to find dirty logs. *)

val close : t -> unit
(** Flush, fsync (best effort), and close the handle. *)

val encode_entry : entry -> string
(** The frame payload for one entry — the same bytes {!append} frames.
    Exposed so replication can ship entries over the wire protocol in
    the exact on-disk encoding. *)

val decode_entry : string -> entry
(** Inverse of {!encode_entry}.
    @raise Storage_error.Error on a truncated or unknown payload. *)

val replay : string -> entry list
(** All complete entries in write order; the empty list when the file
    does not exist. Silently drops a trailing partial/corrupt entry
    (crash semantics), but
    @raise Storage_error.Error when corruption is followed by a later
    valid frame (torn middle — a real error). Use {!replay_salvage}
    to recover around mid-log damage instead. *)

(** The structured result of a salvage scan. *)
type salvage = {
  entries : entry list;  (** every decodable entry, in write order *)
  format : format;
  generation : int;  (** 0 for v0 or when the header is unreadable *)
  scanned_bytes : int;  (** file size *)
  bytes_skipped : int;  (** mid-log debris skipped over *)
  first_bad_offset : int option;
      (** first offset at which frame parsing failed, including a torn
          tail; [None] iff the file parsed cleanly end to end *)
  torn_tail_bytes : int;
      (** trailing bytes dropped as crash debris (no later valid frame) *)
}

val replay_salvage : string -> salvage
(** Scan-ahead salvage: never raises on corrupt input. On a bad frame
    it scans forward for the next structurally valid, CRC-checked
    frame, counts the skipped bytes, and carries on; trailing debris
    is reported as a torn tail. A missing file yields an empty clean
    report. *)

val clean_entries : salvage -> entry list
(** A scan's entries under {!replay}'s contract ([replay path] is
    [clean_entries (replay_salvage path)]).
    @raise Storage_error.Error when the scan skipped mid-log damage. *)

val open_scanned : string -> salvage -> t
(** {!open_log} for a file already scanned: [salvage] must be the
    {!replay_salvage} of the file as it is now. Recovery scans each
    log once and opens it from that scan instead of decoding it a
    second time. *)

val reset : string -> unit
(** Truncate the log to an empty v1 file at the next generation
    (after a checkpoint). Safe to call on a path whose handle is
    still open {e only} for v1 handles — the open handle appends in
    v1 framing past the rewritten header. For a handle-aware
    truncation (and the only correct way to reset a v0-format
    handle), use {!truncate}. *)

val truncate : ?past:int -> t -> unit
(** Truncate through the handle: bumps the generation, rewrites the
    header, and re-points the handle (upgrading a v0 handle to v1).
    With [~past:g] the new generation is above [g] as well, in one
    rewrite (retiring a log a snapshot at generation [g] made stale).
    @raise Storage_error.Error [(Closed _)] after {!close}. *)
