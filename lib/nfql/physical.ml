open Relational
open Nfr_core

let error fmt = Compile.error fmt

module String_map = Map.Make (String)

module Ntuple_tbl = Hashtbl.Make (struct
  type t = Ntuple.t

  let equal = Ntuple.equal
  let hash = Ntuple.hash
end)

(* ------------------------------------------------------------------ *)
(* Plans                                                               *)
(* ------------------------------------------------------------------ *)

type bound = { b_value : Value.t; b_incl : bool }

type join_path = {
  jp_left : string;
  jp_right : string;
  jp_probe : Attribute.t option;  (* None: no shared attribute — product *)
  jp_outer : [ `Left | `Right ];
}

type access_path =
  | Via_scan
  | Via_index of Attribute.t * Value.t
  | Via_range of Attribute.t * bound option * bound option
  | Via_join of join_path

type candidate = {
  cand_path : access_path;
  cand_cost : float;
  cand_rows : float;
}

type plan = {
  plan_path : access_path;
  plan_rows : float;
  plan_candidates : candidate list;  (* empty on the legacy (no-stats) path *)
  plan_from_stats : bool;
}

type entry = {
  tbl : Storage.Table.t;
  mutable stats : Tablestats.t option;
  mutable writes : int;  (* since stats were last collected *)
}

type cache_slot = {
  slot_plan : plan;
  mutable slot_tick : int;  (* recency, for LRU eviction *)
}

(* One buffered write of an open transaction (flat-tuple level, the
   Sec. 4 unit). UPDATE decomposes into delete/insert pairs. *)
type txn_op =
  | Op_insert of Tuple.t
  | Op_delete of Tuple.t

(* A table as one transaction sees it: the committed NFR snapshotted at
   first touch (NFRs are persistent values, so this is O(1)) plus the
   transaction's own writes folded in, and the base commit sequence the
   first-committer-wins check validates against. *)
type txn_table = {
  tx_base_seq : int;
  tx_schema : Schema.t;
  tx_order : Attribute.t list;
  mutable tx_nfr : Nfr.t;
  mutable tx_ops : txn_op list;  (* newest first *)
}

type txn = {
  txn_id : int;
  mutable touched : txn_table String_map.t;
}

(* One replicated change, in commit order. [R_writes] is a committed
   group of base-table DML (the WAL-shipping payload: the same
   Insert/Delete entries the tables logged, already folded to their
   committed form); the others are DDL, shipped structurally so a
   replica replays them without reparsing statement text. *)
type repl_change =
  | R_writes of (string * Storage.Wal.entry list) list
  | R_create of { name : string; schema : Schema.t; order : Attribute.t list }
  | R_drop of string
  | R_create_view of { view : string; base : string; by : string list }
  | R_drop_view of string

type repl_event = {
  r_seq : int;  (* position in the primary's total commit order *)
  r_txid : int option;  (* Some for transactional groups *)
  r_time : float;  (* primary commit wall clock, for the lag gauge *)
  r_change : repl_change;
}

type db = {
  mutable tables : entry String_map.t;
  (* Pre-order (label, rows_out) of the last executed operator tree —
     the slow-query log snapshots it without re-running anything. *)
  mutable last_ops : (string * int) list;
  mutable last_est : (float * int) option;
  (* Statistics generation: bumped by ANALYZE, DDL and auto-refresh.
     Part of every plan-cache key, so stale plans miss naturally. *)
  mutable generation : int;
  mutable auto_threshold : int;
  cache : (Ast.select * int * int, cache_slot) Hashtbl.t;
  mutable cache_tick : int;
  mutable next_txid : int;
  mutable active : txn list;  (* open transactions across all sessions *)
  mutable default_session : session option;
  (* Materialized canonical views over the base tables, maintained
     incrementally at commit points; replaced wholesale by
     {!attach_views_wal} when the server recovers a durable catalog. *)
  mutable views : Views.Catalog.t;
  (* Where per-commit view deltas go (the server installs a queue that
     the select loop fans out to CDC subscribers). *)
  mutable cdc_sink : (Views.Catalog.event -> unit) option;
  (* The global commit manifest (_commit.wal): the single commit point
     for multi-table transactions. Per-table Txn_commit records are
     provisional once this is attached; a transaction is durable iff
     its manifest record is synced. *)
  mutable manifest : Storage.Manifest.t option;
  (* Whether the commit path fsyncs the manifest itself (embedded
     callers) or leaves it to the server's group-commit [sync_wal]. *)
  mutable manifest_synchronous : bool;
  (* Commit-ordered replication stream: every committed change is
     handed to the sink (the server queues them and ships to replica
     subscribers after the covering fsync). *)
  mutable repl_sink : (repl_event -> unit) option;
  mutable repl_seq : int;
  (* [Some reason] on a read replica: DML, DDL and BEGIN are refused
     with {!Read_only} until promotion clears it. The replication
     apply path writes through {!Storage.Table} directly and is not
     subject to it. *)
  mutable read_only : string option;
  (* Read-only system tables (_metrics, _slow_queries, _traces):
     provider closures installed by the server, resolved like views but
     re-materialized on every statement. *)
  sys : Systab.registry;
}

(* One client's execution context: the shared database plus that
   client's open transaction, if any. The server gives each connection
   its own session; the CLI and tests that call {!exec} directly share
   the database's default session. *)
and session = {
  sdb : db;
  mutable txn : txn option;
}

exception Conflict of string
exception Read_only of string

let cache_capacity = 128
let registry () = Obs.Registry.global

let create () =
  {
    tables = String_map.empty;
    last_ops = [];
    last_est = None;
    generation = 0;
    auto_threshold = 128;
    cache = Hashtbl.create 64;
    cache_tick = 0;
    next_txid = 1;
    active = [];
    default_session = None;
    views = Views.Catalog.create ();
    cdc_sink = None;
    manifest = None;
    manifest_synchronous = true;
    repl_sink = None;
    repl_seq = 0;
    read_only = None;
    sys = Systab.create ();
  }

let session db = { sdb = db; txn = None }

let default_session db =
  match db.default_session with
  | Some s -> s
  | None ->
    let s = session db in
    db.default_session <- Some s;
    s

let in_txn session = session.txn <> None
let session_db session = session.sdb
let active_txns db = List.length db.active

let last_profile db = db.last_ops
let last_estimate db = db.last_est
let generation db = db.generation
let set_auto_analyze_threshold db n = db.auto_threshold <- max 1 n
let bump_generation db = db.generation <- db.generation + 1

let is_view db name = Views.Catalog.mem db.views name
let catalog db = db.views
let set_cdc_sink db sink = db.cdc_sink <- Some sink
let set_repl_sink db sink = db.repl_sink <- Some sink
let repl_seq db = db.repl_seq
let read_only db = db.read_only

let set_read_only db reason = db.read_only <- reason

let require_primary db =
  match db.read_only with
  | Some reason -> raise (Read_only reason)
  | None -> ()

(* Install the global commit manifest. From here on every transaction
   commit appends (and, when [synchronous], fsyncs) a manifest record
   after its per-table commits; [sync_wal] orders the manifest sync
   after the table syncs. Txid allocation restarts above the largest
   manifest txid so a recycled txid can never match a stale record. *)
let attach_manifest ?(synchronous = true) db manifest =
  db.manifest <- Some manifest;
  db.manifest_synchronous <- synchronous;
  db.next_txid <- max db.next_txid (Storage.Manifest.max_txid manifest + 1)

let manifest db = db.manifest

let now_s () = Unix.gettimeofday ()

let emit_repl db ?txid change =
  match db.repl_sink with
  | None -> ()
  | Some sink ->
    db.repl_seq <- db.repl_seq + 1;
    sink { r_seq = db.repl_seq; r_txid = txid; r_time = now_s (); r_change = change }

let entries_of_view_ops ops =
  List.map
    (function
      | Views.Catalog.Ins t -> Storage.Wal.Insert t
      | Views.Catalog.Del t -> Storage.Wal.Delete t)
    ops
let is_system db name = Systab.find db.sys name <> None
let register_system_table db name provider = Systab.register db.sys name provider
let system_table_names db = Systab.names db.sys

(* The typed write guard: DML must name a base table, never a view or a
   system table. *)
let require_writable db name =
  if is_view db name then error "%s is a view: views are read-only" name;
  if is_system db name then error "%s" (Systab.read_only_error name)

let add_table db name table =
  if Systab.is_system_name name then error "%s" (Systab.reserved_error name);
  if String_map.mem name db.tables then error "table %s already exists" name;
  if is_view db name then error "view %s already exists" name;
  db.tables <-
    String_map.add name { tbl = table; stats = None; writes = 0 } db.tables;
  bump_generation db

let table db name =
  Option.map (fun e -> e.tbl) (String_map.find_opt name db.tables)

let table_stats db name =
  Option.bind (String_map.find_opt name db.tables) (fun e -> e.stats)

let find_entry db name =
  match String_map.find_opt name db.tables with
  | Some e -> e
  | None -> error "unknown table %s" name

let find_table db name = (find_entry db name).tbl

let iter_tables db f = String_map.iter (fun name e -> f name e.tbl) db.tables

let wal_unsynced db =
  String_map.fold
    (fun _ e acc -> acc + Storage.Table.wal_unsynced e.tbl)
    db.tables
    (match db.manifest with
    | Some manifest -> Storage.Manifest.unsynced_bytes manifest
    | None -> 0)

(* Durability order: table WALs first, manifest last. A power cut
   anywhere inside this sequence can only lose the manifest record —
   and a transaction without its manifest record rolls back in every
   table, so acknowledgements released after the full sync never cover
   a half-durable commit. *)
let sync_wal db =
  String_map.iter (fun _ e -> Storage.Table.sync_wal e.tbl) db.tables;
  Option.iter Storage.Manifest.sync db.manifest

(* Fold one committed group of base-table writes into the dependent
   views (Theorem A-4: a bounded number of compositions per op, never
   a renest) and hand the per-view deltas to the CDC sink. Called only
   at commit points — autocommit success or transaction commit — so
   views and subscribers never observe an uncommitted overlay. *)
let maintain_views db ~base ops =
  if ops <> [] && Views.Catalog.has_views_on db.views ~base then begin
    let events =
      Views.Catalog.apply db.views ~base
        ~base_nfr:(lazy (Storage.Table.snapshot (find_table db base)))
        ops
    in
    match db.cdc_sink with
    | None -> ()
    | Some sink -> List.iter sink events
  end

(* Swap in a durable catalog recovered from [path]: definitions are
   replayed from their own CRC-framed log (torn tails trimmed), then
   each surviving view is rematerialized by full renest of its
   recovered base — the DDL/salvage fallback. *)
let attach_views_wal db ~path =
  Views.Catalog.close db.views;
  db.views <-
    Views.Catalog.load ~wal_path:path
      ~resolve:(fun base ->
        Option.map Storage.Table.snapshot (table db base))
      ()

let wal_dir_snapshot ~dir name = Filename.concat dir (name ^ ".snap")

(* Every start-up on a WAL directory ends at a snapshot and a
   checkpoint per table. A table with a snapshot is recovered from the
   directory (provisional commits checked against the manifest), one
   without is built by [fresh]. The checkpoint moves each WAL to the
   next generation, so the next restart replays it over the snapshot
   instead of skipping it as stale, and leaves no recovered record (a
   rolled-back provisional commit, say) in the log this run appends
   to. Only then is the manifest reset: a txid this run allocates can
   never meet a recovered commit with the same number. *)
let open_wal_dir ?(synchronous = true) db ~dir specs =
  let manifest = Storage.Manifest.open_log (Filename.concat dir "_commit.wal") in
  let tables =
    List.map
      (fun (name, fresh) ->
        let wal_path = Filename.concat dir (name ^ ".wal") in
        let snapshot = wal_dir_snapshot ~dir name in
        let table =
          if Sys.file_exists snapshot then
            Storage.Table.load_snapshot ~wal_path ~synchronous
              ~durable:(Storage.Manifest.durable manifest) snapshot
          else fresh ~wal_path
        in
        Storage.Table.save_snapshot table snapshot;
        Storage.Table.checkpoint table;
        add_table db name table;
        (name, table))
      specs
  in
  Storage.Manifest.truncate manifest;
  attach_views_wal db ~path:(Filename.concat dir "_views.wal");
  attach_manifest ~synchronous db manifest;
  tables

let collect_stats entry =
  let stats = Tablestats.collect (Storage.Table.snapshot entry.tbl) in
  entry.stats <- Some stats;
  entry.writes <- 0;
  stats

(* Auto-refresh: once a table has been ANALYZEd, enough writes since
   the last collection trigger a re-collect and a generation bump.
   Tables never analyzed stay on the legacy planner until asked. *)
let note_writes db entry n =
  if n > 0 then begin
    entry.writes <- entry.writes + n;
    if entry.stats <> None && entry.writes >= db.auto_threshold then begin
      ignore (collect_stats entry);
      bump_generation db;
      Obs.Registry.incr (registry ()) "planner.auto_analyze"
    end
  end

(* ------------------------------------------------------------------ *)
(* Cost model                                                          *)
(* ------------------------------------------------------------------ *)

(* Abstract cost units: one heap page fetch = 1.0. Decoding a record
   is an order of magnitude cheaper; an index descent costs about two
   pages; fetching one indexed group about one. *)
let c_page = 1.0
let c_rec = 0.1
let c_probe = 2.0
let c_fetch = 1.0

(* A page resident in the table's buffer pool costs a tenth of a cold
   fetch; the observed hit rate interpolates between the two. Scans
   stay at full price: they touch every page and churn the pool, so
   their caching benefit is transient, while probes re-touch the same
   hot pages — this is what flips a repeated-probe workload from a
   cold scan to a cached probe. *)
let c_pooled_fetch = 0.1 *. c_fetch

let effective_fetch tbl =
  let rate = Storage.Table.pool_hit_rate tbl in
  (c_fetch *. (1. -. rate)) +. (c_pooled_fetch *. rate)

let scan_candidate t =
  let live = Storage.Table.live_records t in
  let dead = Storage.Table.dead_records t in
  {
    cand_path = Via_scan;
    cand_cost =
      (float_of_int (Storage.Table.pages t) *. c_page)
      +. (float_of_int (live + dead) *. c_rec);
    cand_rows = float_of_int (Storage.Table.cardinality t);
  }

(* A probe pays for every posting entry, tombstoned ones included —
   the inverted index never prunes, so a delete-churned posting list
   really is more expensive than the live groups it yields. The row
   estimate uses the Def. 6 class as a selectivity prior: a fixed
   (1:1 / n:1) attribute's value sits in at most one group. For a
   recurring attribute the raw posting size is an upper bound that
   over-counts on churned tables (every merge of a group leaves a
   stale rid behind); that bias is deliberate — it only ever pushes
   hot values toward the scan, and the tombstone fetches are paid
   regardless. *)
let probe_candidate t stats attribute value =
  let posting = Storage.Table.posting_size t attribute value in
  let rows = float_of_int (Storage.Table.cardinality t) in
  let est =
    match Option.bind stats (fun s -> Tablestats.find s attribute) with
    | Some a when a.Tablestats.a_fixed -> Float.min 1. rows
    | Some _ | None -> Float.min (float_of_int posting) rows
  in
  {
    cand_path = Via_index (attribute, value);
    cand_cost = c_probe +. (float_of_int posting *. effective_fetch t);
    cand_rows = est;
  }

(* A range is priced from live statistics (the B+-tree prunes on
   delete, so tombstones never inflate it — which is exactly why an
   equality can beat the inverted index on a churned table): a point
   range estimates from the posting distribution, open/closed
   intervals fall back to textbook fractions. *)
let range_candidate t stats attribute lo hi =
  let rows = float_of_int (Storage.Table.cardinality t) in
  let attr_stats = Option.bind stats (fun s -> Tablestats.find s attribute) in
  let est =
    match lo, hi with
    | Some l, Some h when Value.compare l.b_value h.b_value = 0 -> (
      match attr_stats with
      | Some a when a.Tablestats.a_fixed -> Float.min 1. rows
      | Some a -> Float.min (Float.max 1. a.Tablestats.a_mean_posting) rows
      | None -> Float.min 1. rows)
    | Some _, Some _ -> 0.25 *. rows
    | Some _, None | None, Some _ -> 0.33 *. rows
    | None, None -> rows
  in
  {
    cand_path = Via_range (attribute, lo, hi);
    cand_cost = c_probe +. (est *. effective_fetch t);
    cand_rows = est;
  }

(* ------------------------------------------------------------------ *)
(* Access-path choice                                                  *)
(* ------------------------------------------------------------------ *)

(* An equality conjunct [attr = const] yields an index probe. *)
let equality_probe = function
  | Predicate.Compare (Predicate.Eq, Predicate.Field attribute, Predicate.Const value)
  | Predicate.Compare (Predicate.Eq, Predicate.Const value, Predicate.Field attribute)
    ->
    Some (attribute, value)
  | Predicate.Compare _ | Predicate.True | Predicate.False | Predicate.And _
  | Predicate.Or _ | Predicate.Not _ ->
    None

(* Bounds a conjunct imposes on [attribute], with inclusivity: a
   strict comparison produces a strict bound, which the B+-tree range
   honors (the boundary group is never fetched). Over-approximation is
   still fine — the exact predicate runs afterwards. *)
let bounds_on attribute = function
  | Predicate.Compare (op, Predicate.Field a, Predicate.Const v)
    when Attribute.equal a attribute -> (
    match op with
    | Predicate.Le -> (None, Some { b_value = v; b_incl = true })
    | Predicate.Lt -> (None, Some { b_value = v; b_incl = false })
    | Predicate.Ge -> (Some { b_value = v; b_incl = true }, None)
    | Predicate.Gt -> (Some { b_value = v; b_incl = false }, None)
    | Predicate.Eq ->
      (Some { b_value = v; b_incl = true }, Some { b_value = v; b_incl = true })
    | Predicate.Neq -> (None, None))
  | Predicate.Compare (op, Predicate.Const v, Predicate.Field a)
    when Attribute.equal a attribute -> (
    match op with
    | Predicate.Le -> (Some { b_value = v; b_incl = true }, None)
    | Predicate.Lt -> (Some { b_value = v; b_incl = false }, None)
    | Predicate.Ge -> (None, Some { b_value = v; b_incl = true })
    | Predicate.Gt -> (None, Some { b_value = v; b_incl = false })
    | Predicate.Eq ->
      (Some { b_value = v; b_incl = true }, Some { b_value = v; b_incl = true })
    | Predicate.Neq -> (None, None))
  | Predicate.Compare _ | Predicate.True | Predicate.False | Predicate.And _
  | Predicate.Or _ | Predicate.Not _ ->
    (None, None)

(* Intersect bounds; at equal endpoints the strict bound wins. *)
let tighter keep a b =
  match a, b with
  | None, other | other, None -> other
  | Some x, Some y ->
    let c = Value.compare x.b_value y.b_value in
    if c = 0 then Some { x with b_incl = x.b_incl && y.b_incl }
    else Some (if keep c then x else y)

let fold_bounds ordered predicates =
  List.fold_left
    (fun (lo, hi) predicate ->
      let plo, phi = bounds_on ordered predicate in
      (tighter (fun c -> c > 0) lo plo, tighter (fun c -> c < 0) hi phi))
    (None, None) predicates

let singleton_plan ~from_stats c =
  {
    plan_path = c.cand_path;
    plan_rows = c.cand_rows;
    plan_candidates = [];
    plan_from_stats = from_stats;
  }

let cheapest candidates =
  List.fold_left
    (fun best c -> if c.cand_cost < best.cand_cost then c else best)
    (List.hd candidates) (List.tl candidates)

let plan_table db name (s : Ast.select) =
  let entry = find_entry db name in
  let t = entry.tbl in
  let schema = Storage.Table.schema t in
  match s.Ast.where with
  | None -> singleton_plan ~from_stats:(entry.stats <> None) (scan_candidate t)
  | Some condition -> (
    let predicates, contains = Compile.split_condition schema condition in
    let probes =
      List.sort
        (fun (attr_a, val_a) (attr_b, val_b) ->
          Int.compare
            (Storage.Table.posting_size t attr_a val_a)
            (Storage.Table.posting_size t attr_b val_b))
        (contains @ List.filter_map equality_probe predicates)
    in
    let range =
      match Storage.Table.ordered_attribute t with
      | None -> None
      | Some ordered -> (
        match fold_bounds ordered predicates with
        | None, None -> None
        | lo, hi -> Some (ordered, lo, hi))
    in
    match entry.stats with
    | None -> (
      (* Never analyzed: the legacy first-fit ranking — cheapest
         posting probe, else a range on the ordered attribute, else a
         scan. ANALYZE is what turns costing on. *)
      match probes with
      | (attribute, value) :: _ ->
        singleton_plan ~from_stats:false (probe_candidate t None attribute value)
      | [] -> (
        match range with
        | Some (ordered, lo, hi) ->
          singleton_plan ~from_stats:false (range_candidate t None ordered lo hi)
        | None -> singleton_plan ~from_stats:false (scan_candidate t)))
    | Some stats ->
      (* Cost-based: every probe, the (possibly point) range on the
         ordered attribute — so an equality competes as
         [Via_range (Some v, Some v)] too — and the scan. Ties keep
         list order: probes, range, scan. *)
      let candidates =
        List.map (fun (a, v) -> probe_candidate t (Some stats) a v) probes
        @ (match range with
          | Some (ordered, lo, hi) ->
            [ range_candidate t (Some stats) ordered lo hi ]
          | None -> [])
        @ [ scan_candidate t ]
      in
      let best = cheapest candidates in
      {
        plan_path = best.cand_path;
        plan_rows = best.cand_rows;
        plan_candidates = candidates;
        plan_from_stats = true;
      })

(* Mean number of distinct values one group carries on [attribute]:
   total (value, group) occurrences over groups. *)
let values_per_group stats attribute =
  match Tablestats.find stats attribute with
  | Some a when stats.Tablestats.s_rows > 0 ->
    float_of_int a.Tablestats.a_distinct
    *. a.Tablestats.a_mean_posting
    /. float_of_int stats.Tablestats.s_rows
  | Some _ | None -> 1.

let mean_posting stats attribute =
  match Tablestats.find stats attribute with
  | Some a -> Float.max 1. a.Tablestats.a_mean_posting
  | None -> 1.

(* One orientation of the index nested-loop join: scan [outer], probe
   the inner index once per outer value on [attribute]. *)
let join_candidate db left_name right_name attribute side =
  let outer_name, inner_name =
    match side with
    | `Left -> (left_name, right_name)
    | `Right -> (right_name, left_name)
  in
  let outer = find_entry db outer_name and inner = find_entry db inner_name in
  match outer.stats, inner.stats with
  | Some os, Some is ->
    let outer_rows = float_of_int (Storage.Table.cardinality outer.tbl) in
    let inner_rows = float_of_int (Storage.Table.cardinality inner.tbl) in
    let probes = outer_rows *. values_per_group os attribute in
    let fanout = mean_posting is attribute in
    Some
      {
        cand_path =
          Via_join
            {
              jp_left = left_name;
              jp_right = right_name;
              jp_probe = Some attribute;
              jp_outer = side;
            };
        cand_cost =
          (scan_candidate outer.tbl).cand_cost
          +. (probes *. (c_probe +. (fanout *. effective_fetch inner.tbl)));
        cand_rows = Float.min (probes *. fanout) (outer_rows *. inner_rows);
      }
  | _ -> None

let plan_join db left_name right_name =
  let le = find_entry db left_name and re = find_entry db right_name in
  let lrows = float_of_int (Storage.Table.cardinality le.tbl) in
  let rrows = float_of_int (Storage.Table.cardinality re.tbl) in
  match
    Schema.common (Storage.Table.schema le.tbl) (Storage.Table.schema re.tbl)
  with
  | [] ->
    {
      plan_path =
        Via_join
          {
            jp_left = left_name;
            jp_right = right_name;
            jp_probe = None;
            jp_outer = `Left;
          };
      plan_rows = lrows *. rrows;
      plan_candidates = [];
      plan_from_stats = false;
    }
  | common -> (
    let costed =
      List.concat_map
        (fun attribute ->
          List.filter_map
            (fun side -> join_candidate db left_name right_name attribute side)
            [ `Left; `Right ])
        common
    in
    match costed with
    | [] ->
      (* Legacy (a side lacks stats): smaller table outer, first
         common attribute as the probe. *)
      {
        plan_path =
          Via_join
            {
              jp_left = left_name;
              jp_right = right_name;
              jp_probe = Some (List.hd common);
              jp_outer = (if lrows <= rrows then `Left else `Right);
            };
        plan_rows = Float.max lrows rrows;
        plan_candidates = [];
        plan_from_stats = false;
      }
    | _ ->
      let best = cheapest costed in
      {
        plan_path = best.cand_path;
        plan_rows = best.cand_rows;
        plan_candidates = costed;
        plan_from_stats = true;
      })

let plan_uncached db (s : Ast.select) =
  match s.Ast.source with
  | Ast.From_table name -> plan_table db name s
  | Ast.From_join (left_name, right_name) -> plan_join db left_name right_name

(* Buffer-pool hit rates quantized into five 20% buckets: enough for
   a warming pool to reprice cached plans, coarse enough that the
   cache still hits between consecutive identical queries. *)
let pool_bucket tbl =
  min 4 (int_of_float (Storage.Table.pool_hit_rate tbl *. 5.))

let select_pool_bucket db (s : Ast.select) =
  let bucket name =
    match table db name with Some tbl -> pool_bucket tbl | None -> 0
  in
  match s.Ast.source with
  | Ast.From_table name -> bucket name
  | Ast.From_join (left_name, right_name) ->
    bucket left_name + (5 * bucket right_name)

(* LRU plan cache. The key is the select's structural value (pure
   data, so generic hashing is sound) plus the statistics generation
   and the source tables' pool-hit-rate bucket: ANALYZE, DDL and
   auto-refresh bump the generation, and a pool warming past a bucket
   boundary changes the key, so plans priced against older statistics
   or a colder cache simply stop matching and age out of the
   fixed-capacity table. *)
let plan db (s : Ast.select) =
  let key = (s, db.generation, select_pool_bucket db s) in
  db.cache_tick <- db.cache_tick + 1;
  match Hashtbl.find_opt db.cache key with
  | Some slot ->
    slot.slot_tick <- db.cache_tick;
    Obs.Registry.incr (registry ()) "planner.cache_hit";
    slot.slot_plan
  | None ->
    Obs.Registry.incr (registry ()) "planner.cache_miss";
    let built = plan_uncached db s in
    if Hashtbl.length db.cache >= cache_capacity then begin
      let victim =
        Hashtbl.fold
          (fun k slot acc ->
            match acc with
            | Some (_, best) when best <= slot.slot_tick -> acc
            | _ -> Some (k, slot.slot_tick))
          db.cache None
      in
      match victim with
      | Some (k, _) -> Hashtbl.remove db.cache k
      | None -> ()
    end;
    Hashtbl.add db.cache key { slot_plan = built; slot_tick = db.cache_tick };
    built

let chosen_path db (s : Ast.select) = (plan db s).plan_path

(* ------------------------------------------------------------------ *)
(* Pull-based operator tree                                            *)
(* ------------------------------------------------------------------ *)

(* Peak-live-tuple meter: every operator that buffers decoded tuples
   (filter queues, join queues, blocking canonicalize, the final
   collector) registers what it holds, so [peak] is the high-water
   mark of tuples simultaneously alive during one statement — the
   number a materializing executor would push to O(table). *)
type meter = {
  mutable live : int;
  mutable peak : int;
}

let meter_create () = { live = 0; peak = 0 }

let meter_add m n =
  m.live <- m.live + n;
  if m.live > m.peak then m.peak <- m.live

let meter_sub m n = m.live <- m.live - n

(* One node of the operator tree. [pull] returns the next tuple or
   [None] when exhausted; [stats] charges only this operator's own
   storage touches. Timing lives on the operator's {!Obs.Span}: each
   pull adds its elapsed wall clock to the span's busy time, inclusive
   of its inputs (a parent's pull calls its children's pulls inside
   its own clock). When a trace scope is open the spans land in the
   ring as children of the enclosing Plan span, so EXPLAIN ANALYZE and
   TRACE read the very same clocks. *)
type op = {
  label : string;
  stats : Storage.Stats.t;
  span : Obs.Span.t;
  mutable rows_out : int;
  mutable est : float option;  (* planner's row estimate, leaves only *)
  children : op list;
  mutable pull : unit -> Ntuple.t option;
}

let make_op ?(children = []) label =
  {
    label;
    stats = Storage.Stats.create ();
    span = Obs.Span.enter (Obs.Span.Operator label) label;
    rows_out = 0;
    est = None;
    children;
    pull = (fun () -> None);
  }

let pull_op op =
  let start = Obs.Span.now () in
  let result = op.pull () in
  Obs.Span.add_busy op.span (Obs.Span.now () -. start);
  (match result with
  | Some _ -> op.rows_out <- op.rows_out + 1
  | None -> ());
  result

(* Seal the tree's spans once the statement is done: copy each
   operator's row/byte tallies onto its span and mark it ended. *)
let rec finish_ops op =
  Obs.Span.set_rows op.span op.rows_out;
  Obs.Span.set_bytes op.span op.stats.Storage.Stats.bytes_read;
  Obs.Span.finish op.span;
  List.iter finish_ops op.children

let rec profile_ops op =
  (op.label, op.rows_out) :: List.concat_map profile_ops op.children

let scan_op t name =
  let op = make_op (Printf.sprintf "heap-scan %s" name) in
  let cursor = lazy (Storage.Table.scan_cursor t ~stats:op.stats) in
  op.pull <- (fun () -> (Lazy.force cursor) ());
  op

let probe_op t name attribute value =
  let op =
    make_op
      (Printf.sprintf "index-probe %s (%s ∋ %s)" name (Attribute.name attribute)
         (Value.to_string value))
  in
  let cursor =
    lazy (Storage.Table.lookup_cursor t ~stats:op.stats attribute value)
  in
  op.pull <- (fun () -> (Lazy.force cursor) ());
  op

let bound_text infinity = function
  | Some b -> Value.to_string b.b_value
  | None -> infinity

let lo_bracket = function
  | Some { b_incl = false; _ } -> "("
  | Some _ | None -> "["

let hi_bracket = function
  | Some { b_incl = false; _ } -> ")"
  | Some _ | None -> "]"

let range_op t name attribute lo hi =
  let op =
    make_op
      (Printf.sprintf "btree-range %s (%s in %s%s, %s%s)" name
         (Attribute.name attribute) (lo_bracket lo) (bound_text "-∞" lo)
         (bound_text "+∞" hi) (hi_bracket hi))
  in
  let cursor =
    lazy
      (Storage.Table.range_cursor t ~stats:op.stats
         ?lo:(Option.map (fun b -> b.b_value) lo)
         ?hi:(Option.map (fun b -> b.b_value) hi)
         ?lo_incl:(Option.map (fun b -> b.b_incl) lo)
         ?hi_incl:(Option.map (fun b -> b.b_incl) hi)
         ())
  in
  op.pull <- (fun () -> (Lazy.force cursor) ());
  op

(* Streaming WHERE: tuple-level CONTAINS checks on the stored grouping
   first, then the expansion-level predicates via
   {!Nalgebra.select_tuple} (componentwise shrink, or per-tuple
   expansion for correlated predicates). Predicates may turn one input
   tuple into several output tuples; the extras wait in a queue. The
   final re-canonicalization (when predicates exist) happens once, in
   the collector — {!Nalgebra.select_tuple}'s contract makes that
   equivalent to {!Compile.apply_where}. *)
let filter_op schema ~contains ~predicates ~label meter child =
  let op = make_op ~children:[ child ] (Printf.sprintf "filter %s" label) in
  let contains_positions =
    List.map
      (fun (attribute, value) -> (Schema.position schema attribute, value))
      contains
  in
  let keeps nt =
    List.for_all
      (fun (position, value) -> Vset.mem value (Ntuple.component nt position))
      contains_positions
  in
  let select_tuple predicate nt =
    match Nalgebra.select_tuple schema predicate nt with
    | nts -> nts
    | exception Invalid_argument msg -> error "%s" msg
  in
  let queue = Queue.create () in
  let rec next () =
    if not (Queue.is_empty queue) then begin
      meter_sub meter 1;
      Some (Queue.pop queue)
    end
    else
      match pull_op child with
      | None -> None
      | Some nt ->
        if not (keeps nt) then next ()
        else begin
          let survivors =
            List.fold_left
              (fun nts predicate -> List.concat_map (select_tuple predicate) nts)
              [ nt ] predicates
          in
          match survivors with
          | [] -> next ()
          | first :: rest ->
            List.iter
              (fun nt ->
                Queue.add nt queue;
                meter_add meter 1)
              rest;
            Some first
        end
  in
  op.pull <- next;
  op

(* Blocking nest-canonicalization: drains its input, re-nests, then
   streams the canonical tuples out. *)
let canonicalize_op schema order meter child =
  let op = make_op ~children:[ child ] "canonicalize" in
  let pending = ref None in
  let ensure () =
    match !pending with
    | Some items -> items
    | None ->
      let rec drain acc count =
        match pull_op child with
        | Some nt ->
          meter_add meter 1;
          drain (Nfr.add acc nt) (count + 1)
        | None -> (acc, count)
      in
      let drained, count = drain (Nfr.empty schema) 0 in
      let items = Nfr.ntuples (Nest.canonicalize drained order) in
      meter_sub meter count;
      meter_add meter (List.length items);
      pending := Some items;
      items
  in
  op.pull <-
    (fun () ->
      match ensure () with
      | [] -> None
      | nt :: rest ->
        pending := Some rest;
        meter_sub meter 1;
        Some nt);
  op

let one_tuple schema nt = Nfr.add (Nfr.empty schema) nt

(* Index nested-loop join along a planned {!join_path}: scan the
   planner's outer side; for each outer tuple probe the inner table's
   inverted index with every value of the probe attribute, then join
   the fetched candidates directly (pairwise component intersection),
   always in (left, right) orientation so the result schema matches
   the reference evaluator's. A [jp_probe = None] path is a block nested
   loop (inner side buffered once) — a Cartesian product. Distinct
   probe values of one outer tuple can fetch the same inner tuple
   twice; a per-outer-tuple set keyed on structural {!Ntuple} equality
   dedups them (the heap decodes a fresh tuple per probe, so physical
   equality never fires). *)
let join_op db meter jp =
  let left = find_table db jp.jp_left and right = find_table db jp.jp_right in
  let schema_l = Storage.Table.schema left in
  let schema_r = Storage.Table.schema right in
  let joined_schema = Schema.union schema_l schema_r in
  match jp.jp_probe with
  | None ->
    let outer_op = scan_op left jp.jp_left in
    let op =
      make_op ~children:[ outer_op ]
        (Printf.sprintf "product %s × %s" jp.jp_left jp.jp_right)
    in
    let inner = lazy (
      let collected = ref [] in
      Storage.Table.scan right ~stats:op.stats (fun nt ->
          meter_add meter 1;
          collected := nt :: !collected);
      Array.of_list (List.rev !collected))
    in
    let queue = Queue.create () in
    let rec next () =
      if not (Queue.is_empty queue) then begin
        meter_sub meter 1;
        Some (Queue.pop queue)
      end
      else
        match pull_op outer_op with
        | None -> None
        | Some left_nt ->
          Array.iter
            (fun right_nt ->
              let components =
                Ntuple.components left_nt @ Ntuple.components right_nt
              in
              Queue.add (Ntuple.of_sets_unchecked (Array.of_list components)) queue;
              meter_add meter 1)
            (Lazy.force inner);
          next ()
    in
    op.pull <- next;
    (op, joined_schema)
  | Some probe_attribute ->
    let outer, outer_name, inner, flipped =
      match jp.jp_outer with
      | `Left -> (left, jp.jp_left, right, false)
      | `Right -> (right, jp.jp_right, left, true)
    in
    let position = Schema.position (Storage.Table.schema outer) probe_attribute in
    let outer_op = scan_op outer outer_name in
    let op =
      make_op ~children:[ outer_op ]
        (Printf.sprintf "inlj %s ⋈ %s (probe %s, outer %s)" jp.jp_left
           jp.jp_right
           (Attribute.name probe_attribute)
           outer_name)
    in
    let queue = Queue.create () in
    let rec next () =
      if not (Queue.is_empty queue) then begin
        meter_sub meter 1;
        Some (Queue.pop queue)
      end
      else
        match pull_op outer_op with
        | None -> None
        | Some outer_nt ->
          let seen = Ntuple_tbl.create 8 in
          Vset.fold
            (fun value () ->
              List.iter
                (fun inner_nt ->
                  if not (Ntuple_tbl.mem seen inner_nt) then begin
                    Ntuple_tbl.add seen inner_nt ();
                    let left_nt, right_nt =
                      if flipped then (inner_nt, outer_nt)
                      else (outer_nt, inner_nt)
                    in
                    let joined =
                      Nalgebra.natural_join
                        (one_tuple schema_l left_nt)
                        (one_tuple schema_r right_nt)
                    in
                    Nfr.iter
                      (fun nt ->
                        Queue.add nt queue;
                        meter_add meter 1)
                      joined
                  end)
                (Storage.Table.lookup inner ~stats:op.stats probe_attribute value))
            (Ntuple.component outer_nt position)
            ();
          next ()
    in
    op.pull <- next;
    (op, joined_schema)

(* ------------------------------------------------------------------ *)
(* Pipelines                                                           *)
(* ------------------------------------------------------------------ *)

type pipeline = {
  root : op;
  leaf : op;  (* the access-path operator the plan's estimate is for *)
  the_plan : plan;
  schema : Schema.t;
  order : Attribute.t list;
  predicates : Predicate.t list;  (* non-empty => collector re-canonicalizes *)
  meter : meter;
}

let build_pipeline db (s : Ast.select) =
  let meter = meter_create () in
  let the_plan = plan db s in
  let with_filter schema source_op =
    match s.Ast.where with
    | None -> ([], source_op)
    | Some condition ->
      let predicates, contains = Compile.split_condition schema condition in
      if predicates = [] && contains = [] then ([], source_op)
      else
        ( predicates,
          filter_op schema ~contains ~predicates
            ~label:(Format.asprintf "%a" Ast.pp_condition condition)
            meter source_op )
  in
  match s.Ast.source with
  | Ast.From_table name ->
    let t = find_table db name in
    let schema = Storage.Table.schema t in
    let order = Storage.Table.nest_order t in
    let source_op =
      match the_plan.plan_path with
      | Via_scan -> scan_op t name
      | Via_index (attribute, value) -> probe_op t name attribute value
      | Via_range (attribute, lo, hi) -> range_op t name attribute lo hi
      | Via_join _ -> assert false
    in
    source_op.est <- Some the_plan.plan_rows;
    let predicates, root = with_filter schema source_op in
    { root; leaf = source_op; the_plan; schema; order; predicates; meter }
  | Ast.From_join _ ->
    let jp =
      match the_plan.plan_path with
      | Via_join jp -> jp
      | Via_scan | Via_index _ | Via_range _ -> assert false
    in
    let join, joined_schema = join_op db meter jp in
    join.est <- Some the_plan.plan_rows;
    let order = Schema.attributes joined_schema in
    let canonical = canonicalize_op joined_schema order meter join in
    let predicates, root = with_filter joined_schema canonical in
    {
      root;
      leaf = join;
      the_plan;
      schema = joined_schema;
      order;
      predicates;
      meter;
    }

type executed = {
  shaped : Nfr.t;  (* after projection / NEST / UNNEST *)
  filtered : Nfr.t;  (* after WHERE, before shaping *)
  root : op;  (* full tree, collector (and shape) included *)
  peak : int;
}

let run_select db (s : Ast.select) =
  (* Build under a Plan span so every operator's span (entered inside
     make_op) records as a child of the planning step. *)
  let pipeline =
    Obs.Span.with_span Obs.Span.Plan "build-pipeline" @@ fun _ ->
    build_pipeline db s
  in
  (* The collector (and shape) ops are created before their timed work
     so their span start times bracket what they actually did. *)
  let collector =
    make_op ~children:[ pipeline.root ]
      (if pipeline.predicates = [] then "collect" else "collect+canonicalize")
  in
  let start = Obs.Span.now () in
  let rec drain acc =
    match pull_op pipeline.root with
    | Some nt ->
      meter_add pipeline.meter 1;
      drain (Nfr.add acc nt)
    | None -> acc
  in
  let drained = drain (Nfr.empty pipeline.schema) in
  let filtered =
    if pipeline.predicates = [] then drained
    else Nest.canonicalize drained pipeline.order
  in
  collector.rows_out <- Nfr.cardinality filtered;
  Obs.Span.add_busy collector.span (Obs.Span.now () -. start);
  let shaping =
    s.Ast.columns <> None || s.Ast.nests <> [] || s.Ast.unnests <> []
  in
  let shape =
    if shaping then Some (make_op ~children:[ collector ] "shape (project/nest/unnest)")
    else None
  in
  let shape_start = Obs.Span.now () in
  let shaped = Compile.shape_select filtered ~order:pipeline.order s in
  let root =
    match shape with
    | None -> collector
    | Some shape ->
      shape.rows_out <- Nfr.cardinality shaped;
      Obs.Span.add_busy shape.span (Obs.Span.now () -. shape_start);
      shape
  in
  finish_ops root;
  db.last_ops <- profile_ops root;
  (* Estimation quality: the plan's row estimate against what the
     access-path operator actually emitted, as a relative-error
     histogram (and the slow-query log's est-vs-actual column). *)
  let actual = pipeline.leaf.rows_out in
  db.last_est <- Some (pipeline.the_plan.plan_rows, actual);
  Obs.Registry.observe (registry ()) "planner.est_error"
    (Float.abs (pipeline.the_plan.plan_rows -. float_of_int actual)
    /. float_of_int (max 1 actual));
  { shaped; filtered; root; peak = pipeline.meter.peak }

let select_for_condition table_name condition =
  {
    Ast.columns = None;
    source = Ast.From_table table_name;
    where = Some condition;
    nests = [];
    unnests = [];
  }

(* DML victim search rides the same operator pipeline as SELECT; the
   pipeline is fully drained before any mutation, so no cursor is live
   while the table changes. *)
let matching_tuples db table_name condition =
  let executed = run_select db (select_for_condition table_name condition) in
  (Relation.tuples (Nfr.flatten executed.filtered), executed.root)

let rec add_op_stats total op =
  Storage.Stats.add total op.stats;
  List.iter (add_op_stats total) op.children

(* ------------------------------------------------------------------ *)
(* EXPLAIN / EXPLAIN ANALYZE                                           *)
(* ------------------------------------------------------------------ *)

type op_metrics = {
  op_label : string;
  op_depth : int;
  op_rows : int;
  op_est : float option;
  op_pages : int;
  op_records : int;
  op_bytes : int;
  op_probes : int;
  op_pool_hits : int;
  op_pool_misses : int;
  op_seconds : float;
}

type analyze_report = {
  operators : op_metrics list;
  peak_live : int;
  analyzed : Eval.result;
}

let rec flatten_ops depth op =
  {
    op_label = op.label;
    op_depth = depth;
    op_rows = op.rows_out;
    op_est = op.est;
    op_pages = op.stats.Storage.Stats.pages_read;
    op_records = op.stats.Storage.Stats.records_read;
    op_bytes = op.stats.Storage.Stats.bytes_read;
    op_probes = op.stats.Storage.Stats.index_probes;
    op_pool_hits = op.stats.Storage.Stats.pool_hits;
    op_pool_misses = op.stats.Storage.Stats.pool_misses;
    op_seconds = Obs.Span.busy op.span;
  }
  :: List.concat_map (flatten_ops (depth + 1)) op.children

let analyze_select db (s : Ast.select) =
  let executed = run_select db s in
  {
    operators = flatten_ops 0 executed.root;
    peak_live = executed.peak;
    analyzed = Eval.Rows executed.shaped;
  }

let stats_of_report report =
  let total = Storage.Stats.create () in
  List.iter
    (fun m ->
      total.Storage.Stats.pages_read <-
        total.Storage.Stats.pages_read + m.op_pages;
      total.Storage.Stats.records_read <-
        total.Storage.Stats.records_read + m.op_records;
      total.Storage.Stats.bytes_read <- total.Storage.Stats.bytes_read + m.op_bytes;
      total.Storage.Stats.index_probes <-
        total.Storage.Stats.index_probes + m.op_probes;
      total.Storage.Stats.pool_hits <- total.Storage.Stats.pool_hits + m.op_pool_hits;
      total.Storage.Stats.pool_misses <-
        total.Storage.Stats.pool_misses + m.op_pool_misses)
    report.operators;
  total

let est_text = function
  | None -> "-"
  | Some est -> Printf.sprintf "%.0f" est

let render_analyze report =
  let buffer = Buffer.create 256 in
  let line fmt =
    Printf.ksprintf (fun msg -> Buffer.add_string buffer (msg ^ "\n")) fmt
  in
  line "physical plan (executed):";
  line "  %-44s %8s %8s %7s %9s %8s %9s %9s" "operator" "rows" "est" "pages"
    "records" "probes" "pool" "ms";
  List.iter
    (fun m ->
      line "  %-44s %8d %8s %7d %9d %8d %9s %9.3f"
        (String.make (2 * m.op_depth) ' ' ^ m.op_label)
        m.op_rows (est_text m.op_est) m.op_pages m.op_records m.op_probes
        (Printf.sprintf "%d/%d" m.op_pool_hits m.op_pool_misses)
        (m.op_seconds *. 1000.))
    report.operators;
  line "  peak live tuples: %d" report.peak_live;
  (match report.analyzed with
  | Eval.Rows nfr ->
    line "  result: %d fact(s) in %d NFR tuple(s)" (Nfr.expansion_size nfr)
      (Nfr.cardinality nfr)
  | Eval.Done _ -> ());
  String.trim (Buffer.contents buffer)

let path_text = function
  | Via_scan -> "heap scan"
  | Via_index (attribute, value) ->
    Printf.sprintf "inverted-index probe %s ∋ %s" (Attribute.name attribute)
      (Value.to_string value)
  | Via_range (attribute, lo, hi) ->
    Printf.sprintf "B+-tree range %s in %s%s, %s%s" (Attribute.name attribute)
      (lo_bracket lo) (bound_text "-∞" lo) (bound_text "+∞" hi) (hi_bracket hi)
  | Via_join jp -> (
    match jp.jp_probe with
    | None -> Printf.sprintf "nested-loop product %s × %s" jp.jp_left jp.jp_right
    | Some attribute ->
      let outer, inner =
        match jp.jp_outer with
        | `Left -> (jp.jp_left, jp.jp_right)
        | `Right -> (jp.jp_right, jp.jp_left)
      in
      Printf.sprintf
        "index nested-loop join %s ⋈ %s (outer %s, probe %s into %s)"
        jp.jp_left jp.jp_right outer
        (Attribute.name attribute)
        inner)

(* Views in a FROM clause: a lone view name takes the view-scan path
   below; views inside a JOIN are rejected (the join operators read
   heap records, which a materialized view does not have). *)
let view_in_source db = function
  | Ast.From_table name -> if is_view db name then Some name else None
  | Ast.From_join (left, right) ->
    if is_view db left || is_view db right then
      error "views cannot appear in JOIN"
    else None

(* System tables in a FROM clause, same shape as views: a lone name is
   scanned through its provider; JOINs are rejected because providers
   materialize afresh per statement and have no heap records. *)
let sys_in_source db = function
  | Ast.From_table name -> if is_system db name then Some name else None
  | Ast.From_join (left, right) ->
    if is_system db left || is_system db right then
      error "system tables cannot appear in JOIN"
    else None

(* A SELECT over a view reads the materialized canonical NFR directly:
   the view {e is} the access path, so there is no planning step and
   no heap I/O — just the WHERE/shape machinery over a persistent
   value. Reads see the latest committed view state (view maintenance
   happens only at commit points). *)
let run_view_select db (s : Ast.select) name =
  let label = "view-scan " ^ name in
  Obs.Span.with_span (Obs.Span.Operator label) label @@ fun span ->
  let nfr = Views.Catalog.snapshot db.views name in
  let order = Views.Catalog.order db.views name in
  let filtered = Compile.apply_where (Nfr.schema nfr) order nfr s.Ast.where in
  Obs.Span.set_rows span (Nfr.cardinality filtered);
  db.last_ops <- [ (label, Nfr.cardinality filtered) ];
  db.last_est <- None;
  (Compile.shape_select filtered ~order s, filtered)

(* A SELECT over a system table asks its provider for the current
   contents — the read-only view-scan path generalized to
   provider-backed relations. *)
let run_sys_select db (s : Ast.select) name =
  let label = "system-scan " ^ name in
  Obs.Span.with_span (Obs.Span.Operator label) label @@ fun span ->
  let provider =
    match Systab.find db.sys name with
    | Some p -> p
    | None -> error "unknown table %s" name
  in
  let order, nfr = provider () in
  let filtered = Compile.apply_where (Nfr.schema nfr) order nfr s.Ast.where in
  Obs.Span.set_rows span (Nfr.cardinality filtered);
  db.last_ops <- [ (label, Nfr.cardinality filtered) ];
  db.last_est <- None;
  (Compile.shape_select filtered ~order s, filtered)

let sys_snapshot db name =
  match Systab.find db.sys name with
  | Some provider -> snd (provider ())
  | None -> error "unknown table %s" name

(* Plan text shared by every source: the access lines, then the WHERE
   clause — the residual filter as written, followed by one line per
   top-level conjunct saying how the paper's semantics evaluate it
   (tuple-level CONTAINS, componentwise or correlated selection) — and
   the result shaping. *)
let plan_text schema (s : Ast.select) access =
  let buffer = Buffer.create 128 in
  let line fmt =
    Printf.ksprintf (fun msg -> Buffer.add_string buffer (msg ^ "\n")) fmt
  in
  line "physical plan:";
  List.iter (line "  %s") access;
  (match s.Ast.where with
  | None -> ()
  | Some condition ->
    line "  residual filter: %s" (Format.asprintf "%a" Ast.pp_condition condition);
    let predicates, contains = Compile.split_condition schema condition in
    List.iter
      (fun (attribute, value) ->
        line "    contains-filter %s ∋ %s (tuple-level, no expansion)"
          (Attribute.name attribute) (Value.to_string value))
      contains;
    List.iter
      (fun predicate ->
        line "    select %s (%s)"
          (Format.asprintf "%a" Predicate.pp predicate)
          (if Nalgebra.componentwise_selectable predicate then
             "componentwise, no expansion"
           else "correlated: per-tuple expansion"))
      predicates);
  (match s.Ast.columns with
  | None -> ()
  | Some names -> line "  project %s" (String.concat "," names));
  List.iter (line "  nest %s") s.Ast.nests;
  List.iter (line "  unnest %s") s.Ast.unnests;
  String.trim (Buffer.contents buffer)

let source_schema db = function
  | Ast.From_table name -> Storage.Table.schema (find_table db name)
  | Ast.From_join (left, right) ->
    Schema.union
      (Storage.Table.schema (find_table db left))
      (Storage.Table.schema (find_table db right))

let explain_text db (s : Ast.select) =
  match view_in_source db s.Ast.source with
  | Some name ->
    let nfr = Views.Catalog.snapshot db.views name in
    plan_text (Nfr.schema nfr) s
      [
        Printf.sprintf
          "access: view scan %s (materialized canonical NFR, %d NFR tuples)"
          name (Nfr.cardinality nfr);
      ]
  | None -> (
    match sys_in_source db s.Ast.source with
    | Some name ->
      let nfr = sys_snapshot db name in
      plan_text (Nfr.schema nfr) s
        [
          Printf.sprintf
            "access: system scan %s (provider-backed NFR, %d NFR tuples)" name
            (Nfr.cardinality nfr);
        ]
    | None ->
      let p = plan db s in
      let candidates =
        List.map
          (fun c ->
            Printf.sprintf "  %-52s cost %10.1f  est rows %10.1f%s"
              (path_text c.cand_path) c.cand_cost c.cand_rows
              (if c.cand_path = p.plan_path then "  (chosen)" else ""))
          p.plan_candidates
      in
      plan_text (source_schema db s.Ast.source) s
        ([
           "access: " ^ path_text p.plan_path;
           Printf.sprintf "est rows: %.1f%s" p.plan_rows
             (if p.plan_from_stats then "" else " (no statistics; run ANALYZE)");
         ]
        @ if candidates = [] then [] else "candidates:" :: candidates))

(* ------------------------------------------------------------------ *)
(* Statements                                                          *)
(* ------------------------------------------------------------------ *)

let count_done nfr =
  Eval.Done
    (Printf.sprintf "%d fact(s) in %d NFR tuple(s)" (Nfr.expansion_size nfr)
       (Nfr.cardinality nfr))

(* TRACE surface: one row per span of the statement's trace, in ring
   order (parents before children) so clients can rebuild the tree. *)
let trace_schema =
  Schema.of_names
    [
      ("Span", Value.Tint);
      ("Parent", Value.Tint);
      ("Event", Value.Tstring);
      ("Label", Value.Tstring);
      ("Ms", Value.Tfloat);
      ("Rows", Value.Tint);
      ("Bytes", Value.Tint);
    ]

let rows_of_spans spans =
  List.fold_left
    (fun acc (sp : Obs.Span.t) ->
      let cells =
        [|
          Vset.singleton (Value.of_int sp.Obs.Span.id);
          Vset.singleton (Value.of_int sp.Obs.Span.parent);
          Vset.singleton (Value.of_string (Obs.Span.event_name sp.Obs.Span.event));
          Vset.singleton (Value.of_string sp.Obs.Span.label);
          Vset.singleton (Value.of_float (Obs.Span.busy sp *. 1000.));
          Vset.singleton (Value.of_int sp.Obs.Span.rows);
          Vset.singleton (Value.of_int sp.Obs.Span.bytes);
        |]
      in
      Nfr.add acc (Ntuple.of_sets_unchecked cells))
    (Nfr.empty trace_schema) spans

let exec_analyze db name =
  if is_view db name then
    error "cannot ANALYZE view %s: statistics are collected on base tables" name;
  if is_system db name then
    error
      "cannot ANALYZE system table %s: statistics are collected on base tables"
      name;
  let collected = collect_stats (find_entry db name) in
  bump_generation db;
  Obs.Registry.incr (registry ()) "planner.analyze";
  Eval.Done (Tablestats.summary name collected)

(* Run [run] under a trace scope — reusing the server's ambient one
   when present — and return the trace's spans as rows. *)
let traced_rows run =
  let trace =
    match Obs.Span.current_trace () with
    | Some trace ->
      run ();
      trace
    | None ->
      Obs.Span.in_trace (fun trace ->
          run ();
          trace)
  in
  Eval.Rows (rows_of_spans (Obs.Span.spans_of_trace trace))

(* ------------------------------------------------------------------ *)
(* Transactions: buffered optimistic snapshot isolation                *)
(* ------------------------------------------------------------------ *)

(* In-txn execution never touches the shared tables: every read and
   write goes through the transaction's per-table overlays (a
   persistent NFR snapshotted at first touch plus the txn's own
   writes), so concurrent sessions keep reading the committed state —
   writers never block readers, and ROLLBACK is a pure discard that
   leaves the table, its WAL, its statistics and the plan cache
   byte-identical to never having run. COMMIT validates first-
   committer-wins against the storage ledger and only then applies the
   buffered ops through the storage transaction API (WAL txn framing,
   so recovery replays the group all-or-nothing). *)

let txn_touch db txn name =
  match String_map.find_opt name txn.touched with
  | Some tt -> tt
  | None ->
    let entry = find_entry db name in
    let tt =
      {
        tx_base_seq = Storage.Table.commit_seq entry.tbl;
        tx_schema = Storage.Table.schema entry.tbl;
        tx_order = Storage.Table.nest_order entry.tbl;
        tx_nfr = Storage.Table.snapshot entry.tbl;
        tx_ops = [];
      }
    in
    txn.touched <- String_map.add name tt txn.touched;
    tt

let txn_write_count txn =
  String_map.fold
    (fun _ tt acc -> acc + List.length tt.tx_ops)
    txn.touched 0

(* Victim search against the overlay runs on the in-memory NFR — the
   physical operators read heap records, which an uncommitted txn does
   not have. *)
let txn_matching tt condition = Compile.matching_tuples tt.tx_nfr condition

let txn_do_insert tt tuple =
  if Nfr.member_tuple tt.tx_nfr tuple then false
  else begin
    tt.tx_nfr <- Update.insert ~order:tt.tx_order tt.tx_nfr tuple;
    tt.tx_ops <- Op_insert tuple :: tt.tx_ops;
    true
  end

let txn_do_delete tt tuple =
  let nfr = Update.delete ~order:tt.tx_order tt.tx_nfr tuple in
  tt.tx_nfr <- nfr;
  tt.tx_ops <- Op_delete tuple :: tt.tx_ops

let txn_resolve_source db txn = function
  | Ast.From_table name when is_view db name ->
    (* Views are maintained at commit points only: a transaction reads
       the latest committed view state, not its own snapshot. *)
    (Views.Catalog.snapshot db.views name, Views.Catalog.order db.views name)
  | Ast.From_table name when is_system db name ->
    (* System tables are live monitoring state — never part of any
       snapshot; a transaction reads the provider's current contents. *)
    let provider = Option.get (Systab.find db.sys name) in
    let order, nfr = provider () in
    (nfr, order)
  | Ast.From_table name ->
    let tt = txn_touch db txn name in
    (tt.tx_nfr, tt.tx_order)
  | Ast.From_join (left, right) ->
    if is_view db left || is_view db right then
      error "views cannot appear in JOIN";
    if is_system db left || is_system db right then
      error "system tables cannot appear in JOIN";
    let lt = txn_touch db txn left and rt = txn_touch db txn right in
    let joined =
      match Nalgebra.natural_join lt.tx_nfr rt.tx_nfr with
      | joined -> joined
      | exception Schema.Schema_error msg -> error "%s" msg
    in
    let order = Schema.attributes (Nfr.schema joined) in
    (Nest.canonicalize joined order, order)

let begin_txn session =
  let db = session.sdb in
  (* A replica refuses BEGIN outright: every transaction is a write
     intent, and refusing early beats aborting at COMMIT. *)
  require_primary db;
  let txn = { txn_id = db.next_txid; touched = String_map.empty } in
  db.next_txid <- db.next_txid + 1;
  db.active <- txn :: db.active;
  session.txn <- Some txn;
  Obs.Registry.incr (registry ()) "txn.begin";
  Obs.Registry.add_gauge (registry ()) "txn.active" 1.;
  Eval.Done "transaction open"

(* Close out [txn]: unregister it and prune each touched table's
   ledger below the oldest snapshot any still-open transaction holds
   (or the current commit seq when none does). *)
let end_txn session txn =
  let db = session.sdb in
  session.txn <- None;
  db.active <- List.filter (fun t -> t.txn_id <> txn.txn_id) db.active;
  Obs.Registry.add_gauge (registry ()) "txn.active" (-1.);
  String_map.iter
    (fun name _ ->
      match String_map.find_opt name db.tables with
      | None -> ()
      | Some entry ->
        let floor =
          List.fold_left
            (fun acc t ->
              match String_map.find_opt name t.touched with
              | Some tt -> min acc tt.tx_base_seq
              | None -> acc)
            (Storage.Table.commit_seq entry.tbl)
            db.active
        in
        Storage.Table.prune_ledger entry.tbl ~below:floor)
    txn.touched

let rollback_txn session txn =
  Obs.Registry.incr (registry ()) "txn.abort";
  end_txn session txn

let conflict session txn fmt =
  Printf.ksprintf
    (fun msg ->
      Obs.Registry.incr (registry ()) "txn.conflict";
      rollback_txn session txn;
      raise (Conflict msg))
    fmt

let commit_txn session txn =
  let db = session.sdb in
  Obs.Span.with_span (Obs.Span.Txn "commit") "txn-commit" @@ fun _ ->
  (* String_map.bindings is sorted, so multi-table transactions always
     apply in table-name order — any two commits conflict-checked and
     applied by this single-threaded executor serialize identically. *)
  let writers =
    List.filter
      (fun (_, tt) -> tt.tx_ops <> [])
      (String_map.bindings txn.touched)
  in
  (* First committer wins: if any commit since this txn's snapshot
     wrote a flat tuple this txn also wrote, abort — applying would
     overwrite that committer's effect (lost update). *)
  List.iter
    (fun (name, tt) ->
      match String_map.find_opt name db.tables with
      | None -> conflict session txn "table %s was dropped concurrently" name
      | Some entry ->
        List.iter
          (fun op ->
            let tuple = match op with Op_insert t | Op_delete t -> t in
            if Storage.Table.modified_since entry.tbl ~seq:tt.tx_base_seq tuple
            then
              conflict session txn
                "concurrent commit wrote tuple %s in table %s"
                (Format.asprintf "%a" Tuple.pp tuple)
                name)
          tt.tx_ops)
    writers;
  (* Apply through the storage transaction API so each WAL carries the
     whole group under txn framing. The per-table Txn_commit records
     appended here are provisional when a commit manifest is attached:
     the transaction's real commit point is the manifest record below,
     and recovery discards any per-table group whose manifest record
     never synced — all-or-nothing across tables. Without a manifest
     (standalone/embedded tables), the per-table record remains the
     commit point and cross-table atomicity is bounded to a committed
     prefix in table-name order (docs/STORAGE.md). *)
  let commits = ref [] in
  List.iter
    (fun (name, tt) ->
      let entry = find_entry db name in
      let ops = List.rev tt.tx_ops in
      (* The cross-table crash window: one hit per participating
         table, immediately before its provisional group is logged. *)
      Storage.Failpoint.hit "txn.commit.table";
      Storage.Table.begin_txn entry.tbl ~txid:txn.txn_id;
      (match
         List.iter
           (function
             | Op_insert tuple ->
               ignore (Storage.Table.txn_insert entry.tbl ~txid:txn.txn_id tuple)
             | Op_delete tuple ->
               Storage.Table.txn_delete entry.tbl ~txid:txn.txn_id tuple)
           ops
       with
      | () ->
        let seq = Storage.Table.commit_txn entry.tbl ~txid:txn.txn_id in
        commits := (name, seq) :: !commits
      | exception Update.Not_in_relation ->
        (* FCW should have caught this; belt and braces for a commit
           that raced something the ledger missed. *)
        Storage.Table.abort_txn entry.tbl ~txid:txn.txn_id;
        conflict session txn "tuple vanished from %s during commit" name
      | exception Storage.Storage_error.Error e ->
        (try Storage.Table.abort_txn entry.tbl ~txid:txn.txn_id
         with Storage.Storage_error.Error _ -> ());
        rollback_txn session txn;
        raise (Storage.Storage_error.Error e));
      (* Satellite: only committed writes feed the auto-analyze
         threshold — rolled-back transactions never count. *)
      note_writes db entry (List.length ops))
    writers;
  (* The transaction's commit point: the manifest record naming every
     participating table. Appended after all per-table groups, synced
     after all per-table syncs (here when synchronous, by the server's
     group commit otherwise) — so a crash before this record's sync
     rolls the whole transaction back everywhere. *)
  (match db.manifest with
  | Some manifest when writers <> [] ->
    Storage.Manifest.append manifest ~txid:txn.txn_id ~tables:(List.rev !commits);
    if db.manifest_synchronous then Storage.Manifest.sync manifest
  | _ -> ());
  if List.length writers > 1 then
    Obs.Registry.incr (registry ()) "txn.multi_table_commit";
  (* Ship the committed group downstream in commit order. *)
  (match
     List.filter_map
       (fun (name, tt) ->
         match
           List.rev_map
             (function
               | Op_insert t -> Storage.Wal.Insert t
               | Op_delete t -> Storage.Wal.Delete t)
             tt.tx_ops
         with
         | [] -> None
         | entries -> Some (name, entries))
       writers
   with
  | [] -> ()
  | writes -> emit_repl db ~txid:txn.txn_id (R_writes writes));
  (* The commit point: fold the committed writes into dependent views
     and emit CDC deltas — never earlier, so subscribers and view
     readers cannot observe the uncommitted overlay. *)
  List.iter
    (fun (name, tt) ->
      maintain_views db ~base:name
        (List.rev_map
           (function
             | Op_insert t -> Views.Catalog.Ins t
             | Op_delete t -> Views.Catalog.Del t)
           tt.tx_ops))
    writers;
  Obs.Registry.incr (registry ()) "txn.commit";
  end_txn session txn;
  Eval.Done "transaction committed"

let rec exec_txn session txn stats statement =
  let db = session.sdb in
  match statement with
  | Ast.Begin -> error "a transaction is already open"
  | Ast.Commit -> commit_txn session txn
  | Ast.Rollback ->
    Obs.Span.with_span (Obs.Span.Txn "rollback") "txn-rollback" @@ fun _ ->
    rollback_txn session txn;
    Eval.Done "transaction rolled back"
  | Ast.Create _ -> error "CREATE TABLE is not allowed inside a transaction"
  | Ast.Drop _ -> error "DROP TABLE is not allowed inside a transaction"
  | Ast.Create_view _ -> error "CREATE VIEW is not allowed inside a transaction"
  | Ast.Drop_view _ -> error "DROP VIEW is not allowed inside a transaction"
  | Ast.Insert (name, rows) ->
    require_writable db name;
    let tt = txn_touch db txn name in
    let inserted =
      List.fold_left
        (fun count row ->
          if txn_do_insert tt (Compile.tuple_of_row tt.tx_schema row) then
            count + 1
          else count)
        0 rows
    in
    Eval.Done (Printf.sprintf "%d row(s) inserted" inserted)
  | Ast.Delete_values (name, row) ->
    require_writable db name;
    let tt = txn_touch db txn name in
    let tuple = Compile.tuple_of_row tt.tx_schema row in
    (match txn_do_delete tt tuple with
    | () -> Eval.Done "1 row deleted"
    | exception Update.Not_in_relation ->
      error "tuple %s is not in %s" (Format.asprintf "%a" Tuple.pp tuple) name)
  | Ast.Delete_where (name, condition) ->
    require_writable db name;
    let tt = txn_touch db txn name in
    let victims = txn_matching tt condition in
    List.iter (fun tuple -> txn_do_delete tt tuple) victims;
    Eval.Done (Printf.sprintf "%d row(s) deleted" (List.length victims))
  | Ast.Update_set (name, assignments, condition) ->
    require_writable db name;
    let tt = txn_touch db txn name in
    let resolved =
      List.map
        (fun (column, literal) ->
          ( Compile.attribute_of tt.tx_schema column,
            Compile.value_of_literal literal ))
        assignments
    in
    let victims = txn_matching tt condition in
    List.iter
      (fun victim ->
        let image =
          List.fold_left
            (fun tuple (attribute, value) ->
              Tuple.set_field tt.tx_schema tuple attribute value)
            victim resolved
        in
        if not (Tuple.equal image victim) then begin
          ignore (txn_do_insert tt image);
          txn_do_delete tt victim
        end)
      victims;
    Eval.Done (Printf.sprintf "%d row(s) updated" (List.length victims))
  | Ast.Select s ->
    let source, order = txn_resolve_source db txn s.Ast.source in
    let filtered =
      Compile.apply_where (Nfr.schema source) order source s.Ast.where
    in
    Eval.Rows (Compile.shape_select filtered ~order s)
  | Ast.Select_count (source, condition) ->
    let nfr, order = txn_resolve_source db txn source in
    let filtered = Compile.apply_where (Nfr.schema nfr) order nfr condition in
    count_done filtered
  | Ast.Explain s -> Eval.Done (explain_text db s)
  | Ast.Explain_analyze _ ->
    error
      "EXPLAIN ANALYZE is not allowed inside a transaction (physical \
       operators read committed state, not the snapshot)"
  | Ast.History (series, last) -> (
    match Systab.history_result db.sys ~series ~last with
    | Ok rows -> Eval.Rows rows
    | Error msg -> error "%s" msg)
  | Ast.Analyze name ->
    (* Statistics describe the committed table; collecting them inside
       a transaction is allowed and reads right through the snapshot. *)
    exec_analyze db name
  | Ast.Trace inner ->
    traced_rows (fun () -> ignore (exec_txn session txn stats inner))
  | Ast.Show name ->
    if is_view db name then
      (* Views are maintained at commit points only, so a transaction
         reads the latest committed view state — they are not part of
         its snapshot. *)
      Eval.Rows (Views.Catalog.snapshot db.views name)
    else if is_system db name then Eval.Rows (sys_snapshot db name)
    else
      let tt = txn_touch db txn name in
      Eval.Rows tt.tx_nfr

and exec_session session statement =
  let verb = Ast.statement_verb statement in
  Obs.Span.with_span (Obs.Span.Statement verb) verb @@ fun statement_span ->
  let stats = Storage.Stats.create () in
  let result =
    match session.txn with
    | Some txn -> exec_txn session txn stats statement
    | None -> exec_auto session stats statement
  in
  Obs.Span.set_bytes statement_span stats.Storage.Stats.bytes_read;
  (result, stats)

and exec_auto session stats statement =
  let db = session.sdb in
  match statement with
    | Ast.Create (name, columns, order) ->
      require_primary db;
      let schema, order_attrs = Compile.table_of_columns columns order in
      add_table db name (Storage.Table.create ~order:order_attrs schema);
      emit_repl db (R_create { name; schema; order = order_attrs });
      Eval.Done (Printf.sprintf "table %s created" name)
    | Ast.Drop name ->
      require_primary db;
      if is_view db name then error "%s is a view: use DROP VIEW" name;
      if is_system db name then error "%s" (Systab.read_only_error name);
      if not (String_map.mem name db.tables) then error "unknown table %s" name;
      (match Views.Catalog.dependents db.views ~base:name with
      | [] -> ()
      | deps ->
        error "cannot drop table %s: view %s depends on it" name
          (String.concat ", " deps));
      Storage.Table.close (find_table db name);
      db.tables <- String_map.remove name db.tables;
      bump_generation db;
      emit_repl db (R_drop name);
      Eval.Done (Printf.sprintf "table %s dropped" name)
    | Ast.Create_view (view, base, by) -> (
      require_primary db;
      if Systab.is_system_name view then error "%s" (Systab.reserved_error view);
      if String_map.mem view db.tables then error "table %s already exists" view;
      if is_view db base then
        error "%s is a view: views must be defined over base tables" base;
      if is_system db base then
        error "%s is a system table: views must be defined over base tables"
          base;
      let entry = find_entry db base in
      match
        Views.Catalog.define db.views ~view ~base ~by
          (Storage.Table.snapshot entry.tbl)
      with
      | () ->
        bump_generation db;
        emit_repl db (R_create_view { view; base; by });
        Eval.Done (Printf.sprintf "view %s created" view)
      | exception Views.Catalog.View_error msg -> error "%s" msg)
    | Ast.Drop_view view -> (
      require_primary db;
      match Views.Catalog.drop db.views view with
      | () ->
        bump_generation db;
        emit_repl db (R_drop_view view);
        Eval.Done (Printf.sprintf "view %s dropped" view)
      | exception Views.Catalog.View_error msg -> error "%s" msg)
    | Ast.Insert (name, rows) ->
      require_primary db;
      require_writable db name;
      let entry = find_entry db name in
      let schema = Storage.Table.schema entry.tbl in
      let inserted, ops =
        List.fold_left
          (fun (count, ops) row ->
            let tuple = Compile.tuple_of_row schema row in
            if Storage.Table.insert entry.tbl tuple then
              (count + 1, Views.Catalog.Ins tuple :: ops)
            else (count, ops))
          (0, []) rows
      in
      note_writes db entry inserted;
      let ops = List.rev ops in
      maintain_views db ~base:name ops;
      if ops <> [] then
        emit_repl db (R_writes [ (name, entries_of_view_ops ops) ]);
      Eval.Done (Printf.sprintf "%d row(s) inserted" inserted)
    | Ast.Delete_values (name, row) ->
      require_primary db;
      require_writable db name;
      let entry = find_entry db name in
      let tuple = Compile.tuple_of_row (Storage.Table.schema entry.tbl) row in
      (match Storage.Table.delete entry.tbl tuple with
      | () ->
        note_writes db entry 1;
        maintain_views db ~base:name [ Views.Catalog.Del tuple ];
        emit_repl db (R_writes [ (name, [ Storage.Wal.Delete tuple ]) ]);
        Eval.Done "1 row deleted"
      | exception Update.Not_in_relation ->
        error "tuple %s is not in %s" (Format.asprintf "%a" Tuple.pp tuple) name)
    | Ast.Delete_where (name, condition) ->
      require_primary db;
      require_writable db name;
      let entry = find_entry db name in
      let victims, search = matching_tuples db name condition in
      add_op_stats stats search;
      List.iter (fun tuple -> Storage.Table.delete entry.tbl tuple) victims;
      note_writes db entry (List.length victims);
      maintain_views db ~base:name
        (List.map (fun t -> Views.Catalog.Del t) victims);
      if victims <> [] then
        emit_repl db
          (R_writes
             [ (name, List.map (fun t -> Storage.Wal.Delete t) victims) ]);
      Eval.Done (Printf.sprintf "%d row(s) deleted" (List.length victims))
    | Ast.Update_set (name, assignments, condition) ->
      require_primary db;
      require_writable db name;
      let entry = find_entry db name in
      let schema = Storage.Table.schema entry.tbl in
      let resolved =
        List.map
          (fun (column, literal) ->
            (Compile.attribute_of schema column, Compile.value_of_literal literal))
          assignments
      in
      let victims, search = matching_tuples db name condition in
      add_op_stats stats search;
      let image_of tuple =
        List.fold_left
          (fun tuple (attribute, value) ->
            Tuple.set_field schema tuple attribute value)
          tuple resolved
      in
      (* Insert each victim's image before deleting the victim, one
         pair at a time: a crash anywhere in the window leaves every
         victim present as itself or as its image — never silently
         lost, as the old delete-all-then-insert-all batches did.
         Assignments are constant, so an image colliding with another
         victim equals that victim's own (identity) image; identity
         pairs are skipped outright, which keeps the pairwise order
         equivalent to the batch semantics. *)
      let ops =
        List.fold_left
          (fun ops victim ->
            let image = image_of victim in
            if not (Tuple.equal image victim) then begin
              ignore (Storage.Table.insert entry.tbl image);
              Storage.Table.delete entry.tbl victim;
              Views.Catalog.Del victim :: Views.Catalog.Ins image :: ops
            end
            else ops)
          [] victims
      in
      note_writes db entry (List.length victims);
      let ops = List.rev ops in
      maintain_views db ~base:name ops;
      if ops <> [] then
        emit_repl db (R_writes [ (name, entries_of_view_ops ops) ]);
      Eval.Done (Printf.sprintf "%d row(s) updated" (List.length victims))
    | Ast.Select s -> (
      match view_in_source db s.Ast.source with
      | Some name ->
        let shaped, _ = run_view_select db s name in
        Eval.Rows shaped
      | None -> (
        match sys_in_source db s.Ast.source with
        | Some name ->
          let shaped, _ = run_sys_select db s name in
          Eval.Rows shaped
        | None ->
          let executed = run_select db s in
          add_op_stats stats executed.root;
          Eval.Rows executed.shaped))
    | Ast.Select_count (source, condition) -> (
      let select =
        { Ast.columns = None; source; where = condition; nests = []; unnests = [] }
      in
      match view_in_source db source with
      | Some name ->
        let _, filtered = run_view_select db select name in
        count_done filtered
      | None -> (
        match sys_in_source db source with
        | Some name ->
          let _, filtered = run_sys_select db select name in
          count_done filtered
        | None ->
          let executed = run_select db select in
          add_op_stats stats executed.root;
          count_done executed.filtered))
    | Ast.Explain s -> Eval.Done (explain_text db s)
    | Ast.Explain_analyze s -> (
      match view_in_source db s.Ast.source with
      | Some name ->
        let shaped, filtered = run_view_select db s name in
        Eval.Done
          (Printf.sprintf
             "physical plan (executed):\n\
             \  access: view scan %s -> %d NFR tuple(s), %d returned"
             name (Nfr.cardinality filtered) (Nfr.cardinality shaped))
      | None -> (
        match sys_in_source db s.Ast.source with
        | Some name ->
          let shaped, filtered = run_sys_select db s name in
          Eval.Done
            (Printf.sprintf
               "physical plan (executed):\n\
               \  access: system scan %s -> %d NFR tuple(s), %d returned"
               name (Nfr.cardinality filtered) (Nfr.cardinality shaped))
        | None ->
          let report = analyze_select db s in
          Storage.Stats.add stats (stats_of_report report);
          Eval.Done (render_analyze report)))
    | Ast.History (series, last) -> (
      match Systab.history_result db.sys ~series ~last with
      | Ok rows -> Eval.Rows rows
      | Error msg -> error "%s" msg)
    | Ast.Analyze name -> exec_analyze db name
    | Ast.Trace inner ->
      traced_rows (fun () ->
          let _, inner_stats = exec_session session inner in
          Storage.Stats.add stats inner_stats)
    | Ast.Show name ->
      if is_view db name then Eval.Rows (Views.Catalog.snapshot db.views name)
      else if is_system db name then Eval.Rows (sys_snapshot db name)
      else Eval.Rows (Storage.Table.snapshot (find_table db name))
    | Ast.Begin ->
      Obs.Span.with_span (Obs.Span.Txn "begin") "txn-begin" @@ fun _ ->
      begin_txn session
    | Ast.Commit | Ast.Rollback -> error "no transaction is open"

let exec db statement = exec_session (default_session db) statement

(* Discard the session's open transaction, if any — the server calls
   this when a connection dies mid-transaction. [true] when a
   transaction was actually rolled back. *)
let rollback_if_open session =
  match session.txn with
  | None -> false
  | Some txn ->
    rollback_txn session txn;
    true

let session_write_count session =
  match session.txn with
  | None -> 0
  | Some txn -> txn_write_count txn

let explain = explain_text

let exec_string db input =
  List.map (exec db) (Parser.parse_script input)

(* ------------------------------------------------------------------ *)
(* Replication apply (replica side)                                    *)
(* ------------------------------------------------------------------ *)

(* The replica's apply path. Shipped events bypass the read-only guard
   — replication is the one writer a replica has — and run through the
   same storage and view-maintenance machinery as the primary, so a
   drained replica's canonical state is byte-identical. Transaction
   groups replay through the storage transaction API and record a
   local manifest entry, so the replica's own crash recovery enforces
   the same all-or-nothing rule. *)
let apply_repl_event db event =
  let ops_of_entries entries =
    List.filter_map
      (function
        | Storage.Wal.Insert t -> Some (Views.Catalog.Ins t)
        | Storage.Wal.Delete t -> Some (Views.Catalog.Del t)
        | _ -> None)
      entries
  in
  (match event.r_change with
  | R_writes writes ->
    (match event.r_txid with
    | Some txid ->
      (* Keep local txid allocation above every applied txid so a
         post-promotion transaction can never collide with a stale
         manifest record. *)
      db.next_txid <- max db.next_txid (txid + 1);
      let commits =
        List.map
          (fun (name, entries) ->
            let entry = find_entry db name in
            Storage.Table.begin_txn entry.tbl ~txid;
            List.iter
              (function
                | Storage.Wal.Insert t ->
                  ignore (Storage.Table.txn_insert entry.tbl ~txid t)
                | Storage.Wal.Delete t -> (
                  try Storage.Table.txn_delete entry.tbl ~txid t
                  with Update.Not_in_relation -> ())
                | _ -> ())
              entries;
            (name, Storage.Table.commit_txn entry.tbl ~txid))
          writes
      in
      (match db.manifest with
      | Some manifest when commits <> [] ->
        Storage.Manifest.append manifest ~txid ~tables:commits;
        if db.manifest_synchronous then Storage.Manifest.sync manifest
      | _ -> ())
    | None ->
      List.iter
        (fun (name, entries) ->
          let entry = find_entry db name in
          List.iter
            (function
              | Storage.Wal.Insert t ->
                ignore (Storage.Table.insert entry.tbl t)
              | Storage.Wal.Delete t -> (
                try Storage.Table.delete entry.tbl t
                with Update.Not_in_relation -> ())
              | _ -> ())
            entries)
        writes);
    List.iter
      (fun (name, entries) ->
        let entry = find_entry db name in
        note_writes db entry (List.length entries);
        maintain_views db ~base:name (ops_of_entries entries))
      writes
  | R_create { name; schema; order } ->
    (* A (re)bootstrap replaces local state with the primary's. *)
    (match String_map.find_opt name db.tables with
    | Some entry ->
      Storage.Table.close entry.tbl;
      db.tables <- String_map.remove name db.tables
    | None -> ());
    add_table db name (Storage.Table.create ~order schema)
  | R_drop name -> (
    match String_map.find_opt name db.tables with
    | Some entry ->
      Storage.Table.close entry.tbl;
      db.tables <- String_map.remove name db.tables;
      bump_generation db
    | None -> ())
  | R_create_view { view; base; by } ->
    if Views.Catalog.mem db.views view then Views.Catalog.drop db.views view;
    Views.Catalog.define db.views ~view ~base ~by
      (Storage.Table.snapshot (find_table db base));
    bump_generation db
  | R_drop_view view ->
    if Views.Catalog.mem db.views view then begin
      Views.Catalog.drop db.views view;
      bump_generation db
    end);
  db.repl_seq <- max db.repl_seq event.r_seq

(* Synthesized full-state events for a fresh subscriber: the primary
   retains no historical log, so a subscription starts from a snapshot
   — CREATE plus a full insert load per table (name order), then the
   view definitions — all stamped at the current stream position; the
   live tail continues from the next sequence number. System tables
   are provider-backed and re-derive locally, so they never ship. *)
let repl_bootstrap db =
  let time = now_s () in
  let stamp change =
    { r_seq = db.repl_seq; r_txid = None; r_time = time; r_change = change }
  in
  let table_events =
    List.concat_map
      (fun (name, entry) ->
        let tbl = entry.tbl in
        let create =
          stamp
            (R_create
               {
                 name;
                 schema = Storage.Table.schema tbl;
                 order = Storage.Table.nest_order tbl;
               })
        in
        let inserts =
          Nfr.fold
            (fun nt acc ->
              List.rev_append
                (List.rev_map
                   (fun t -> Storage.Wal.Insert t)
                   (Ntuple.expand nt))
                acc)
            (Storage.Table.snapshot tbl) []
        in
        (* Chunked so no single bootstrap frame outgrows the wire's
           payload cap on a large table. *)
        let rec chunks acc = function
          | [] -> List.rev acc
          | entries ->
            let rec take n taken rest =
              match rest with
              | [] -> (List.rev taken, [])
              | _ when n = 0 -> (List.rev taken, rest)
              | e :: rest -> take (n - 1) (e :: taken) rest
            in
            let chunk, rest = take 1024 [] entries in
            chunks (stamp (R_writes [ (name, chunk) ]) :: acc) rest
        in
        create :: chunks [] inserts)
      (String_map.bindings db.tables)
  in
  let view_events =
    List.map
      (fun (def : Views.Catalog.def) ->
        stamp
          (R_create_view { view = def.view; base = def.base; by = def.by }))
      (Views.Catalog.defs db.views)
  in
  table_events @ view_events
