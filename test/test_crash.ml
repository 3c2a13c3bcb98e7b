(* Crash-matrix soak: drive a deterministic update trace against the
   WAL-backed table while injecting every registered failure mode at
   every registered site, then recover from disk and audit the result.
   Acceptance, per cell: recovery raises nothing, the recovered table
   passes the cross-layer audit, and its state either matches the
   golden executor exactly or the loss is visible in the structured
   recovery report. A byte-level matrix additionally truncates and
   bit-flips the WAL at every byte offset.

   Deterministic: set CRASH_SEED to reproduce a cell (default 42). *)

open Relational
open Storage
open Support

let seed =
  match Sys.getenv_opt "CRASH_SEED" with
  | Some s -> ( try int_of_string s with _ -> 42)
  | None -> 42

let order3 = Schema.attributes schema3
let start = Relation.empty schema3

let pp_fault = function
  | Failpoint.Crash -> "crash"
  | Failpoint.Short_write n -> Printf.sprintf "short:%d" n
  | Failpoint.Bit_flip n -> Printf.sprintf "flip:%d" n
  | Failpoint.Drop_write -> "drop"
  | Failpoint.Lose_unsynced -> "powercut"

let flat table = Nfr_core.Nfr.flatten (Table.snapshot table)

(* Loss that recovery is allowed to have, provided it says so. *)
let lossy report =
  report.Table.skipped_ops > 0
  || (match report.Table.snapshot_status with `Corrupt _ -> true | _ -> false)
  || (match report.Table.wal_salvage with
     | Some s -> s.Wal.bytes_skipped > 0 || s.Wal.torn_tail_bytes > 0
     | None -> false)

(* The tolerant executor mirrors salvage-recovery semantics: inserts
   are set-adds, deletes of absent tuples are skipped. *)
let tolerant_final ops =
  List.fold_left
    (fun live op ->
      match op with
      | Workload.Trace.Insert t -> Relation.add live t
      | Workload.Trace.Delete t ->
        if Relation.mem live t then Relation.remove live t else live)
    start ops

let with_scratch f =
  let wal_path = Filename.temp_file "nf2-crash" ".wal" in
  let snap_path = Filename.temp_file "nf2-crash" ".snap" in
  Sys.remove wal_path;
  Sys.remove snap_path;
  Fun.protect
    ~finally:(fun () ->
      Failpoint.reset ();
      List.iter
        (fun p -> if Sys.file_exists p then Sys.remove p)
        [ wal_path; snap_path; snap_path ^ ".tmp" ])
    (fun () -> f ~wal_path ~snap_path)

let apply_op table = function
  | Workload.Trace.Insert t -> ignore (Table.insert table t)
  | Workload.Trace.Delete t -> Table.delete table t

(* ------------------------------------------------------------------ *)
(* Site x fault matrix                                                 *)
(* ------------------------------------------------------------------ *)

(* Drive [ops] with a snapshot + checkpoint after op [mid], [fault]
   armed at [site] (firing on hit [after + 1]). Returns (ops applied,
   simulated process death). *)
let run_cell ~name ~ops ~mid ~site ~fault ~after ~wal_path ~snap_path =
  Failpoint.reset ();
  let table = Table.create ~wal_path ~order:order3 schema3 in
  let applied = ref 0 in
  let crashed =
    try
      Failpoint.arm ~after site fault;
      List.iteri
        (fun i op ->
          apply_op table op;
          incr applied;
          if i = mid then begin
            Table.save_snapshot table snap_path;
            Table.checkpoint table
          end)
        ops;
      false
    with Failpoint.Crashed _ -> true
  in
  (* The armed fault must actually have fired — a renamed or moved
     site would otherwise make every cell pass vacuously. *)
  Alcotest.(check bool)
    (name ^ ": fault fired")
    true
    (List.mem (site, fault) (Failpoint.fired ()));
  Failpoint.reset ();
  (try Table.close table with _ -> ());
  (!applied, crashed)

let recover_from_disk ~wal_path ~snap_path =
  if Sys.file_exists snap_path then
    Table.load_snapshot_salvage ~wal_path snap_path
  else Table.recover_salvage ~wal_path ~order:order3 schema3

let check_cell ~name ~ops ~applied ~crashed ~fault ~after recovered report =
  Alcotest.(check bool) (name ^ ": cross-layer audit") true
    (Table.check_invariants recovered);
  let state = flat recovered in
  let matches_prefix k =
    Relation.equal state (tolerant_final (Workload.Trace.prefix ops k))
  in
  let matches_without_op j =
    Relation.equal state
      (tolerant_final (List.filteri (fun i _ -> i <> j) ops))
  in
  let ok =
    if crashed then
      (* The in-flight op is the only ambiguity: it was either durable
         or it was not. Anything else must be reported. *)
      matches_prefix applied || matches_prefix (applied + 1) || lossy report
    else
      (* The run completed; only a silent Drop_write may shave exactly
         the op whose append was dropped. *)
      matches_prefix (List.length ops)
      || lossy report
      || (fault = Failpoint.Drop_write && matches_without_op after)
  in
  Alcotest.(check bool) (name ^ ": golden state or reported loss") true ok

(* The sites a single-table workload can reach. The cross-table
   commit windows ([txn.commit.table], [manifest.append.before]) only
   fire on multi-table transactions — the "manifest" suite below
   drives those. *)
let single_table_sites =
  List.filter
    (fun (site, _) ->
      site <> "txn.commit.table" && site <> "manifest.append.before")
    Failpoint.sites

let test_site_fault_matrix () =
  let ops = Workload.Trace.mixed ~seed start ~ops:60 in
  let total = List.length ops in
  let mid = total / 2 in
  List.iter
    (fun (site, kind) ->
      if site <> "engine.load.record" then
        List.iter
          (fun fault ->
            (* Append sites are hit once per op: exercise one shot in
               the pre-checkpoint half and one in the WAL tail. *)
            let afters =
              if String.length site >= 3 && String.sub site 0 3 = "wal" && site <> "wal.reset"
              then [ 4; mid + 3 ]
              else [ 0 ]
            in
            List.iter
              (fun after ->
                let name =
                  Printf.sprintf "%s/%s@%d" site (pp_fault fault) after
                in
                with_scratch (fun ~wal_path ~snap_path ->
                    let applied, crashed =
                      run_cell ~name ~ops ~mid ~site ~fault ~after ~wal_path
                        ~snap_path
                    in
                    let recovered, report = recover_from_disk ~wal_path ~snap_path in
                    check_cell ~name ~ops ~applied ~crashed ~fault ~after
                      recovered report;
                    Table.close recovered))
              afters)
          (Failpoint.faults_for kind))
    single_table_sites

(* The engine loader's site, separately: it has no WAL behind it, so
   the contract is simply typed failure or visible shrinkage. *)
let test_engine_load_matrix () =
  let flat_rel = Workload.Scenarios.university_relationship ~rows:40 () in
  let rows = Relation.cardinality flat_rel in
  Fun.protect ~finally:Failpoint.reset (fun () ->
      (* Crash / torn write kill the load. *)
      List.iter
        (fun fault ->
          Failpoint.reset ();
          Failpoint.arm ~after:7 "engine.load.record" fault;
          Alcotest.(check bool)
            (Printf.sprintf "load dies on %s" (pp_fault fault))
            true
            (match Engine.load_flat flat_rel with
            | exception Failpoint.Crashed _ -> true
            | _ -> false))
        [ Failpoint.Crash; Failpoint.Short_write 3 ];
      (* A dropped record shrinks the store, silently but visibly. *)
      Failpoint.reset ();
      Failpoint.arm ~after:7 "engine.load.record" Failpoint.Drop_write;
      let store = Engine.load_flat flat_rel in
      Alcotest.(check int) "dropped record missing from the heap" (rows - 1)
        (Engine.flat_footprint store).Engine.records;
      (* A flipped record is caught as a typed error at decode time. *)
      Failpoint.reset ();
      Failpoint.arm ~after:7 "engine.load.record" (Failpoint.Bit_flip 21);
      let store = Engine.load_flat flat_rel in
      let stats = Stats.create () in
      Alcotest.(check bool) "flipped record surfaces as a typed error" true
        (match
           Engine.flat_scan_eq store ~stats (attr "Student") (v "student1")
         with
        | exception Storage_error.Error (Storage_error.Corrupt _) -> true
        | exception Storage_error.Error _ -> true
        | _ ->
          (* The flip can land in a value's bytes and still decode; the
             scan then simply returns (possibly wrong) tuples — that is
             the heap's contract, detection lives in the WAL/snapshot
             layers. Accept it, but only when nothing escaped as an
             untyped exception. *)
          true))

(* ------------------------------------------------------------------ *)
(* Byte-level matrix                                                   *)
(* ------------------------------------------------------------------ *)

let build_wal ~ops ~wal_path =
  let table = Table.create ~wal_path ~order:order3 schema3 in
  List.iter (apply_op table) ops;
  Table.close table

let entry_matches entry op =
  match (entry, op) with
  | Wal.Insert a, Workload.Trace.Insert b -> Tuple.equal a b
  | Wal.Delete a, Workload.Trace.Delete b -> Tuple.equal a b
  | _ -> false

let test_truncation_matrix () =
  with_scratch (fun ~wal_path ~snap_path:_ ->
      let ops = Workload.Trace.mixed ~seed start ~ops:40 in
      build_wal ~ops ~wal_path;
      let full = In_channel.with_open_bin wal_path In_channel.input_all in
      let arr = Array.of_list ops in
      for cut = 0 to String.length full do
        Out_channel.with_open_bin wal_path (fun oc ->
            Out_channel.output_string oc (String.sub full 0 cut));
        let salvage = Wal.replay_salvage wal_path in
        if salvage.Wal.bytes_skipped > 0 then
          Alcotest.failf "cut %d: truncation reported as mid-log damage" cut;
        List.iteri
          (fun i entry ->
            if not (entry_matches entry arr.(i)) then
              Alcotest.failf "cut %d: salvaged entry %d diverges" cut i)
          salvage.Wal.entries;
        let k = List.length salvage.Wal.entries in
        let recovered, report =
          Table.recover_salvage ~wal_path ~order:order3 schema3
        in
        if report.Table.skipped_ops > 0 then
          Alcotest.failf "cut %d: %d ops skipped" cut report.Table.skipped_ops;
        if not (Table.check_invariants recovered) then
          Alcotest.failf "cut %d: cross-layer audit failed" cut;
        if
          not
            (Relation.equal (flat recovered)
               (tolerant_final (Workload.Trace.prefix ops k)))
        then Alcotest.failf "cut %d: state is not the recovered prefix" cut;
        Table.close recovered
      done)

let test_bit_flip_matrix () =
  with_scratch (fun ~wal_path ~snap_path:_ ->
      let ops = Workload.Trace.mixed ~seed:(seed + 1) start ~ops:40 in
      build_wal ~ops ~wal_path;
      let full = In_channel.with_open_bin wal_path In_channel.input_all in
      let golden = tolerant_final ops in
      for position = 0 to String.length full - 1 do
        let damaged = Bytes.of_string full in
        Bytes.set damaged position
          (Char.chr
             (Char.code (Bytes.get damaged position)
             lxor (1 lsl (position mod 8))));
        Out_channel.with_open_bin wal_path (fun oc ->
            Out_channel.output_bytes oc damaged);
        (* Salvage must never raise, whatever the flip hit. *)
        let salvage = Wal.replay_salvage wal_path in
        let recovered, report =
          Table.recover_salvage ~wal_path ~order:order3 schema3
        in
        if not (Table.check_invariants recovered) then
          Alcotest.failf "flip at %d: cross-layer audit failed" position;
        let damage_visible =
          salvage.Wal.bytes_skipped > 0
          || salvage.Wal.torn_tail_bytes > 0
          || salvage.Wal.first_bad_offset <> None
          || report.Table.skipped_ops > 0
          (* Header flips change the log's identity rather than a
             frame: a corrupted magic demotes the parse to v0, a
             corrupted generation varint shows up directly. *)
          || salvage.Wal.format = Wal.V0
          || salvage.Wal.generation <> 1
        in
        if not (Relation.equal (flat recovered) golden || damage_visible) then
          Alcotest.failf "flip at %d: silent divergence from the golden state"
            position;
        Table.close recovered
      done)

(* ------------------------------------------------------------------ *)
(* Scheduled crash / recover / resume soak                             *)
(* ------------------------------------------------------------------ *)

let test_scheduled_crashes () =
  with_scratch (fun ~wal_path ~snap_path:_ ->
      let ops = Workload.Trace.mixed ~seed:(seed + 2) start ~ops:80 in
      let sites = [ "wal.append.before"; "wal.append.frame"; "wal.append.after" ] in
      let schedule =
        Workload.Trace.crash_schedule ~seed ~sites ~ops:(List.length ops)
          ~points:6
      in
      Alcotest.(check bool) "schedule is non-trivial" true
        (List.length schedule > 0);
      let table = ref (Table.create ~wal_path ~order:order3 schema3) in
      let upcoming = ref schedule in
      let crashes = ref 0 in
      let tolerant_apply t op =
        match op with
        | Workload.Trace.Insert tuple -> ignore (Table.insert t tuple)
        | Workload.Trace.Delete tuple -> (
          (* After a crash-after-append the op may already be durable;
             the retry below must then be a no-op. *)
          try Table.delete t tuple
          with Nfr_core.Update.Not_in_relation -> ())
      in
      List.iteri
        (fun i op ->
          (match !upcoming with
          | { Workload.Trace.after_ops; site } :: rest when after_ops = i ->
            upcoming := rest;
            Failpoint.arm site Failpoint.Crash
          | _ -> ());
          let rec attempt () =
            try tolerant_apply !table op
            with Failpoint.Crashed _ ->
              incr crashes;
              Failpoint.reset ();
              (try Table.close !table with _ -> ());
              let recovered, report =
                Table.recover_salvage ~wal_path ~order:order3 schema3
              in
              Alcotest.(check bool) "audit after mid-trace crash" true
                (Table.check_invariants recovered);
              Alcotest.(check int) "no ops lost to the crash" 0
                report.Table.skipped_ops;
              table := recovered;
              attempt ()
          in
          attempt ())
        ops;
      Alcotest.(check int) "every scheduled crash fired" (List.length schedule)
        !crashes;
      Alcotest.check relation_testable
        "resumed run converges on the golden state" (tolerant_final ops)
        (flat !table);
      Table.close !table)

(* ------------------------------------------------------------------ *)
(* Torn transactions                                                   *)
(* ------------------------------------------------------------------ *)

(* A transaction's durable footprint is one WAL record group —
   Txn_begin, the buffered ops, Txn_commit. Killing the process at
   every storage site inside that window must leave recovery
   all-or-nothing: exactly the pre-transaction state or exactly the
   post-transaction state, never a committed prefix. Silent media
   faults (a flipped or dropped frame) may instead shave ops, but only
   visibly: the salvage report or the discarded-ops counter says so. *)

let order2 = Schema.attributes schema2
let pair_tuple (a, b) = Tuple.make schema2 [ v a; v b ]

let rel_of pairs =
  List.fold_left
    (fun r p -> Relation.add r (pair_tuple p))
    (Relation.empty schema2) pairs

let txn_base_rows = [ ("a1", "b1"); ("a2", "b2"); ("a3", "b3"); ("a4", "b4") ]
let txn_inserts = [ ("n1", "x1"); ("n2", "x2"); ("n3", "x3"); ("n4", "x4") ]
let txn_deletes = [ ("a1", "b1"); ("a2", "b2") ]
let txn_base = rel_of txn_base_rows

let txn_post =
  List.fold_left
    (fun r p -> Relation.remove r (pair_tuple p))
    (rel_of (txn_base_rows @ txn_inserts))
    txn_deletes

(* Post-state minus exactly one of the transaction's ops: what a
   silently dropped or flipped frame inside a committed group leaves
   behind. *)
let txn_minus_one =
  List.map (fun p -> Relation.remove txn_post (pair_tuple p)) txn_inserts
  @ List.map (fun p -> Relation.add txn_post (pair_tuple p)) txn_deletes

(* Commit base rows, then leave a transaction open holding four
   buffered inserts and two buffered deletes. *)
let open_txn_db table =
  let db = Nfql.Physical.create () in
  Nfql.Physical.add_table db "t" table;
  ignore
    (Nfql.Physical.exec_string db
       "insert into t values ('a1','b1'),('a2','b2'),('a3','b3'),('a4','b4')");
  ignore
    (Nfql.Physical.exec_string db
       "begin;\n\
        insert into t values ('n1','x1'),('n2','x2'),('n3','x3'),('n4','x4');\n\
        delete from t where A = 'a1';\n\
        delete from t where A = 'a2'");
  db

let recover2_from_disk ~wal_path ~snap_path =
  if Sys.file_exists snap_path then
    Table.load_snapshot_salvage ~wal_path snap_path
  else Table.recover_salvage ~wal_path ~order:order2 schema2

let check_torn ~name ~fault recovered report =
  Alcotest.(check bool) (name ^ ": cross-layer audit") true
    (Table.check_invariants recovered);
  (* Judge canonicality against the table's own nest order: a flipped
     snapshot may decode under a mangled schema, which the state check
     below rejects (no silent match) — but the recovered structure
     must still be a canonical form. *)
  Alcotest.(check bool)
    (name ^ ": recovered snapshot is canonical")
    true
    (Nfr_core.Nest.is_canonical (Table.snapshot recovered)
       (Table.nest_order recovered));
  let state = flat recovered in
  let strict =
    Relation.equal state txn_base || Relation.equal state txn_post
  in
  let ok =
    match fault with
    | Failpoint.Crash | Failpoint.Short_write _ | Failpoint.Lose_unsynced ->
      (* Process death (or power loss) mid-commit: strictly
         all-or-nothing. A power cut drops the whole unsynced group —
         begin, ops and commit record together — so recovery must land
         exactly on the pre-transaction state. *)
      strict
    | Failpoint.Bit_flip _ | Failpoint.Drop_write ->
      strict || lossy report
      || report.Table.discarded_txn_ops > 0
      || List.exists (Relation.equal state) txn_minus_one
  in
  Alcotest.(check bool) (name ^ ": all-or-nothing recovery") true ok

let test_torn_txn_matrix () =
  List.iter
    (fun (site, kind) ->
      if site <> "engine.load.record" then
        List.iter
          (fun fault ->
            let is_append =
              String.length site >= 10 && String.sub site 0 10 = "wal.append"
            in
            (* Committing appends Txn_begin, six ops, Txn_commit: hit
               the begin record, a mid-group op, and the commit record
               itself. *)
            let afters = if is_append then [ 0; 3; 7 ] else [ 0 ] in
            List.iter
              (fun after ->
                let name =
                  Printf.sprintf "txn %s/%s@%d" site (pp_fault fault) after
                in
                with_scratch (fun ~wal_path ~snap_path ->
                    Failpoint.reset ();
                    let table =
                      Table.create ~wal_path ~order:order2 schema2
                    in
                    let db = open_txn_db table in
                    Failpoint.arm ~after site fault;
                    let crashed =
                      try
                        if not is_append then begin
                          (* A background snapshot + checkpoint while
                             the transaction is open: buffered writes
                             must not leak through either path. *)
                          Table.save_snapshot table snap_path;
                          Table.checkpoint table
                        end;
                        ignore (Nfql.Physical.exec_string db "commit");
                        false
                      with Failpoint.Crashed _ -> true
                    in
                    Alcotest.(check bool)
                      (name ^ ": fault fired")
                      true
                      (List.mem (site, fault) (Failpoint.fired ()));
                    (match fault with
                    | Failpoint.Crash | Failpoint.Short_write _
                    | Failpoint.Lose_unsynced ->
                      Alcotest.(check bool)
                        (name ^ ": simulated process death")
                        true crashed
                    | _ -> ());
                    Failpoint.reset ();
                    (try Table.close table with _ -> ());
                    let recovered, report =
                      recover2_from_disk ~wal_path ~snap_path
                    in
                    check_torn ~name ~fault recovered report;
                    Table.close recovered))
              afters)
          (Failpoint.faults_for kind))
    single_table_sites

(* BEGIN; DML; ROLLBACK must be byte-identical to never having run:
   same in-memory state, same WAL bytes, same commit sequence. *)
let test_rollback_byte_identical () =
  with_scratch (fun ~wal_path ~snap_path:_ ->
      let table = Table.create ~wal_path ~order:order2 schema2 in
      let db = Nfql.Physical.create () in
      Nfql.Physical.add_table db "t" table;
      ignore
        (Nfql.Physical.exec_string db
           "insert into t values ('a1','b1'),('a2','b2')");
      let wal_before = In_channel.with_open_bin wal_path In_channel.input_all in
      let seq_before = Table.commit_seq table in
      let state_before = flat table in
      ignore
        (Nfql.Physical.exec_string db
           "begin;\n\
            insert into t values ('n1','x1');\n\
            delete from t where A = 'a1';\n\
            rollback");
      Alcotest.(check string) "WAL bytes unchanged" wal_before
        (In_channel.with_open_bin wal_path In_channel.input_all);
      Alcotest.(check int) "commit sequence unchanged" seq_before
        (Table.commit_seq table);
      Alcotest.check relation_testable "state unchanged" state_before
        (flat table);
      Table.close table)

(* ------------------------------------------------------------------ *)
(* NFQL UPDATE crash window                                            *)
(* ------------------------------------------------------------------ *)

let test_update_crash_window () =
  (* The executor applies UPDATE as per-victim
     insert-image-then-delete-victim pairs, so a crash anywhere inside
     the statement must leave every matched row present as its old or
     its new image — a recoverable superset, never a silent loss. Land
     the crash mid-statement: the six row updates append twelve WAL
     frames, and the fault arms on the sixth. *)
  with_scratch (fun ~wal_path ~snap_path:_ ->
      let order2 = Schema.attributes schema2 in
      let table = Table.create ~wal_path ~order:order2 schema2 in
      let db = Nfql.Physical.create () in
      Nfql.Physical.add_table db "t" table;
      ignore
        (Nfql.Physical.exec_string db
           "insert into t values ('a1','b1'),('a2','b2'),('a3','b3'),\
            ('a4','b4'),('a5','b5'),('a6','b6')");
      let victims = Relation.tuples (flat table) in
      Alcotest.(check int) "six distinct rows" 6 (List.length victims);
      let image_of victim =
        Tuple.set_field schema2 victim (attr "B") (v "b9")
      in
      Failpoint.arm ~after:5 "wal.append.frame" Failpoint.Crash;
      let crashed =
        try
          ignore
            (Nfql.Physical.exec_string db
               "update t set B = 'b9' where A >= 'a1'");
          false
        with Failpoint.Crashed _ -> true
      in
      Alcotest.(check bool) "crash landed inside the UPDATE" true crashed;
      Alcotest.(check bool) "fault fired" true
        (List.mem ("wal.append.frame", Failpoint.Crash) (Failpoint.fired ()));
      Failpoint.reset ();
      (try Table.close table with _ -> ());
      let recovered, report =
        Table.recover_salvage ~wal_path ~order:order2 schema2
      in
      Alcotest.(check bool) "cross-layer audit" true
        (Table.check_invariants recovered);
      Alcotest.(check int) "no ops silently skipped" 0
        report.Table.skipped_ops;
      let state = flat recovered in
      List.iter
        (fun victim ->
          Alcotest.(check bool)
            (Format.asprintf "row %a survives as itself or its image"
               Tuple.pp victim)
            true
            (Relation.mem state victim || Relation.mem state (image_of victim)))
        victims;
      (* And some rows must already carry the new image — otherwise the
         crash landed before the statement did any work and the window
         was never exercised. *)
      Alcotest.(check bool) "the update made durable progress" true
        (List.exists (fun victim -> Relation.mem state (image_of victim)) victims);
      Table.close recovered)

(* ------------------------------------------------------------------ *)
(* Durability contract: flush is not fsync                             *)
(* ------------------------------------------------------------------ *)

let sync_rows = List.init 6 (fun i -> row schema3 [ "a"; "b"; string_of_int i ])

(* A synchronous table fsyncs at every commit point, so a power cut
   (everything OS-buffered-but-unsynced dropped) may only lose the one
   operation whose acknowledgement never made it out — never an
   acknowledged one. *)
let test_acked_commits_survive_power_cut () =
  with_scratch @@ fun ~wal_path ~snap_path:_ ->
  let table = Table.create ~wal_path ~order:order3 schema3 in
  List.iter (fun r -> ignore (Table.insert table r)) sync_rows;
  Failpoint.arm "wal.sync.before" Failpoint.Lose_unsynced;
  let crashed =
    try
      ignore (Table.insert table (row schema3 [ "a"; "b"; "unacked" ]));
      false
    with Failpoint.Crashed _ -> true
  in
  Alcotest.(check bool) "power cut fired" true crashed;
  Failpoint.reset ();
  (try Table.close table with _ -> ());
  let recovered = Table.recover ~wal_path ~order:order3 schema3 in
  let expected = List.fold_left Relation.add start sync_rows in
  Alcotest.(check bool) "exactly the acknowledged rows" true
    (Relation.equal expected (flat recovered));
  Table.close recovered

(* The pre-fix behaviour, reproduced: "fsync" was only a user-space
   flush, so a power cut after N acknowledged commits could drop every
   one of them. An asynchronous table whose WAL is never synced is
   exactly that code path; the same power-cut fault that loses nothing
   acknowledged above loses everything here. This is the cell that
   would have failed before the fix. *)
let test_flush_only_wal_loses_acked_commits () =
  with_scratch @@ fun ~wal_path ~snap_path:_ ->
  let table = Table.create ~wal_path ~synchronous:false ~order:order3 schema3 in
  List.iter (fun r -> ignore (Table.insert table r)) sync_rows;
  Alcotest.(check bool) "appends were flushed but not fsynced" true
    (Table.wal_unsynced table > 0);
  Failpoint.arm "wal.sync.before" Failpoint.Lose_unsynced;
  let crashed = try Table.sync_wal table; false with Failpoint.Crashed _ -> true in
  Alcotest.(check bool) "power cut fired" true crashed;
  Failpoint.reset ();
  (try Table.close table with _ -> ());
  let recovered = Table.recover ~wal_path ~order:order3 schema3 in
  Alcotest.(check bool) "every flush-only commit is gone" true
    (Relation.equal start (flat recovered));
  Table.close recovered

(* And the group-commit contract: once [sync_wal] has returned, a
   later power cut cannot touch the batch it covered. *)
let test_group_sync_makes_batch_durable () =
  with_scratch @@ fun ~wal_path ~snap_path:_ ->
  let table = Table.create ~wal_path ~synchronous:false ~order:order3 schema3 in
  List.iter (fun r -> ignore (Table.insert table r)) sync_rows;
  Table.sync_wal table;
  Alcotest.(check int) "nothing left unsynced" 0 (Table.wal_unsynced table);
  (* Append one more, unsynced, and cut the power: only it may die. *)
  ignore (Table.insert table (row schema3 [ "a"; "b"; "unsynced" ]));
  Failpoint.arm "wal.sync.before" Failpoint.Lose_unsynced;
  let crashed = try Table.sync_wal table; false with Failpoint.Crashed _ -> true in
  Alcotest.(check bool) "power cut fired" true crashed;
  Failpoint.reset ();
  (try Table.close table with _ -> ());
  let recovered = Table.recover ~wal_path ~order:order3 schema3 in
  let expected = List.fold_left Relation.add start sync_rows in
  Alcotest.(check bool) "the synced batch survived intact" true
    (Relation.equal expected (flat recovered));
  Table.close recovered

(* ------------------------------------------------------------------ *)
(* View maintenance crash window                                       *)
(* ------------------------------------------------------------------ *)

(* The ["view.maintain"] failpoint sits between base-table commit and
   view delta apply. A crash there loses the delta but not the base;
   recovery rematerializes every surviving definition by full renest
   of the recovered base ([attach_views_wal]), so the reopened view
   must equal the renest of whatever the base WAL salvaged. *)

let view_renest db name =
  Nfr_core.Nest.canonical
    (Nfr_core.Nfr.flatten
       (Storage.Table.snapshot (Option.get (Nfql.Physical.table db "t"))))
    (Views.Catalog.order (Nfql.Physical.catalog db) name)

let check_view_converged db name =
  Alcotest.check nfr_testable
    (name ^ " equals the renest of the recovered base")
    (view_renest db name)
    (Views.Catalog.snapshot (Nfql.Physical.catalog db) name)

let recover_with_views ~wal_path ~views_wal =
  let table = Table.recover ~wal_path ~order:order3 schema3 in
  let db = Nfql.Physical.create () in
  Nfql.Physical.add_table db "t" table;
  Nfql.Physical.attach_views_wal db ~path:views_wal;
  db

let test_view_maintain_crash_autocommit () =
  with_scratch @@ fun ~wal_path ~snap_path ->
  let views_wal = snap_path in
  let db = Nfql.Physical.create () in
  Nfql.Physical.add_table db "t" (Table.create ~wal_path ~order:order3 schema3);
  Nfql.Physical.attach_views_wal db ~path:views_wal;
  ignore (Nfql.Physical.exec_string db "insert into t values ('a1','b1','c1')");
  ignore (Nfql.Physical.exec_string db "create view v as nest t by C");
  Failpoint.arm "view.maintain" Failpoint.Crash;
  let crashed =
    try
      ignore
        (Nfql.Physical.exec_string db "insert into t values ('a2','b2','c1')");
      false
    with Failpoint.Crashed _ -> true
  in
  Failpoint.reset ();
  Alcotest.(check bool) "died between base commit and view apply" true crashed;
  (* The base committed the row the view never saw. *)
  let db' = recover_with_views ~wal_path ~views_wal in
  Alcotest.(check int) "base kept both rows" 2
    (Relation.cardinality
       (Nfr_core.Nfr.flatten
          (Storage.Table.snapshot (Option.get (Nfql.Physical.table db' "t")))));
  check_view_converged db' "v";
  (* Incremental maintenance resumes cleanly on the rebuilt store. *)
  ignore (Nfql.Physical.exec_string db' "insert into t values ('a3','b3','c1')");
  check_view_converged db' "v"

let test_view_maintain_crash_txn () =
  with_scratch @@ fun ~wal_path ~snap_path ->
  let views_wal = snap_path in
  let db = Nfql.Physical.create () in
  Nfql.Physical.add_table db "t" (Table.create ~wal_path ~order:order3 schema3);
  Nfql.Physical.attach_views_wal db ~path:views_wal;
  ignore (Nfql.Physical.exec_string db "create view v as nest t by B");
  Failpoint.arm "view.maintain" Failpoint.Crash;
  let crashed =
    try
      ignore
        (Nfql.Physical.exec_string db
           "begin; insert into t values ('a1','b1','c1'); insert into t \
            values ('a2','b1','c2'); commit");
      false
    with Failpoint.Crashed _ -> true
  in
  Failpoint.reset ();
  Alcotest.(check bool) "died after txn commit, before view apply" true crashed;
  let db' = recover_with_views ~wal_path ~views_wal in
  Alcotest.(check int) "the whole transaction survived" 2
    (Relation.cardinality
       (Nfr_core.Nfr.flatten
          (Storage.Table.snapshot (Option.get (Nfql.Physical.table db' "t")))));
  check_view_converged db' "v"

(* ------------------------------------------------------------------ *)
(* Cross-table atomicity: the global commit manifest                    *)
(* ------------------------------------------------------------------ *)

(* A multi-table COMMIT's durable footprint is one provisional record
   group per participating table plus ONE manifest record; the
   manifest record (synced last) is the commit point. Killing the
   process at every window in that sequence must leave recovery
   all-or-nothing ACROSS tables: every table has the transaction, or
   none does, with the rollbacks reported per table. *)

let xt_base_t = [ ("t1", "b1"); ("t2", "b2") ]
let xt_base_u = [ ("u1", "b1"); ("u2", "b2") ]
let xt_txn_t = [ ("tn1", "x1"); ("tn2", "x2") ]
let xt_txn_u = [ ("un1", "x1"); ("un2", "x2") ]

let with_xt_scratch f =
  let wal_t = Filename.temp_file "nf2-xt-t" ".wal" in
  let wal_u = Filename.temp_file "nf2-xt-u" ".wal" in
  let mpath = Filename.temp_file "nf2-xt-m" ".wal" in
  List.iter Sys.remove [ wal_t; wal_u; mpath ];
  Fun.protect
    ~finally:(fun () ->
      Failpoint.reset ();
      List.iter
        (fun p -> if Sys.file_exists p then Sys.remove p)
        [ wal_t; wal_u; mpath ])
    (fun () -> f ~wal_t ~wal_u ~mpath)

let xt_insert_stmt table pairs =
  Printf.sprintf "insert into %s values %s" table
    (String.concat ","
       (List.map (fun (a, b) -> Printf.sprintf "('%s','%s')" a b) pairs))

(* A two-table database with committed base rows and (optionally) the
   global commit manifest attached. *)
let xt_setup ?(sync = true) ?(with_manifest = true) ~wal_t ~wal_u ~mpath () =
  let tt =
    Table.create ~wal_path:wal_t ~synchronous:sync ~order:order2 schema2
  in
  let tu =
    Table.create ~wal_path:wal_u ~synchronous:sync ~order:order2 schema2
  in
  let db = Nfql.Physical.create () in
  Nfql.Physical.add_table db "t" tt;
  Nfql.Physical.add_table db "u" tu;
  if with_manifest then
    Nfql.Physical.attach_manifest ~synchronous:sync db
      (Manifest.open_log mpath);
  ignore (Nfql.Physical.exec_string db (xt_insert_stmt "t" xt_base_t));
  ignore (Nfql.Physical.exec_string db (xt_insert_stmt "u" xt_base_u));
  (db, tt, tu)

let xt_commit db =
  ignore
    (Nfql.Physical.exec_string db
       (Printf.sprintf "begin; %s; %s; commit"
          (xt_insert_stmt "t" xt_txn_t)
          (xt_insert_stmt "u" xt_txn_u)))

let xt_recover ?durable ~wal_path () =
  Table.recover_salvage ?durable ~wal_path ~order:order2 schema2

let xt_state ~name recovered =
  Alcotest.(check bool) (name ^ ": cross-layer audit") true
    (Table.check_invariants recovered);
  flat recovered

let has_all state pairs =
  List.for_all (fun p -> Relation.mem state (pair_tuple p)) pairs

let has_none state pairs =
  List.for_all (fun p -> not (Relation.mem state (pair_tuple p))) pairs

let xt_discarded report =
  List.fold_left (fun acc (_, ops) -> acc + ops) 0 report.Table.discarded_txns

(* The seed bug, reproduced: WITHOUT a manifest the per-table commit
   record is the commit point, so dying between the two tables'
   commit appends recovers half the transaction — t has its rows, u
   does not. The same crash artifacts judged through an (empty)
   manifest roll the half back everywhere. This is the cell that
   would have failed before the fix. *)
let test_cross_table_seed_bug () =
  with_xt_scratch @@ fun ~wal_t ~wal_u ~mpath ->
  let db, tt, tu = xt_setup ~with_manifest:false ~wal_t ~wal_u ~mpath () in
  Failpoint.arm ~after:1 "txn.commit.table" Failpoint.Crash;
  let crashed = try xt_commit db; false with Failpoint.Crashed _ -> true in
  Alcotest.(check bool) "died between the two tables' commits" true crashed;
  Failpoint.reset ();
  (try Table.close tt with _ -> ());
  (try Table.close tu with _ -> ());
  (* Pre-fix recovery: t committed alone — the torn write set. *)
  let rt, _ = xt_recover ~wal_path:wal_t () in
  let ru, _ = xt_recover ~wal_path:wal_u () in
  let st = xt_state ~name:"seed-bug t" rt in
  let su = xt_state ~name:"seed-bug u" ru in
  Alcotest.(check bool) "t recovered its half of the transaction" true
    (has_all st xt_txn_t);
  Alcotest.(check bool) "u lost its half of the transaction" true
    (has_none su xt_txn_u);
  Table.close rt;
  Table.close ru;
  (* Post-fix recovery of the same bytes: no manifest record, so the
     stray half rolls back and both tables agree again. *)
  let manifest = Manifest.open_log mpath in
  let durable = Manifest.durable manifest in
  let rt, report_t = xt_recover ~durable ~wal_path:wal_t () in
  let ru, _ = xt_recover ~durable ~wal_path:wal_u () in
  let st = xt_state ~name:"manifest t" rt in
  let su = xt_state ~name:"manifest u" ru in
  Alcotest.(check bool) "manifest recovery rolls the half back" true
    (has_none st xt_txn_t && has_none su xt_txn_u);
  Alcotest.(check bool) "base rows intact" true
    (has_all st xt_base_t && has_all su xt_base_u);
  Alcotest.(check bool) "the rollback is reported, not silent" true
    (xt_discarded report_t > 0);
  Manifest.close manifest;
  Table.close rt;
  Table.close ru

(* With the manifest attached, kill the process in every commit
   window: before either table's provisional append, between the two,
   mid-frame inside the second group, and at the manifest record
   itself. Recovery through the manifest must be all-or-nothing across
   both tables in every cell. *)
let test_cross_table_all_or_nothing () =
  List.iter
    (fun (site, after) ->
      let name = Printf.sprintf "xt %s@%d" site after in
      with_xt_scratch @@ fun ~wal_t ~wal_u ~mpath ->
      let db, tt, tu = xt_setup ~wal_t ~wal_u ~mpath () in
      Failpoint.arm ~after site Failpoint.Crash;
      let crashed = try xt_commit db; false with Failpoint.Crashed _ -> true in
      Alcotest.(check bool) (name ^ ": simulated process death") true crashed;
      Alcotest.(check bool)
        (name ^ ": fault fired")
        true
        (List.mem (site, Failpoint.Crash) (Failpoint.fired ()));
      Failpoint.reset ();
      (try Table.close tt with _ -> ());
      (try Table.close tu with _ -> ());
      let manifest = Manifest.open_log mpath in
      let durable = Manifest.durable manifest in
      let rt, report_t = xt_recover ~durable ~wal_path:wal_t () in
      let ru, report_u = xt_recover ~durable ~wal_path:wal_u () in
      let st = xt_state ~name:(name ^ " t") rt in
      let su = xt_state ~name:(name ^ " u") ru in
      Alcotest.(check bool) (name ^ ": base rows intact") true
        (has_all st xt_base_t && has_all su xt_base_u);
      (* Every one of these cells dies before the manifest record is
         durable, so the transaction must be gone from BOTH tables —
         a committed half in either one is the seed bug. *)
      Alcotest.(check bool) (name ^ ": rolled back everywhere") true
        (has_none st xt_txn_t && has_none su xt_txn_u);
      (* A table whose commit record made it to disk must say what it
         rolled back. *)
      if site = "manifest.append.before" then begin
        Alcotest.(check int) (name ^ ": t reports its rollback") 2
          (xt_discarded report_t);
        Alcotest.(check int) (name ^ ": u reports its rollback") 2
          (xt_discarded report_u)
      end;
      Manifest.close manifest;
      Table.close rt;
      Table.close ru)
    [
      ("txn.commit.table", 0);
      ("txn.commit.table", 1);
      ("manifest.append.before", 0);
      (* 9 commit-path frames: t's group (hits 1-4), u's group (5-8),
         the manifest record (9). Tear u's group mid-frame, then the
         manifest record itself. *)
      ("wal.append.frame", 5);
      ("wal.append.frame", 8);
    ]

(* Group commit: tables synced first, manifest last. A power cut at
   the MANIFEST's own sync loses only the manifest record — and with
   it, by design, the whole transaction in every table. *)
let test_cross_table_manifest_power_cut () =
  with_xt_scratch @@ fun ~wal_t ~wal_u ~mpath ->
  let db, tt, tu = xt_setup ~sync:false ~wal_t ~wal_u ~mpath () in
  Nfql.Physical.sync_wal db;
  xt_commit db;
  Alcotest.(check bool) "manifest record awaits the group sync" true
    (Storage.Manifest.unsynced_bytes
       (Option.get (Nfql.Physical.manifest db))
    > 0);
  (* Table syncs are hits 1 and 2; the manifest's sync is hit 3. *)
  Failpoint.arm ~after:2 "wal.sync.before" Failpoint.Lose_unsynced;
  let crashed =
    try Nfql.Physical.sync_wal db; false with Failpoint.Crashed _ -> true
  in
  Alcotest.(check bool) "power cut at the manifest sync" true crashed;
  Failpoint.reset ();
  (try Table.close tt with _ -> ());
  (try Table.close tu with _ -> ());
  let manifest = Manifest.open_log mpath in
  let durable = Manifest.durable manifest in
  let rt, report_t = xt_recover ~durable ~wal_path:wal_t () in
  let ru, report_u = xt_recover ~durable ~wal_path:wal_u () in
  let st = xt_state ~name:"powercut t" rt in
  let su = xt_state ~name:"powercut u" ru in
  Alcotest.(check bool) "base rows intact" true
    (has_all st xt_base_t && has_all su xt_base_u);
  Alcotest.(check bool) "unacknowledged transaction gone from BOTH" true
    (has_none st xt_txn_t && has_none su xt_txn_u);
  Alcotest.(check int) "t reports the rollback" 2 (xt_discarded report_t);
  Alcotest.(check int) "u reports the rollback" 2 (xt_discarded report_u);
  Manifest.close manifest;
  Table.close rt;
  Table.close ru

(* And the flip side: once the covering sync has returned — the
   acknowledgement barrier — a later power cut cannot touch the
   transaction in any table. *)
let test_cross_table_acked_commit_survives () =
  with_xt_scratch @@ fun ~wal_t ~wal_u ~mpath ->
  let db, tt, tu = xt_setup ~sync:false ~wal_t ~wal_u ~mpath () in
  xt_commit db;
  Nfql.Physical.sync_wal db;
  Alcotest.(check int) "nothing left unsynced" 0
    (Nfql.Physical.wal_unsynced db);
  (* One more (unacknowledged) write, then the power cut. *)
  ignore
    (Nfql.Physical.exec_string db "insert into t values ('late','unsynced')");
  Failpoint.arm "wal.sync.before" Failpoint.Lose_unsynced;
  let crashed =
    try Nfql.Physical.sync_wal db; false with Failpoint.Crashed _ -> true
  in
  Alcotest.(check bool) "power cut fired" true crashed;
  Failpoint.reset ();
  (try Table.close tt with _ -> ());
  (try Table.close tu with _ -> ());
  let manifest = Manifest.open_log mpath in
  let durable = Manifest.durable manifest in
  let rt, _ = xt_recover ~durable ~wal_path:wal_t () in
  let ru, _ = xt_recover ~durable ~wal_path:wal_u () in
  let st = xt_state ~name:"acked t" rt in
  let su = xt_state ~name:"acked u" ru in
  Alcotest.(check bool) "the acknowledged transaction survived in BOTH" true
    (has_all st xt_txn_t && has_all su xt_txn_u
    && has_all st xt_base_t && has_all su xt_base_u);
  Alcotest.(check bool) "only the unacknowledged write may die" true
    (not (Relation.mem st (pair_tuple ("late", "unsynced"))));
  Manifest.close manifest;
  Table.close rt;
  Table.close ru

(* ------------------------------------------------------------------ *)
(* The drain's save-then-checkpoint windows                            *)
(* ------------------------------------------------------------------ *)

(* A served table's life in a WAL directory: start-up saves a base
   snapshot and checkpoints, writes are acknowledged, and the drain
   saves a snapshot and checkpoints again — with [fault] at [site]
   killing the drain. A restart (strict [load_snapshot], as the server
   runs it, and the salvage variant) must recover exactly the
   acknowledged state: a crash once the new snapshot is in place but
   before the WAL truncation skips the now-stale log instead of
   applying it twice; a crash before the rename recovers the old
   snapshot plus the whole log. Writes after the restart must survive
   the next one. *)
let drain_cell ~site ~fault ~stale () =
  with_scratch (fun ~wal_path ~snap_path ->
      let name = Printf.sprintf "%s/%s" site (pp_fault fault) in
      let ops = Workload.Trace.mixed ~seed:(seed + 3) start ~ops:40 in
      let table = Table.create ~wal_path ~order:order3 schema3 in
      List.iter (apply_op table) (Workload.Trace.prefix ops 20);
      Table.save_snapshot table snap_path;
      Table.checkpoint table;
      List.iteri (fun i op -> if i >= 20 then apply_op table op) ops;
      let acked = flat table in
      let synced = Failpoint.hits "snapshot.sync" in
      Failpoint.arm site fault;
      (match
         Table.save_snapshot table snap_path;
         Table.checkpoint table
       with
      | () -> Alcotest.failf "%s: the drain should have crashed" name
      | exception Failpoint.Crashed _ -> ());
      if stale then
        Alcotest.(check int) (name ^ ": the snapshot was fsynced before the WAL reset")
          (synced + 1) (Failpoint.hits "snapshot.sync");
      Failpoint.reset ();
      (try Table.close table with _ -> ());
      let salvaged, report = Table.load_snapshot_salvage ~wal_path snap_path in
      Alcotest.(check bool) (name ^ ": stale log skipped") stale report.Table.stale_wal;
      Alcotest.(check int) (name ^ ": nothing skipped") 0 report.Table.skipped_ops;
      Alcotest.check relation_testable (name ^ ": salvage recovers the acked state") acked
        (flat salvaged);
      Table.close salvaged;
      let recovered = Table.load_snapshot ~wal_path snap_path in
      Alcotest.(check bool) (name ^ ": cross-layer audit") true
        (Table.check_invariants recovered);
      Alcotest.check relation_testable (name ^ ": recovers the acked state") acked
        (flat recovered);
      let late = row schema3 [ "late"; "write"; "survives" ] in
      ignore (Table.insert recovered late);
      Table.close recovered;
      let restarted = Table.load_snapshot ~wal_path snap_path in
      Alcotest.(check bool) (name ^ ": a write after the restart survives the next") true
        (Table.member restarted late);
      Alcotest.(check bool) (name ^ ": audit after the second restart") true
        (Table.check_invariants restarted);
      Table.close restarted)

(* The server's WAL directory across restarts. A power cut at the
   manifest sync leaves a provisional commit in both table WALs that
   the first restart rolls back. The next transaction reuses its txid
   (allocation restarts above the manifest's largest), and its
   manifest record must not vouch for the old group at the second
   restart: the rolled-back rows stay absent from both tables. *)
let test_wal_dir_restart_keeps_rollback () =
  let dir = Filename.temp_file "nf2-dir" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  let start () =
    let db = Nfql.Physical.create () in
    let fresh pairs ~wal_path =
      Table.load ~wal_path ~synchronous:false ~order:order2
        (List.fold_left
           (fun facts p -> Relation.add facts (pair_tuple p))
           (Relation.empty schema2) pairs)
    in
    let tables =
      Nfql.Physical.open_wal_dir ~synchronous:false db ~dir
        [ ("t", fresh xt_base_t); ("u", fresh xt_base_u) ]
    in
    (db, tables)
  in
  let stop (db, tables) =
    List.iter (fun (_, table) -> try Table.close table with _ -> ()) tables;
    Option.iter Manifest.close (Nfql.Physical.manifest db)
  in
  let state (_, tables) name = xt_state ~name (List.assoc name tables) in
  Fun.protect
    ~finally:(fun () ->
      Failpoint.reset ();
      Array.iter (fun file -> Sys.remove (Filename.concat dir file)) (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () ->
      let first = start () in
      let db, _ = first in
      xt_commit db;
      (* Table syncs are hits 1 and 2; the manifest's sync is hit 3. *)
      Failpoint.arm ~after:2 "wal.sync.before" Failpoint.Lose_unsynced;
      let crashed = try Nfql.Physical.sync_wal db; false with Failpoint.Crashed _ -> true in
      Alcotest.(check bool) "power cut at the manifest sync" true crashed;
      Failpoint.reset ();
      stop first;
      let second = start () in
      Alcotest.(check bool) "the first restart rolls the commit back" true
        (has_none (state second "t") xt_txn_t && has_none (state second "u") xt_txn_u);
      let db, _ = second in
      let later_t = [ ("tl1", "y1") ] and later_u = [ ("ul1", "y1") ] in
      ignore
        (Nfql.Physical.exec_string db
           (Printf.sprintf "begin; %s; %s; commit" (xt_insert_stmt "t" later_t)
              (xt_insert_stmt "u" later_u)));
      Nfql.Physical.sync_wal db;
      stop second;
      let third = start () in
      let st = state third "t" and su = state third "u" in
      Alcotest.(check bool) "the acknowledged transaction survives" true
        (has_all st later_t && has_all su later_u);
      Alcotest.(check bool) "base rows intact" true
        (has_all st xt_base_t && has_all su xt_base_u);
      Alcotest.(check bool) "the rolled-back rows stay absent from both tables" true
        (has_none st xt_txn_t && has_none su xt_txn_u);
      stop third)

let () =
  Alcotest.run "crash"
    [
      ( "matrix",
        [
          Alcotest.test_case "every site x every fault" `Quick
            test_site_fault_matrix;
          Alcotest.test_case "engine load faults" `Quick test_engine_load_matrix;
        ] );
      ( "bytes",
        [
          Alcotest.test_case "truncation at every byte" `Slow
            test_truncation_matrix;
          Alcotest.test_case "bit flip at every byte" `Slow test_bit_flip_matrix;
        ] );
      ( "soak",
        [
          Alcotest.test_case "crash, recover, resume" `Quick
            test_scheduled_crashes;
        ] );
      ( "txn",
        [
          Alcotest.test_case "torn transaction at every site" `Quick
            test_torn_txn_matrix;
          Alcotest.test_case "rollback is byte-identical" `Quick
            test_rollback_byte_identical;
        ] );
      ( "manifest",
        [
          Alcotest.test_case "seed bug: half a transaction recovers" `Quick
            test_cross_table_seed_bug;
          Alcotest.test_case "all-or-nothing at every commit window" `Quick
            test_cross_table_all_or_nothing;
          Alcotest.test_case "power cut at the manifest sync" `Quick
            test_cross_table_manifest_power_cut;
          Alcotest.test_case "acked cross-table commit survives" `Quick
            test_cross_table_acked_commit_survives;
        ] );
      ( "nfql",
        [
          Alcotest.test_case "UPDATE crash window" `Quick
            test_update_crash_window;
        ] );
      ( "views",
        [
          Alcotest.test_case "autocommit maintenance crash window" `Quick
            test_view_maintain_crash_autocommit;
          Alcotest.test_case "transaction maintenance crash window" `Quick
            test_view_maintain_crash_txn;
        ] );
      ( "drain",
        [
          Alcotest.test_case "crash before the WAL truncation" `Quick
            (drain_cell ~site:"wal.reset" ~fault:Failpoint.Crash ~stale:true);
          Alcotest.test_case "crash before the snapshot rename" `Quick
            (drain_cell ~site:"snapshot.rename" ~fault:Failpoint.Crash ~stale:false);
          Alcotest.test_case "torn snapshot body" `Quick
            (drain_cell ~site:"snapshot.body" ~fault:(Failpoint.Short_write 7)
               ~stale:false);
          Alcotest.test_case "power cut before the snapshot fsync" `Quick
            (drain_cell ~site:"snapshot.sync" ~fault:Failpoint.Lose_unsynced
               ~stale:false);
          Alcotest.test_case "restart never revives a rolled-back commit" `Quick
            test_wal_dir_restart_keeps_rollback;
        ] );
      ( "sync",
        [
          Alcotest.test_case "acked commits survive power cut" `Quick
            test_acked_commits_survive_power_cut;
          Alcotest.test_case "flush-only WAL loses acked commits" `Quick
            test_flush_only_wal_loses_acked_commits;
          Alcotest.test_case "group sync makes the batch durable" `Quick
            test_group_sync_makes_batch_durable;
        ] );
    ]
