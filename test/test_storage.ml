(* The realization view: codec round-trips, page/heap mechanics,
   indexes, and the engine's access paths. *)

open Relational
open Nfr_core
open Storage
open Support

(* ------------------------------------------------------------------ *)
(* Codec                                                               *)
(* ------------------------------------------------------------------ *)

let roundtrip_value value =
  let buffer = Buffer.create 16 in
  Codec.encode_value buffer value;
  let decoded, consumed = Codec.decode_value (Buffer.to_bytes buffer) 0 in
  Value.equal decoded value && consumed = Buffer.length buffer

let test_codec_values () =
  List.iter
    (fun value ->
      Alcotest.(check bool)
        (Format.asprintf "roundtrip %a" Value.pp value)
        true (roundtrip_value value))
    [
      Value.of_int 0; Value.of_int 127; Value.of_int 128; Value.of_int 300000;
      Value.of_int (-1); Value.of_int (-123456);
      Value.of_float 0.; Value.of_float 3.141592653589793; Value.of_float (-2.5e300);
      Value.of_string ""; Value.of_string "hello"; Value.of_string (String.make 500 'x');
      Value.of_bool true; Value.of_bool false;
    ]

let test_codec_varint () =
  List.iter
    (fun n ->
      let buffer = Buffer.create 8 in
      Codec.encode_varint buffer n;
      let decoded, _ = Codec.decode_varint (Buffer.to_bytes buffer) 0 in
      Alcotest.(check int) (string_of_int n) n decoded)
    [ 0; 1; 127; 128; 16383; 16384; 1 lsl 40 ];
  Alcotest.(check bool) "negative rejected" true
    (match Codec.encode_varint (Buffer.create 4) (-1) with
    | exception Invalid_argument _ -> true
    | _ -> false);
  Alcotest.(check bool) "truncated detected" true
    (match Codec.decode_varint (Bytes.of_string "\x80") 0 with
    | exception Storage_error.Error (Storage_error.Corrupt _) -> true
    | _ -> false)

let test_codec_tuples () =
  let t = row schema3 [ "x"; "yy"; "zzz" ] in
  let buffer = Buffer.create 16 in
  Codec.encode_tuple buffer t;
  let decoded, _ = Codec.decode_tuple (Buffer.to_bytes buffer) 0 in
  Alcotest.check tuple_testable "tuple roundtrip" t decoded

let test_codec_ntuples () =
  let sample = nt schema3 [ [ "a1"; "a2" ]; [ "b1" ]; [ "c1"; "c2"; "c3" ] ] in
  let buffer = Buffer.create 32 in
  Codec.encode_ntuple buffer sample;
  let decoded, _ = Codec.decode_ntuple (Buffer.to_bytes buffer) 0 in
  Alcotest.(check bool) "ntuple roundtrip" true (Ntuple.equal sample decoded)

let test_codec_sizes_favor_nfr () =
  (* The whole Sec. 5 point: the NFR encoding of an MVD-structured
     relation is smaller than its 1NF expansion. *)
  let flat = Workload.Scenarios.university_entity ~students:20 () in
  let order = List.rev (Schema.attributes (Relation.schema flat)) in
  let canonical = Nest.canonical flat order in
  Alcotest.(check bool) "nfr smaller" true
    (Codec.nfr_size canonical < Codec.relation_size flat)

(* ------------------------------------------------------------------ *)
(* Pages and heaps                                                     *)
(* ------------------------------------------------------------------ *)

let test_page_append_get () =
  let page = Page.create ~size:128 () in
  (match Page.append page "hello" with
  | Some slot -> Alcotest.(check string) "read back" "hello" (Page.get page slot)
  | None -> Alcotest.fail "should fit");
  Alcotest.(check bool) "bad slot" true
    (match Page.get page 9 with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_page_overflow () =
  let page = Page.create ~size:64 () in
  let rec fill i =
    match Page.append page (Printf.sprintf "record-%03d" i) with
    | Some _ -> fill (i + 1)
    | None -> i
  in
  let fitted = fill 0 in
  Alcotest.(check bool) "some fit, not all" true (fitted > 0 && fitted < 100);
  Alcotest.(check int) "count agrees" fitted (Page.record_count page)

let test_heap_spans_pages () =
  let heap = Heap.create ~page_size:128 () in
  let rids = List.init 50 (fun i -> Heap.append heap (Printf.sprintf "r%02d" i)) in
  Alcotest.(check bool) "multiple pages" true (Heap.page_count heap > 1);
  Alcotest.(check int) "all stored" 50 (Heap.record_count heap);
  List.iteri
    (fun i rid ->
      Alcotest.(check string) "fetch" (Printf.sprintf "r%02d" i) (Heap.get heap rid))
    rids;
  Alcotest.(check bool) "oversized rejected" true
    (match Heap.append heap (String.make 4096 'x') with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_heap_scan_charges_stats () =
  let heap = Heap.create ~page_size:128 () in
  List.iter (fun i -> ignore (Heap.append heap (Printf.sprintf "r%02d" i))) (List.init 20 Fun.id);
  let stats = Stats.create () in
  let seen = ref 0 in
  Heap.scan heap ~stats (fun _ _ -> incr seen);
  Alcotest.(check int) "visited all" 20 !seen;
  Alcotest.(check int) "records charged" 20 stats.Stats.records_read;
  Alcotest.(check int) "pages charged" (Heap.page_count heap) stats.Stats.pages_read

(* ------------------------------------------------------------------ *)
(* Engine                                                              *)
(* ------------------------------------------------------------------ *)

let flat_sample = Workload.Scenarios.university_entity ~students:12 ()

let canonical_sample =
  let order = List.rev (Schema.attributes (Relation.schema flat_sample)) in
  Nest.canonical flat_sample order

let test_engine_footprints () =
  let flat_store = Engine.load_flat flat_sample in
  let nfr_store = Engine.load_nfr canonical_sample in
  let ff = Engine.flat_footprint flat_store in
  let nf = Engine.nfr_footprint nfr_store in
  Alcotest.(check int) "flat records = cardinality"
    (Relation.cardinality flat_sample) ff.Engine.records;
  Alcotest.(check int) "nfr records = NFR cardinality"
    (Nfr.cardinality canonical_sample) nf.Engine.records;
  Alcotest.(check bool) "nfr fewer records" true (nf.Engine.records < ff.Engine.records);
  Alcotest.(check bool) "nfr fewer payload bytes" true
    (nf.Engine.payload_bytes < ff.Engine.payload_bytes)

let test_engine_scan_agrees_with_lookup () =
  let flat_store = Engine.load_flat flat_sample in
  let nfr_store = Engine.load_nfr canonical_sample in
  let student = attr "Student" in
  let target = v "student3" in
  let scan_stats = Stats.create () in
  let scan_result = Engine.flat_scan_eq flat_store ~stats:scan_stats student target in
  let lookup_stats = Stats.create () in
  let lookup_result =
    Engine.flat_lookup_eq flat_store ~stats:lookup_stats student target
  in
  Alcotest.(check int) "same matches" (List.length scan_result)
    (List.length lookup_result);
  Alcotest.(check bool) "lookup cheaper" true
    (lookup_stats.Stats.records_read < scan_stats.Stats.records_read);
  (* NFR paths agree with each other too. *)
  let nscan = Stats.create () and nlook = Stats.create () in
  let from_scan = Engine.nfr_scan_contains nfr_store ~stats:nscan student target in
  let from_lookup = Engine.nfr_lookup_contains nfr_store ~stats:nlook student target in
  Alcotest.(check int) "nfr same matches" (List.length from_scan)
    (List.length from_lookup)

let test_engine_semantic_agreement () =
  (* The NFR store and flat store answer the same question with the
     same information: expanding the NFR matches and filtering equals
     the flat matches. *)
  let flat_store = Engine.load_flat flat_sample in
  let nfr_store = Engine.load_nfr canonical_sample in
  let student = attr "Student" in
  let target = v "student7" in
  let stats = Stats.create () in
  let flat_matches = Engine.flat_lookup_eq flat_store ~stats student target in
  let nfr_matches = Engine.nfr_lookup_contains nfr_store ~stats student target in
  let schema = Engine.nfr_schema nfr_store in
  let position = Schema.position schema student in
  let expanded =
    List.concat_map
      (fun nt ->
        List.filter
          (fun tuple -> Value.equal (Tuple.get tuple position) target)
          (Ntuple.expand nt))
      nfr_matches
  in
  Alcotest.(check int) "same answer" (List.length flat_matches)
    (List.length expanded)

let test_engine_scan_touches_fewer_nfr_pages () =
  let flat_store = Engine.load_flat ~page_size:512 flat_sample in
  let nfr_store = Engine.load_nfr ~page_size:512 canonical_sample in
  let stats_flat = Stats.create () and stats_nfr = Stats.create () in
  ignore (Engine.flat_scan_eq flat_store ~stats:stats_flat (attr "Student") (v "student1"));
  ignore
    (Engine.nfr_scan_contains nfr_store ~stats:stats_nfr (attr "Student") (v "student1"));
  Alcotest.(check bool) "nfr scan touches fewer pages" true
    (stats_nfr.Stats.pages_read <= stats_flat.Stats.pages_read)

(* ------------------------------------------------------------------ *)
(* B+-tree                                                             *)
(* ------------------------------------------------------------------ *)

let rid page_no slot = { Heap.page_no; slot }

let test_btree_basics () =
  let tree = Btree.create ~fanout:4 () in
  let stats = Stats.create () in
  Btree.insert tree (v "m") (rid 0 0);
  Btree.insert tree (v "c") (rid 0 1);
  Btree.insert tree (v "m") (rid 0 2);
  Alcotest.(check int) "two keys" 2 (Btree.cardinal tree);
  Alcotest.(check int) "two postings for m" 2
    (List.length (Btree.lookup tree ~stats (v "m")));
  Alcotest.(check int) "absent key" 0
    (List.length (Btree.lookup tree ~stats (v "zz")));
  Btree.remove tree (v "m") (rid 0 0);
  Alcotest.(check int) "one posting left" 1
    (List.length (Btree.lookup tree ~stats (v "m")));
  Btree.remove tree (v "m") (rid 0 2);
  Alcotest.(check int) "key pruned" 1 (Btree.cardinal tree)

let test_btree_splits_and_order () =
  let tree = Btree.create ~fanout:4 () in
  let n = 500 in
  let keys =
    List.init n (fun i -> Value.of_string (Printf.sprintf "k%04d" ((i * 7919) mod n)))
  in
  List.iteri (fun i key -> Btree.insert tree key (rid 0 i)) keys;
  Alcotest.(check bool) "invariants hold" true (Btree.check_invariants tree);
  Alcotest.(check int) "all keys present" n (Btree.cardinal tree);
  Alcotest.(check bool) "tree actually grew" true (Btree.depth tree > 1);
  let sorted = Btree.keys tree in
  Alcotest.(check bool) "ascending" true
    (List.sort Value.compare sorted = sorted)

let test_btree_range () =
  let tree = Btree.create ~fanout:4 () in
  List.iteri
    (fun i key -> Btree.insert tree (v key) (rid 0 i))
    [ "apple"; "banana"; "cherry"; "date"; "elder"; "fig"; "grape" ];
  let stats = Stats.create () in
  let hits = Btree.range tree ~stats ~lo:(v "banana") ~hi:(v "elder") in
  Alcotest.(check (list string)) "inclusive range"
    [ "banana"; "cherry"; "date"; "elder" ]
    (List.map (fun (key, _) -> Value.to_string key) hits);
  Alcotest.(check int) "empty range" 0
    (List.length (Btree.range tree ~stats ~lo:(v "x") ~hi:(v "z")));
  Alcotest.(check bool) "probes charged" true (stats.Stats.index_probes > 0)

let prop_btree_matches_reference (flat, _) =
  (* Insert every (A-value, synthetic rid); tree lookups and ranges
     must agree with a reference association list. *)
  let tree = Btree.create ~fanout:4 () in
  let reference = Hashtbl.create 32 in
  List.iteri
    (fun i tuple ->
      let key = Tuple.field (Relation.schema flat) tuple (attr "A") in
      Btree.insert tree key (rid 0 i);
      Hashtbl.replace reference key
        (rid 0 i :: Option.value ~default:[] (Hashtbl.find_opt reference key)))
    (Relation.tuples flat);
  Btree.check_invariants tree
  && Hashtbl.fold
       (fun key postings acc ->
         acc
         &&
         let stats = Stats.create () in
         let found = Btree.lookup tree ~stats key in
         List.length found = List.length postings)
       reference true

(* ------------------------------------------------------------------ *)
(* WAL                                                                 *)
(* ------------------------------------------------------------------ *)

let with_temp_file f =
  let path = Filename.temp_file "nf2-wal" ".log" in
  Fun.protect ~finally:(fun () -> if Sys.file_exists path then Sys.remove path) (fun () -> f path)

let test_wal_roundtrip () =
  with_temp_file (fun path ->
      Sys.remove path;
      let wal = Wal.open_log path in
      let t1 = row schema2 [ "a1"; "b1" ] and t2 = row schema2 [ "a2"; "b2" ] in
      Wal.append wal (Wal.Insert t1);
      Wal.append wal (Wal.Insert t2);
      Wal.append wal (Wal.Delete t1);
      Wal.close wal;
      match Wal.replay path with
      | [ Wal.Insert r1; Wal.Insert r2; Wal.Delete r3 ] ->
        Alcotest.check tuple_testable "first" t1 r1;
        Alcotest.check tuple_testable "second" t2 r2;
        Alcotest.check tuple_testable "third" t1 r3
      | entries ->
        Alcotest.failf "expected 3 entries, got %d" (List.length entries))

let test_wal_missing_file () =
  Alcotest.(check int) "no file, no entries" 0
    (List.length (Wal.replay "/tmp/nf2-definitely-not-here.log"))

let test_wal_crash_truncation () =
  (* Whatever byte the crash cut the log at, replay recovers exactly
     the complete prefix of entries. *)
  with_temp_file (fun path ->
      Sys.remove path;
      let wal = Wal.open_log path in
      let tuples =
        List.init 5 (fun i -> row schema2 [ Printf.sprintf "a%d" i; "b" ])
      in
      List.iter (fun t -> Wal.append wal (Wal.Insert t)) tuples;
      Wal.close wal;
      let full = In_channel.with_open_bin path In_channel.input_all in
      let total = String.length full in
      for cut = 0 to total - 1 do
        Out_channel.with_open_bin path (fun oc ->
            Out_channel.output_string oc (String.sub full 0 cut));
        let recovered = Wal.replay path in
        Alcotest.(check bool)
          (Printf.sprintf "prefix at cut %d" cut)
          true
          (List.length recovered <= 5
          && List.for_all2
               (fun entry expected ->
                 match entry with
                 | Wal.Insert t -> Tuple.equal t expected
                 | _ -> false)
               recovered
               (List.filteri (fun i _ -> i < List.length recovered) tuples))
      done)

let test_wal_reset () =
  with_temp_file (fun path ->
      Sys.remove path;
      let wal = Wal.open_log path in
      Wal.append wal (Wal.Insert (row schema2 [ "a"; "b" ]));
      Wal.close wal;
      Wal.reset path;
      Alcotest.(check int) "empty after reset" 0 (List.length (Wal.replay path)))

(* ------------------------------------------------------------------ *)
(* Table                                                               *)
(* ------------------------------------------------------------------ *)

let ab_order = [ attr "A"; attr "B" ]

let test_table_basics () =
  let table = Table.create ~order:ab_order schema2 in
  Alcotest.(check bool) "insert" true (Table.insert table (row schema2 [ "a1"; "b1" ]));
  Alcotest.(check bool) "dup insert" false
    (Table.insert table (row schema2 [ "a1"; "b1" ]));
  ignore (Table.insert table (row schema2 [ "a2"; "b1" ]));
  Alcotest.(check int) "one NFR tuple after merge" 1 (Table.cardinality table);
  Alcotest.(check int) "two facts" 2 (Table.fact_count table);
  Alcotest.(check bool) "member" true (Table.member table (row schema2 [ "a2"; "b1" ]));
  Table.delete table (row schema2 [ "a1"; "b1" ]);
  Alcotest.(check int) "one fact" 1 (Table.fact_count table);
  Alcotest.check_raises "absent delete" Nfr_core.Update.Not_in_relation (fun () ->
      Table.delete table (row schema2 [ "zz"; "zz" ]))

let test_table_physical_consistency () =
  let flat = Workload.Scenarios.university_relationship ~rows:120 () in
  let order = Schema.attributes (Relation.schema flat) in
  let table = Table.load ~order flat in
  (* Every snapshot tuple is reachable by lookup on each of its values,
     and a scan sees exactly the snapshot. *)
  let stats = Stats.create () in
  let snapshot = Nfr_core.Nfr.ntuples (Table.snapshot table) in
  Alcotest.(check int) "live = snapshot" (List.length snapshot)
    (Table.live_records table);
  let seen = ref 0 in
  Table.scan table ~stats (fun nt ->
      incr seen;
      Alcotest.(check bool) "scanned tuple is in snapshot" true
        (List.exists (Nfr_core.Ntuple.equal nt) snapshot));
  Alcotest.(check int) "scan count" (List.length snapshot) !seen;
  List.iter
    (fun nt ->
      let attribute = attr "Student" in
      let position =
        Schema.position (Relation.schema flat) attribute
      in
      Nfr_core.Vset.fold
        (fun value () ->
          Alcotest.(check bool) "lookup finds it" true
            (List.exists (Nfr_core.Ntuple.equal nt)
               (Table.lookup table ~stats attribute value)))
        (Nfr_core.Ntuple.component nt position)
        ())
    snapshot

(* Bulk load builds V_P(flat) in one pass (Theorem 2): every heap record
   it writes is live, and the result is the canonical form itself. *)
let test_table_load_one_pass () =
  let flat = Workload.Scenarios.university_relationship ~rows:200 () in
  let order = Schema.attributes (Relation.schema flat) in
  let canonical = Nest.canonical flat order in
  Alcotest.(check bool) "the fixture's tuples merge" true
    (Nfr.cardinality canonical < Relation.cardinality flat);
  let table = Table.load ~order flat in
  Alcotest.(check int) "no dead records" 0 (Table.dead_records table);
  Alcotest.(check int) "one record per canonical tuple"
    (Nfr.cardinality canonical)
    (Table.live_records table);
  Alcotest.check nfr_testable "snapshot is the canonical form" canonical
    (Table.snapshot table);
  Alcotest.(check bool) "invariants" true (Table.check_invariants table);
  Nfr.iter
    (fun nt ->
      Alcotest.(check (option int)) "loaded images carry stamp 1" (Some 1)
        (Table.version_of table nt))
    canonical;
  let fresh = row (Relation.schema flat) [ "new-student"; "new-course"; "new-term" ] in
  Table.begin_txn table ~txid:1;
  Alcotest.(check bool) "txn insert applies" true
    (Table.txn_insert table ~txid:1 fresh);
  Alcotest.(check int) "commit after the load is commit 2" 2
    (Table.commit_txn table ~txid:1);
  Alcotest.(check bool) "committed" true (Table.member table fresh);
  Alcotest.(check bool) "invariants after commit" true
    (Table.check_invariants table)

let test_table_tombstones_and_compaction () =
  let flat = Workload.Scenarios.university_relationship ~rows:100 () in
  let order = Schema.attributes (Relation.schema flat) in
  let table = Table.load ~order flat in
  let victims = Workload.Gen.delete_stream ~seed:5 flat 40 in
  List.iter (fun tuple -> Table.delete table tuple) victims;
  Alcotest.(check bool) "tombstones accumulated" true (Table.dead_records table > 0);
  let before_pages = Table.pages table in
  let snapshot_before = Table.snapshot table in
  Table.compact table;
  Alcotest.(check int) "no tombstones after compaction" 0
    (Table.dead_records table);
  Alcotest.(check bool) "pages reclaimed" true (Table.pages table <= before_pages);
  Alcotest.(check bool) "snapshot unchanged" true
    (Nfr_core.Nfr.equal snapshot_before (Table.snapshot table));
  (* Physical still consistent after compaction. *)
  let stats = Stats.create () in
  let seen = ref 0 in
  Table.scan table ~stats (fun _ -> incr seen);
  Alcotest.(check int) "scan count after compaction"
    (Nfr_core.Nfr.cardinality snapshot_before)
    !seen

let test_table_wal_recovery () =
  with_temp_file (fun wal_path ->
      Sys.remove wal_path;
      let table = Table.create ~wal_path ~order:ab_order schema2 in
      let ops =
        [ "a1", "b1"; "a2", "b1"; "a1", "b2"; "a3", "b3" ]
      in
      List.iter (fun (a, b) -> ignore (Table.insert table (row schema2 [ a; b ]))) ops;
      Table.delete table (row schema2 [ "a3"; "b3" ]);
      let expected = Table.snapshot table in
      Table.close table;
      (* Recover from the log alone. *)
      let recovered = Table.recover ~wal_path ~order:ab_order schema2 in
      Alcotest.(check bool) "recovered snapshot equals original" true
        (Nfr_core.Nfr.equal expected (Table.snapshot recovered));
      Table.close recovered)

let test_table_wal_crash_mid_write () =
  with_temp_file (fun wal_path ->
      Sys.remove wal_path;
      let table = Table.create ~wal_path ~order:ab_order schema2 in
      ignore (Table.insert table (row schema2 [ "a1"; "b1" ]));
      ignore (Table.insert table (row schema2 [ "a2"; "b2" ]));
      Table.close table;
      (* Simulate a crash that tore the last entry. *)
      let full = In_channel.with_open_bin wal_path In_channel.input_all in
      Out_channel.with_open_bin wal_path (fun oc ->
          Out_channel.output_string oc
            (String.sub full 0 (String.length full - 3)));
      let recovered = Table.recover ~wal_path ~order:ab_order schema2 in
      Alcotest.(check int) "only the first insert survives" 1
        (Table.fact_count recovered);
      Table.close recovered)

let test_table_checkpoint () =
  with_temp_file (fun wal_path ->
      Sys.remove wal_path;
      let table = Table.create ~wal_path ~order:ab_order schema2 in
      ignore (Table.insert table (row schema2 [ "a1"; "b1" ]));
      Table.checkpoint table;
      Alcotest.(check int) "wal empty after checkpoint" 0
        (List.length (Wal.replay wal_path));
      (* Updates after the checkpoint are logged again. *)
      ignore (Table.insert table (row schema2 [ "a2"; "b2" ]));
      Alcotest.(check int) "one entry" 1 (List.length (Wal.replay wal_path));
      Table.close table)

(* ------------------------------------------------------------------ *)
(* Durability: v1 framing, typed errors, fault injection               *)
(* ------------------------------------------------------------------ *)

let read_all path = In_channel.with_open_bin path In_channel.input_all

let write_all path s =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

let flip_bit s position =
  let damaged = Bytes.of_string s in
  Bytes.set damaged position
    (Char.chr (Char.code (Bytes.get damaged position) lxor 0x10));
  Bytes.to_string damaged

(* A legacy v0 frame: varint length + payload + 1-byte additive
   checksum — what the pre-CRC log format wrote. *)
let v0_frame tag tuple =
  let payload = Buffer.create 32 in
  Buffer.add_char payload tag;
  Codec.encode_tuple payload tuple;
  let payload = Buffer.contents payload in
  let framed = Buffer.create 40 in
  Codec.encode_varint framed (String.length payload);
  Buffer.add_string framed payload;
  let total = ref 0 in
  String.iter (fun c -> total := (!total + Char.code c) land 0xFF) payload;
  Buffer.add_char framed (Char.chr !total);
  Buffer.contents framed

let test_wal_v1_header () =
  with_temp_file (fun path ->
      Sys.remove path;
      let wal = Wal.open_log path in
      Alcotest.(check int) "fresh generation" 1 (Wal.generation wal);
      Wal.append wal (Wal.Insert (row schema2 [ "a"; "b" ]));
      Wal.close wal;
      Alcotest.(check string) "magic leads the file" "NF2WALv1"
        (String.sub (read_all path) 0 8);
      let salvage = Wal.replay_salvage path in
      Alcotest.(check int) "one entry" 1 (List.length salvage.Wal.entries);
      Alcotest.(check int) "generation read back" 1 salvage.Wal.generation;
      Alcotest.(check bool) "v1 format" true (salvage.Wal.format = Wal.V1);
      Alcotest.(check int) "nothing skipped" 0 salvage.Wal.bytes_skipped;
      Alcotest.(check int) "no torn tail" 0 salvage.Wal.torn_tail_bytes)

let test_wal_legacy_v0 () =
  with_temp_file (fun path ->
      let t1 = row schema2 [ "a1"; "b1" ] and t2 = row schema2 [ "a2"; "b2" ] in
      write_all path (v0_frame 'I' t1);
      (match Wal.replay path with
      | [ Wal.Insert r ] -> Alcotest.check tuple_testable "legacy entry" t1 r
      | entries -> Alcotest.failf "expected 1 entry, got %d" (List.length entries));
      Alcotest.(check bool) "detected as v0" true
        ((Wal.replay_salvage path).Wal.format = Wal.V0);
      (* Appending keeps the legacy framing: one log never mixes formats. *)
      let wal = Wal.open_log path in
      Wal.append wal (Wal.Insert t2);
      Wal.close wal;
      Alcotest.(check int) "both entries replay" 2 (List.length (Wal.replay path));
      Alcotest.(check bool) "still v0" true
        ((Wal.replay_salvage path).Wal.format = Wal.V0))

let test_wal_append_after_close () =
  with_temp_file (fun path ->
      Sys.remove path;
      let wal = Wal.open_log path in
      Wal.append wal (Wal.Insert (row schema2 [ "a"; "b" ]));
      Wal.close wal;
      Alcotest.(check bool) "append after close is a typed error" true
        (match Wal.append wal (Wal.Insert (row schema2 [ "x"; "y" ])) with
        | exception Storage_error.Error (Storage_error.Closed _) -> true
        | _ -> false);
      Alcotest.(check int) "log undamaged" 1 (List.length (Wal.replay path)))

let test_wal_midlog_salvage () =
  with_temp_file (fun path ->
      Sys.remove path;
      let wal = Wal.open_log path in
      let tuples =
        List.init 5 (fun i -> row schema2 [ Printf.sprintf "a%d" i; String.make 8 'b' ])
      in
      List.iter (fun t -> Wal.append wal (Wal.Insert t)) tuples;
      Wal.close wal;
      (* One flipped bit in the middle of the log. *)
      let contents = read_all path in
      write_all path (flip_bit contents (String.length contents / 2));
      Alcotest.(check bool) "strict replay refuses mid-log damage" true
        (match Wal.replay path with
        | exception Storage_error.Error (Storage_error.Corrupt _) -> true
        | _ -> false);
      let salvage = Wal.replay_salvage path in
      Alcotest.(check bool) "salvage recovers around the damage" true
        (List.length salvage.Wal.entries >= 3);
      Alcotest.(check bool) "skipped bytes reported" true
        (salvage.Wal.bytes_skipped > 0);
      Alcotest.(check bool) "first bad offset reported" true
        (salvage.Wal.first_bad_offset <> None);
      List.iter
        (fun entry ->
          match entry with
          | Wal.Insert t ->
            Alcotest.(check bool) "salvaged entry is genuine" true
              (List.exists (Tuple.equal t) tuples)
          | _ -> Alcotest.fail "unexpected non-insert salvaged")
        salvage.Wal.entries)

let test_wal_tail_debris_rejected () =
  (* The legacy heuristic probed every tail byte for "length + payload
     + additive checksum" and accepted 1-in-256 random debris as an
     entry. Craft debris that passes that sum check and splice it after
     a valid v1 log: CRC framing must treat it as a torn tail. *)
  with_temp_file (fun path ->
      Sys.remove path;
      let wal = Wal.open_log path in
      Wal.append wal (Wal.Insert (row schema2 [ "a1"; "b1" ]));
      Wal.append wal (Wal.Insert (row schema2 [ "a2"; "b2" ]));
      Wal.close wal;
      let debris = v0_frame 'I' (row schema2 [ "zz"; "zz" ]) in
      write_all path (read_all path ^ debris);
      Alcotest.(check int) "debris is not an entry" 2
        (List.length (Wal.replay path));
      let salvage = Wal.replay_salvage path in
      Alcotest.(check int) "torn tail covers exactly the debris"
        (String.length debris) salvage.Wal.torn_tail_bytes)

let test_failpoint_registry () =
  Failpoint.reset ();
  Fun.protect ~finally:Failpoint.reset (fun () ->
      Failpoint.hit "wal.append.before";
      Alcotest.(check int) "hits counted" 1 (Failpoint.hits "wal.append.before");
      (* One-shot, with an after-skip. *)
      Failpoint.arm ~after:1 "wal.append.before" Failpoint.Crash;
      Failpoint.hit "wal.append.before";
      Alcotest.(check bool) "fires on the (after+1)-th hit" true
        (match Failpoint.hit "wal.append.before" with
        | exception Failpoint.Crashed _ -> true
        | () -> false);
      Failpoint.hit "wal.append.before";
      Alcotest.(check bool) "fired log records the shot" true
        (List.mem ("wal.append.before", Failpoint.Crash) (Failpoint.fired ()));
      (* Write effects. *)
      Failpoint.arm "x" (Failpoint.Short_write 2);
      Alcotest.(check bool) "short write keeps the prefix" true
        (Failpoint.on_write "x" "abcdef" = Failpoint.Partial "ab");
      Failpoint.arm "x" (Failpoint.Bit_flip 0);
      Alcotest.(check bool) "bit flip flips exactly one bit" true
        (Failpoint.on_write "x" "\x00" = Failpoint.Full "\x01");
      Failpoint.arm "x" Failpoint.Drop_write;
      Alcotest.(check bool) "drop loses the write" true
        (Failpoint.on_write "x" "abc" = Failpoint.Dropped);
      Alcotest.(check bool) "disarmed after firing" true
        (Failpoint.on_write "x" "abc" = Failpoint.Full "abc");
      (* Deterministic schedules. *)
      Alcotest.(check bool) "plans are deterministic" true
        (Failpoint.plan ~seed:7 10 = Failpoint.plan ~seed:7 10);
      Alcotest.(check bool) "plans vary with the seed" true
        (Failpoint.plan ~seed:7 10 <> Failpoint.plan ~seed:8 10))

let test_table_fault_injection () =
  Failpoint.reset ();
  Fun.protect ~finally:Failpoint.reset (fun () ->
      (* Crash before the append: the op is lost whole. *)
      with_temp_file (fun wal_path ->
          Sys.remove wal_path;
          let table = Table.create ~wal_path ~order:ab_order schema2 in
          ignore (Table.insert table (row schema2 [ "a1"; "b1" ]));
          Failpoint.arm "wal.append.before" Failpoint.Crash;
          Alcotest.(check bool) "crash propagates" true
            (match Table.insert table (row schema2 [ "a2"; "b2" ]) with
            | exception Failpoint.Crashed _ -> true
            | _ -> false);
          Table.close table;
          let recovered, report =
            Table.recover_salvage ~wal_path ~order:ab_order schema2
          in
          Alcotest.(check int) "only the first insert survived" 1
            (Table.fact_count recovered);
          Alcotest.(check int) "clean salvage" 0 report.Table.skipped_ops;
          Alcotest.(check bool) "invariants hold" true
            (Table.check_invariants recovered);
          Table.close recovered);
      (* Torn append: only a prefix of the frame reaches the file. *)
      with_temp_file (fun wal_path ->
          Sys.remove wal_path;
          let table = Table.create ~wal_path ~order:ab_order schema2 in
          ignore (Table.insert table (row schema2 [ "a1"; "b1" ]));
          Failpoint.arm "wal.append.frame" (Failpoint.Short_write 3);
          (match Table.insert table (row schema2 [ "a2"; "b2" ]) with
          | exception Failpoint.Crashed _ -> ()
          | _ -> Alcotest.fail "torn write should crash");
          Table.close table;
          let recovered, report =
            Table.recover_salvage ~wal_path ~order:ab_order schema2
          in
          Alcotest.(check int) "complete prefix recovered" 1
            (Table.fact_count recovered);
          (match report.Table.wal_salvage with
          | Some s ->
            Alcotest.(check int) "torn tail, not mid-log damage" 0
              s.Wal.bytes_skipped;
            Alcotest.(check bool) "torn bytes reported" true
              (s.Wal.torn_tail_bytes > 0)
          | None -> Alcotest.fail "expected a WAL salvage report");
          Alcotest.(check bool) "invariants hold" true
            (Table.check_invariants recovered);
          Table.close recovered);
      (* Lost flush: the entry silently never reaches the file. *)
      with_temp_file (fun wal_path ->
          Sys.remove wal_path;
          let table = Table.create ~wal_path ~order:ab_order schema2 in
          ignore (Table.insert table (row schema2 [ "a1"; "b1" ]));
          Failpoint.arm "wal.append.frame" Failpoint.Drop_write;
          ignore (Table.insert table (row schema2 [ "a2"; "b2" ]));
          Alcotest.(check int) "live table has both" 2 (Table.fact_count table);
          Table.close table;
          let recovered, _ =
            Table.recover_salvage ~wal_path ~order:ab_order schema2
          in
          Alcotest.(check int) "dropped entry is gone after recovery" 1
            (Table.fact_count recovered);
          Table.close recovered);
      (* Bit flip mid-log: salvage skips the damaged frame, keeps the
         rest, and the lossy recovery lands Degraded. *)
      with_temp_file (fun wal_path ->
          Sys.remove wal_path;
          let table = Table.create ~wal_path ~order:ab_order schema2 in
          ignore (Table.insert table (row schema2 [ "a1"; "b1" ]));
          Failpoint.arm "wal.append.frame" (Failpoint.Bit_flip 13);
          ignore (Table.insert table (row schema2 [ "a2"; "b2" ]));
          ignore (Table.insert table (row schema2 [ "a3"; "b3" ]));
          Table.close table;
          let recovered, report =
            Table.recover_salvage ~wal_path ~order:ab_order schema2
          in
          Alcotest.(check int) "damaged entry skipped, rest kept" 2
            (Table.fact_count recovered);
          Alcotest.(check bool) "corruption reported" true
            ((match report.Table.wal_salvage with
             | Some s -> s.Wal.bytes_skipped > 0
             | None -> false));
          (match Table.health recovered with
          | Table.Degraded _ -> ()
          | Table.Healthy -> Alcotest.fail "lossy recovery must degrade");
          Alcotest.(check bool) "invariants hold" true
            (Table.check_invariants recovered);
          Table.close recovered))

let test_table_degraded_readonly () =
  with_temp_file (fun wal_path ->
      Sys.remove wal_path;
      let table = Table.create ~wal_path ~order:ab_order schema2 in
      ignore (Table.insert table (row schema2 [ "a1"; "b1" ]));
      (* Sever the WAL underneath the table: the next write's
         durability failure must degrade it, not half-apply. *)
      Table.close table;
      Alcotest.(check bool) "write fails with a typed error" true
        (match Table.insert table (row schema2 [ "a2"; "b2" ]) with
        | exception Storage_error.Error (Storage_error.Degraded _) -> true
        | _ -> false);
      (match Table.health table with
      | Table.Degraded _ -> ()
      | Table.Healthy -> Alcotest.fail "expected a degraded table");
      Alcotest.(check int) "reads still serve" 1 (Table.fact_count table);
      Alcotest.(check bool) "failed write left no trace" true
        (not (Table.member table (row schema2 [ "a2"; "b2" ])));
      Alcotest.(check bool) "layers still consistent" true
        (Table.check_invariants table);
      Alcotest.(check bool) "later deletes rejected up front" true
        (match Table.delete table (row schema2 [ "a1"; "b1" ]) with
        | exception Storage_error.Error (Storage_error.Degraded _) -> true
        | _ -> false))

let test_snapshot_fault_injection () =
  Failpoint.reset ();
  let snap_path = Filename.temp_file "nf2-snap" ".bin" in
  let wal_path = Filename.temp_file "nf2-snapwal" ".wal" in
  Sys.remove wal_path;
  Fun.protect
    ~finally:(fun () ->
      Failpoint.reset ();
      List.iter
        (fun p -> if Sys.file_exists p then Sys.remove p)
        [ snap_path; snap_path ^ ".tmp"; wal_path ])
    (fun () ->
      let table = Table.create ~wal_path ~order:ab_order schema2 in
      ignore (Table.insert table (row schema2 [ "a1"; "b1" ]));
      ignore (Table.insert table (row schema2 [ "a2"; "b2" ]));
      Table.save_snapshot table snap_path;
      Table.checkpoint table;
      let golden = Table.snapshot table in
      ignore (Table.insert table (row schema2 [ "a3"; "b3" ]));
      (* 1. Torn snapshot write: the crash leaves the previous snapshot
         untouched (the tear lands on the temp file). *)
      Failpoint.arm "snapshot.body" (Failpoint.Short_write 10);
      (match Table.save_snapshot table snap_path with
      | exception Failpoint.Crashed _ -> ()
      | () -> Alcotest.fail "torn snapshot write should crash");
      let recovered = Table.load_snapshot snap_path in
      Alcotest.(check bool) "previous snapshot intact after a tear" true
        (Nfr_core.Nfr.equal golden (Table.snapshot recovered));
      Table.close recovered;
      (* 2. Crash between the temp write and the rename. *)
      Failpoint.arm "snapshot.rename" Failpoint.Crash;
      (match Table.save_snapshot table snap_path with
      | exception Failpoint.Crashed _ -> ()
      | () -> Alcotest.fail "rename crash should propagate");
      let recovered = Table.load_snapshot snap_path in
      Alcotest.(check bool) "rename crash keeps the old snapshot" true
        (Nfr_core.Nfr.equal golden (Table.snapshot recovered));
      Table.close recovered;
      (* 3. Bit-flipped trailer: the checksum catches it; salvage
         reports it and falls back. *)
      Table.save_snapshot table snap_path;
      let good = read_all snap_path in
      write_all snap_path (flip_bit good (String.length good - 1));
      Alcotest.(check bool) "flipped trailer is a typed error" true
        (match Table.load_snapshot snap_path with
        | exception Storage_error.Error (Storage_error.Corrupt _) -> true
        | _ -> false);
      let fallback, report = Table.load_snapshot_salvage snap_path in
      (match report.Table.snapshot_status with
      | `Corrupt _ -> ()
      | _ -> Alcotest.fail "expected a corrupt snapshot status");
      (match Table.health fallback with
      | Table.Degraded _ -> ()
      | Table.Healthy -> Alcotest.fail "lossy snapshot recovery must degrade");
      write_all snap_path good;
      (* 4. Stale WAL: this snapshot was cut against the live WAL
         generation with no checkpoint after it (the crash window
         between save_snapshot and truncation) — recovery must skip
         the log rather than double-apply it. *)
      Table.close table;
      let recovered, report = Table.load_snapshot_salvage ~wal_path snap_path in
      Alcotest.(check bool) "stale WAL detected" true report.Table.stale_wal;
      Alcotest.(check int) "nothing double-applied" 0 report.Table.applied;
      Alcotest.(check int) "snapshot state stands alone" 3
        (Table.fact_count recovered);
      Alcotest.(check bool) "invariants hold" true
        (Table.check_invariants recovered);
      Table.close recovered)

let test_table_check_invariants () =
  let flat = Workload.Scenarios.university_relationship ~rows:80 () in
  let order = Schema.attributes (Relation.schema flat) in
  let table = Table.load ~ordered_on:(attr "Student") ~order flat in
  Alcotest.(check bool) "fresh load passes the audit" true
    (Table.check_invariants table);
  List.iter
    (fun tuple -> Table.delete table tuple)
    (Workload.Gen.delete_stream ~seed:11 flat 25);
  Alcotest.(check bool) "holds with tombstones" true
    (Table.check_invariants table);
  Table.compact table;
  Alcotest.(check bool) "holds after compaction" true
    (Table.check_invariants table)

(* ------------------------------------------------------------------ *)
(* One-pass recovery against a fact-by-fact reference                  *)
(* ------------------------------------------------------------------ *)

(* A logged unit of work. A transaction's fate decides what recovery
   must do with it: apply it (committed), drop it as user rollback
   (aborted), or drop it as crash cost (torn: no commit record;
   unacknowledged: a commit record the manifest never recorded). *)
type fate = Committed | Aborted | Torn | Unacknowledged

type logged =
  | Auto of Wal.entry
  | Txn of { txid : int; ops : Wal.entry list; fate : fate }

let entries_of = function
  | Auto entry -> [ entry ]
  | Txn { txid; ops; fate } ->
    let op = function
      | Wal.Insert tuple -> Wal.Txn_insert (txid, tuple)
      | Wal.Delete tuple -> Wal.Txn_delete (txid, tuple)
      | entry -> entry
    in
    let close =
      match fate with
      | Committed | Unacknowledged -> [ Wal.Txn_commit txid ]
      | Aborted -> [ Wal.Txn_abort txid ]
      | Torn -> []
    in
    (Wal.Txn_begin txid :: List.map op ops) @ close

let durable_in log txid =
  not
    (List.exists
       (function Txn { txid = id; fate = Unacknowledged; _ } -> id = txid | _ -> false)
       log)

(* A random log over [base]. With [clean], every delete a committed
   unit makes names a tuple present at that point of the replay, so the
   strict recoveries must succeed; otherwise deletes pick any tuple and
   some name absent ones. *)
let gen_log ~clean base state =
  let schema = Relation.schema base in
  let live = ref base in
  let random_row () = row schema (gen_row ~degree:3 ~dom:3 state) in
  let gen_op facts =
    let present = Relation.tuples facts in
    if QCheck.Gen.bool state || (clean && present = []) then Wal.Insert (random_row ())
    else if clean then
      Wal.Delete (List.nth present (QCheck.Gen.int_bound (List.length present - 1) state))
    else Wal.Delete (random_row ())
  in
  let step facts = function
    | Wal.Insert tuple -> Relation.add facts tuple
    | Wal.Delete tuple -> Relation.remove facts tuple
    | _ -> facts
  in
  List.init (QCheck.Gen.int_bound 12 state) (fun i ->
      if QCheck.Gen.int_bound 2 state = 0 then begin
        let op = gen_op !live in
        live := step !live op;
        Auto op
      end
      else begin
        let fate =
          match QCheck.Gen.int_bound 5 state with
          | 0 -> Aborted
          | 1 -> Torn
          | 2 -> Unacknowledged
          | _ -> Committed
        in
        let facts = ref !live in
        let ops =
          List.init (QCheck.Gen.int_bound 4 state) (fun _ ->
              let op = gen_op !facts in
              facts := step !facts op;
              op)
        in
        if fate = Committed then live := !facts;
        Txn { txid = i + 1; ops; fate }
      end)

let arbitrary_recovery_case =
  let gen state =
    let base = gen_relation ~degree:3 ~dom:3 ~max_rows:12 state in
    let order = gen_order (Relation.schema base) state in
    let clean = QCheck.Gen.bool state in
    (base, order, gen_log ~clean base state)
  in
  QCheck.make
    ~print:(fun (base, order, log) ->
      Format.asprintf "%a@.order: %s@.log: %s" Relation.pp base
        (String.concat " " (List.map Attribute.name order))
        (String.concat "; "
           (List.map
              (fun entry -> Format.asprintf "%S" (Wal.encode_entry entry))
              (List.concat_map entries_of log))))
    gen

(* What recovery must produce, computed the way it was before it became
   one canonical pass: every base fact, then every committed entry, fed
   one at a time through the Sec. 4 update algorithms. [Error ()] when a
   strict recovery must fail (a committed delete of an absent tuple). *)
type expected = {
  snapshot : Nfr.t;
  commit_seq : int;
  applied : int;
  skipped : int;
  discarded_ops : int;
  crash_discards : (int * int) list;
}

exception Reference_corrupt

let reference ~strict ~order base log =
  let store = Update.Store.create ~order (Relation.schema base) in
  Relation.iter (fun tuple -> ignore (Update.Store.insert store tuple)) base;
  let applied = ref 0 and skipped = ref 0 and commits = ref 0 in
  let apply = function
    | Wal.Insert tuple ->
      ignore (Update.Store.insert store tuple);
      incr applied
    | Wal.Delete tuple -> (
      match Update.Store.delete store tuple with
      | () -> incr applied
      | exception Update.Not_in_relation ->
        if strict then raise Reference_corrupt;
        incr skipped)
    | _ -> assert false
  in
  let discarded fates =
    List.filter_map
      (function
        | Txn { txid; ops; fate } when List.mem fate fates -> Some (txid, List.length ops)
        | _ -> None)
      log
  in
  match
    List.iter
      (function
        | Auto entry ->
          apply entry;
          incr commits
        | Txn { ops; fate = Committed; _ } ->
          List.iter apply ops;
          incr commits
        | Txn _ -> ())
      log
  with
  | exception Reference_corrupt -> Error ()
  | () ->
    Ok
      {
        snapshot = Update.Store.snapshot store;
        commit_seq = (if Relation.is_empty base then 0 else 1) + !commits;
        applied = !applied;
        skipped = !skipped;
        discarded_ops =
          List.fold_left
            (fun sum (_, ops) -> sum + ops)
            0
            (discarded [ Aborted; Torn; Unacknowledged ]);
        (* Manifest-missing commits are found at their commit record,
           torn transactions once the log has ended. *)
        crash_discards = discarded [ Unacknowledged ] @ discarded [ Torn ];
      }

let with_recovery_files f =
  let wal_path = Filename.temp_file "nf2-onepass" ".wal" in
  let snap_path = Filename.temp_file "nf2-onepass" ".snap" in
  Sys.remove wal_path;
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun p -> if Sys.file_exists p then Sys.remove p)
        [ wal_path; snap_path; snap_path ^ ".tmp" ])
    (fun () -> f ~wal_path ~snap_path)

let write_log wal_path entries =
  let wal = Wal.open_log wal_path in
  List.iter (Wal.append wal) entries;
  Wal.close wal

(* All four recoveries against the reference: the same snapshot and
   commit sequence, one live record per canonical tuple and none dead,
   and — for the salvage variants — the same report counts. A strict
   recovery must raise [Corrupt] exactly when the reference does. *)
let prop_one_pass_recovery (base, order, log) =
  with_recovery_files @@ fun ~wal_path ~snap_path ->
  Table.save_snapshot (Table.load ~order base) snap_path;
  write_log wal_path (List.concat_map entries_of log);
  let durable = durable_in log and empty = Relation.empty (Relation.schema base) in
  let check_table variant expected t =
    let fail fmt = QCheck.Test.fail_reportf ("%s: " ^^ fmt) variant in
    if not (Nfr.equal expected.snapshot (Table.snapshot t)) then
      fail "snapshot %a, reference %a" Nfr.pp (Table.snapshot t) Nfr.pp expected.snapshot;
    if Table.commit_seq t <> expected.commit_seq then
      fail "commit_seq %d, reference %d" (Table.commit_seq t) expected.commit_seq;
    if Table.dead_records t <> 0 then fail "%d dead records" (Table.dead_records t);
    if Table.live_records t <> Table.cardinality t then
      fail "%d live records for %d tuples" (Table.live_records t) (Table.cardinality t);
    if not (Table.check_invariants t) then fail "invariants broken";
    Table.close t
  in
  let strict variant base recover =
    let recovered =
      match recover () with
      | t -> Some t
      | exception Storage_error.Error (Storage_error.Corrupt _) -> None
    in
    match reference ~strict:true ~order base log, recovered with
    | Ok expected, Some t -> check_table variant expected t
    | Error (), None -> ()
    | Ok _, None -> QCheck.Test.fail_reportf "%s: raised Corrupt on a clean log" variant
    | Error (), Some t ->
      Table.close t;
      QCheck.Test.fail_reportf "%s: a committed delete of an absent tuple went unreported"
        variant
  in
  let salvage variant base (t, report) =
    let expected = Result.get_ok (reference ~strict:false ~order base log) in
    let counts =
      ( report.Table.applied,
        report.Table.skipped_ops,
        report.Table.discarded_txn_ops,
        report.Table.discarded_txns )
    in
    if counts <> (expected.applied, expected.skipped, expected.discarded_ops, expected.crash_discards)
    then QCheck.Test.fail_reportf "%s: report counts differ from the reference" variant;
    check_table variant expected t
  in
  strict "load_snapshot" base (fun () -> Table.load_snapshot ~wal_path ~durable snap_path);
  strict "recover" empty (fun () ->
      Table.recover ~wal_path ~durable ~order (Relation.schema base));
  salvage "load_snapshot_salvage" base
    (Table.load_snapshot_salvage ~wal_path ~durable snap_path);
  salvage "recover_salvage" empty
    (Table.recover_salvage ~wal_path ~durable ~order (Relation.schema base));
  true

(* A committed delete of an absent tuple: its insert was lost, so the
   strict recoveries refuse the log and the salvage ones skip the entry,
   count it and degrade. *)
let test_absent_delete_recovery () =
  with_recovery_files @@ fun ~wal_path ~snap_path ->
  Table.save_snapshot (Table.load ~order:ab_order (rel schema2 [ [ "a0"; "b0" ] ])) snap_path;
  write_log wal_path
    [
      Wal.Insert (row schema2 [ "a1"; "b1" ]);
      Wal.Delete (row schema2 [ "a2"; "b2" ]);
      Wal.Insert (row schema2 [ "a3"; "b3" ]);
    ];
  let raises_corrupt recover =
    match recover () with
    | t ->
      Table.close t;
      false
    | exception Storage_error.Error (Storage_error.Corrupt _) -> true
  in
  Alcotest.(check bool) "recover raises Corrupt" true
    (raises_corrupt (fun () -> Table.recover ~wal_path ~order:ab_order schema2));
  Alcotest.(check bool) "load_snapshot raises Corrupt" true
    (raises_corrupt (fun () -> Table.load_snapshot ~wal_path snap_path));
  let check_salvaged variant facts (t, report) =
    Alcotest.(check int) (variant ^ ": applied") 2 report.Table.applied;
    Alcotest.(check int) (variant ^ ": skipped") 1 report.Table.skipped_ops;
    Alcotest.(check bool) (variant ^ ": degraded") true (Table.health t <> Table.Healthy);
    Alcotest.(check int) (variant ^ ": facts") facts (Table.fact_count t);
    Alcotest.(check bool) (variant ^ ": invariants") true (Table.check_invariants t);
    Table.close t
  in
  check_salvaged "recover_salvage" 2
    (Table.recover_salvage ~wal_path ~order:ab_order schema2);
  check_salvaged "load_snapshot_salvage" 3 (Table.load_snapshot_salvage ~wal_path snap_path)

(* Each recovery reads and CRC-checks the table's log once, and opens
   it for appending from that one scan. *)
let test_recovery_scans_wal_once () =
  with_recovery_files @@ fun ~wal_path ~snap_path ->
  Table.save_snapshot (Table.load ~order:ab_order (rel schema2 [ [ "a0"; "b0" ] ])) snap_path;
  write_log wal_path
    [ Wal.Insert (row schema2 [ "a1"; "b1" ]); Wal.Insert (row schema2 [ "a1"; "b2" ]) ];
  let scans ~facts recover =
    let before = Obs.Registry.get Obs.Registry.global "wal.replay_total" in
    let t = recover () in
    Alcotest.(check int) "recovered facts" facts (Table.fact_count t);
    Table.close t;
    Obs.Registry.get Obs.Registry.global "wal.replay_total" - before
  in
  Alcotest.(check int) "load_snapshot" 1
    (scans ~facts:3 (fun () -> Table.load_snapshot ~wal_path snap_path));
  Alcotest.(check int) "load_snapshot_salvage" 1
    (scans ~facts:3 (fun () -> fst (Table.load_snapshot_salvage ~wal_path snap_path)));
  Alcotest.(check int) "recover" 1
    (scans ~facts:2 (fun () -> Table.recover ~wal_path ~order:ab_order schema2));
  Alcotest.(check int) "recover_salvage" 1
    (scans ~facts:2 (fun () ->
         fst (Table.recover_salvage ~wal_path ~order:ab_order schema2)))

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

let prop_table_matches_store (flat, order) =
  let table = Table.load ~order flat in
  let stream = Workload.Gen.insert_stream ~seed:9 flat 5 in
  List.iter (fun tuple -> ignore (Table.insert table tuple)) stream;
  List.iter
    (fun tuple -> Table.delete table tuple)
    (List.filteri (fun i _ -> i < 3) (Relation.tuples flat));
  (* Physical scan agrees with the logical snapshot. *)
  let stats = Stats.create () in
  let scanned = ref [] in
  Table.scan table ~stats (fun nt -> scanned := nt :: !scanned);
  let snapshot = Nfr_core.Nfr.ntuples (Table.snapshot table) in
  List.length !scanned = List.length snapshot
  && List.for_all
       (fun nt -> List.exists (Nfr_core.Ntuple.equal nt) snapshot)
       !scanned

let prop_tuple_roundtrip (flat, _) =
  List.for_all
    (fun tuple ->
      let buffer = Buffer.create 32 in
      Codec.encode_tuple buffer tuple;
      let decoded, _ = Codec.decode_tuple (Buffer.to_bytes buffer) 0 in
      Tuple.equal tuple decoded)
    (Relation.tuples flat)

let prop_ntuple_roundtrip (flat, order) =
  let canonical = Nest.canonical flat order in
  List.for_all
    (fun ntuple ->
      let buffer = Buffer.create 32 in
      Codec.encode_ntuple buffer ntuple;
      let decoded, _ = Codec.decode_ntuple (Buffer.to_bytes buffer) 0 in
      Ntuple.equal ntuple decoded)
    (Nfr.ntuples canonical)

let prop_store_preserves_answers (flat, order) =
  let canonical = Nest.canonical flat order in
  let store = Engine.load_nfr canonical in
  let stats = Stats.create () in
  (* Every stored ntuple must come back through the index on each of
     its component values. *)
  List.for_all
    (fun nt ->
      List.for_all
        (fun (position, component) ->
          Vset.for_all
            (fun value ->
              let attribute =
                Schema.attribute_at (Nfr.schema canonical) position
              in
              List.exists (Ntuple.equal nt)
                (Engine.nfr_lookup_contains store ~stats attribute value))
            component)
        (List.mapi (fun i c -> (i, c)) (Ntuple.components nt)))
    (Nfr.ntuples canonical)

let () =
  Alcotest.run "storage"
    [
      ( "codec",
        [
          Alcotest.test_case "values" `Quick test_codec_values;
          Alcotest.test_case "varint" `Quick test_codec_varint;
          Alcotest.test_case "tuples" `Quick test_codec_tuples;
          Alcotest.test_case "ntuples" `Quick test_codec_ntuples;
          Alcotest.test_case "NFR encodes smaller" `Quick
            test_codec_sizes_favor_nfr;
        ] );
      ( "pages",
        [
          Alcotest.test_case "append/get" `Quick test_page_append_get;
          Alcotest.test_case "overflow" `Quick test_page_overflow;
          Alcotest.test_case "heap spans pages" `Quick test_heap_spans_pages;
          Alcotest.test_case "scan charges stats" `Quick
            test_heap_scan_charges_stats;
        ] );
      ( "engine",
        [
          Alcotest.test_case "footprints" `Quick test_engine_footprints;
          Alcotest.test_case "scan vs lookup" `Quick
            test_engine_scan_agrees_with_lookup;
          Alcotest.test_case "semantic agreement" `Quick
            test_engine_semantic_agreement;
          Alcotest.test_case "page counts" `Quick
            test_engine_scan_touches_fewer_nfr_pages;
        ] );
      ( "btree",
        [
          Alcotest.test_case "basics" `Quick test_btree_basics;
          Alcotest.test_case "splits and order" `Quick
            test_btree_splits_and_order;
          Alcotest.test_case "range" `Quick test_btree_range;
        ] );
      ( "wal",
        [
          Alcotest.test_case "roundtrip" `Quick test_wal_roundtrip;
          Alcotest.test_case "missing file" `Quick test_wal_missing_file;
          Alcotest.test_case "crash truncation at every byte" `Quick
            test_wal_crash_truncation;
          Alcotest.test_case "reset" `Quick test_wal_reset;
        ] );
      ( "table",
        [
          Alcotest.test_case "basics" `Quick test_table_basics;
          Alcotest.test_case "physical consistency" `Quick
            test_table_physical_consistency;
          Alcotest.test_case "tombstones and compaction" `Quick
            test_table_tombstones_and_compaction;
          Alcotest.test_case "bulk load is one canonical pass" `Quick
            test_table_load_one_pass;
          Alcotest.test_case "range queries" `Quick (fun () ->
              let flat = Workload.Scenarios.university_relationship ~rows:80 () in
              let order = Schema.attributes (Relation.schema flat) in
              let table = Table.load ~ordered_on:(attr "Student") ~order flat in
              let stats = Stats.create () in
              let hits =
                Table.range table ~stats ~lo:(v "student1") ~hi:(v "student3")
              in
              (* Reference: scan and filter. *)
              let position = Schema.position (Relation.schema flat) (attr "Student") in
              let expected = ref 0 in
              Table.scan table ~stats (fun nt ->
                  if
                    Nfr_core.Vset.exists
                      (fun value ->
                        Value.compare (v "student1") value <= 0
                        && Value.compare value (v "student3") <= 0)
                      (Nfr_core.Ntuple.component nt position)
                  then incr expected);
              Alcotest.(check int) "range = filtered scan" !expected
                (List.length hits);
              (* Deleted facts leave the range. *)
              (match
                 List.find_opt
                   (fun tuple ->
                     Value.equal
                       (Tuple.field (Relation.schema flat) tuple (attr "Student"))
                       (v "student2"))
                   (Relation.tuples flat)
               with
              | Some victim ->
                Table.delete table victim;
                let stats2 = Stats.create () in
                let hits2 =
                  Table.range table ~stats:stats2 ~lo:(v "student2")
                    ~hi:(v "student2")
                in
                Alcotest.(check bool) "victim's fact gone from range" true
                  (List.for_all
                     (fun nt ->
                       not (Nfr_core.Ntuple.contains_tuple nt victim))
                     hits2)
              | None -> ());
              Alcotest.(check bool) "no ordered index raises" true
                (match
                   Table.range (Table.load ~order flat) ~stats ~lo:(v "a")
                     ~hi:(v "b")
                 with
                | exception Invalid_argument _ -> true
                | _ -> false));
          Alcotest.test_case "WAL recovery" `Quick test_table_wal_recovery;
          Alcotest.test_case "crash mid-write" `Quick
            test_table_wal_crash_mid_write;
          Alcotest.test_case "checkpoint" `Quick test_table_checkpoint;
          Alcotest.test_case "snapshot save/load + WAL tail" `Quick
            (fun () ->
              let snap_path = Filename.temp_file "nf2-snap" ".bin" in
              let wal_path = Filename.temp_file "nf2-snapwal" ".wal" in
              Sys.remove wal_path;
              Fun.protect
                ~finally:(fun () ->
                  List.iter
                    (fun p -> if Sys.file_exists p then Sys.remove p)
                    [ snap_path; wal_path ])
                (fun () ->
                  let table =
                    Table.create ~wal_path ~order:ab_order schema2
                  in
                  ignore (Table.insert table (row schema2 [ "a1"; "b1" ]));
                  ignore (Table.insert table (row schema2 [ "a2"; "b1" ]));
                  (* Checkpoint: snapshot + WAL reset. *)
                  Table.save_snapshot table snap_path;
                  Table.checkpoint table;
                  (* Post-checkpoint updates land only in the WAL. *)
                  ignore (Table.insert table (row schema2 [ "a1"; "b2" ]));
                  Table.delete table (row schema2 [ "a2"; "b1" ]);
                  let expected = Table.snapshot table in
                  Table.close table;
                  (* Full recovery: snapshot + WAL tail. *)
                  let recovered =
                    Table.load_snapshot ~wal_path snap_path
                  in
                  Alcotest.(check bool) "snapshot + tail = live state" true
                    (Nfr_core.Nfr.equal expected (Table.snapshot recovered));
                  Table.close recovered;
                  (* Snapshot alone recovers the checkpoint state. *)
                  let at_checkpoint = Table.load_snapshot snap_path in
                  Alcotest.(check int) "two facts at checkpoint" 2
                    (Table.fact_count at_checkpoint);
                  Alcotest.(check bool) "garbage snapshot fails loudly" true
                    (match
                       Out_channel.with_open_bin snap_path (fun oc ->
                           Out_channel.output_string oc "\x00garbage");
                       Table.load_snapshot snap_path
                     with
                    | exception Storage_error.Error (Storage_error.Corrupt _) -> true
                    | exception Schema.Schema_error _ -> true
                    | _ -> false)));
        ] );
      ( "durability",
        [
          Alcotest.test_case "WAL v1 header" `Quick test_wal_v1_header;
          Alcotest.test_case "legacy v0 replay and append" `Quick
            test_wal_legacy_v0;
          Alcotest.test_case "append after close" `Quick
            test_wal_append_after_close;
          Alcotest.test_case "mid-log salvage" `Quick test_wal_midlog_salvage;
          Alcotest.test_case "tail debris rejected" `Quick
            test_wal_tail_debris_rejected;
          Alcotest.test_case "failpoint registry" `Quick test_failpoint_registry;
          Alcotest.test_case "faults through the table" `Quick
            test_table_fault_injection;
          Alcotest.test_case "degraded is read-only" `Quick
            test_table_degraded_readonly;
          Alcotest.test_case "snapshot faults" `Quick
            test_snapshot_fault_injection;
          Alcotest.test_case "cross-layer audit" `Quick
            test_table_check_invariants;
          Alcotest.test_case "absent delete: strict raises, salvage counts" `Quick
            test_absent_delete_recovery;
          Alcotest.test_case "recovery scans each WAL once" `Quick
            test_recovery_scans_wal_once;
        ] );
      ( "properties",
        [
          qtest ~count:60 "table scan = logical snapshot"
            (arbitrary_relation_with_order ())
            prop_table_matches_store;
          qtest ~count:100 "btree matches reference"
            (arbitrary_relation_with_order ())
            prop_btree_matches_reference;
          qtest ~count:100 "tuple codec roundtrip"
            (arbitrary_relation_with_order ())
            prop_tuple_roundtrip;
          qtest ~count:100 "ntuple codec roundtrip"
            (arbitrary_relation_with_order ())
            prop_ntuple_roundtrip;
          qtest ~count:60 "index completeness"
            (arbitrary_relation_with_order ())
            prop_store_preserves_answers;
          qtest ~count:200 "one-pass recovery = fact-by-fact replay"
            arbitrary_recovery_case prop_one_pass_recovery;
        ] );
    ]
