(* The cost-based planner: ANALYZE statistics, the plan cache, the
   access-path bugfix regressions, and cross-backend agreement.

   The three regressions this suite pins down:
   - a join SELECT's chosen path is a real [Via_join] (probe attribute
     and outer side), not the old placeholder [Via_scan];
   - a strict range bound ([<] / [>]) never fetches the boundary
     group, so its records are not charged;
   - an equality on the ordered attribute competes as the point range
     [[v, v]] and beats a tombstone-bloated inverted-index probe. *)

open Relational
open Nfr_core
open Nfql
open Support

let parse_select query =
  match Parser.parse_statement query with
  | Ast.Select s -> s
  | _ -> Alcotest.fail "expected select"

let has needle text =
  let rec search i =
    i + String.length needle <= String.length text
    && (String.sub text i (String.length needle) = needle || search (i + 1))
  in
  search 0

let counter name = Obs.Registry.get Obs.Registry.global name

let load_table ?ordered_on physical name flat =
  Physical.add_table physical name
    (Storage.Table.load ?ordered_on
       ~order:(Schema.attributes (Relation.schema flat))
       flat)

(* ------------------------------------------------------------------ *)
(* Regression (a): joins surface their real strategy.                  *)
(* ------------------------------------------------------------------ *)

let test_join_path_surfaced () =
  let physical = Physical.create () in
  ignore
    (Physical.exec_string physical
       "create table sc (Student string, Course string);\n\
        insert into sc values ('s1','c1'),('s2','c1'),('s3','c2'),\
        ('s4','c2'),('s5','c3');\n\
        create table prereq (Course string, Needs string);\n\
        insert into prereq values ('c2','c1'),('c3','c1');");
  let s = parse_select "select * from sc join prereq" in
  (match Physical.chosen_path physical s with
  | Physical.Via_join jp ->
    Alcotest.(check string) "left table" "sc" jp.Physical.jp_left;
    Alcotest.(check string) "right table" "prereq" jp.Physical.jp_right;
    (match jp.Physical.jp_probe with
    | Some a ->
      Alcotest.(check string) "probes the shared attribute" "Course"
        (Attribute.name a)
    | None -> Alcotest.fail "expected a probe attribute");
    (match jp.Physical.jp_outer with
    | `Right -> ()
    | `Left -> Alcotest.fail "the smaller table must be the outer side")
  | _ -> Alcotest.fail "a join source must surface Via_join, not Via_scan");
  let text = Physical.explain physical s in
  Alcotest.(check bool) "explain names the join" true
    (has "index nested-loop join sc ⋈ prereq" text);
  Alcotest.(check bool) "explain names the outer side" true
    (has "outer prereq" text)

let test_product_join_path () =
  (* No shared attribute: the path is an explicit product, still not a
     scan. *)
  let physical = Physical.create () in
  ignore
    (Physical.exec_string physical
       "create table l (A string);\n\
        insert into l values ('a1');\n\
        create table r (B string);\n\
        insert into r values ('b1');");
  match Physical.chosen_path physical (parse_select "select * from l join r") with
  | Physical.Via_join { Physical.jp_probe = None; _ } -> ()
  | _ -> Alcotest.fail "disjoint schemas must surface a product join"

(* ------------------------------------------------------------------ *)
(* Regression (b): strict bounds never charge the boundary group.      *)
(* ------------------------------------------------------------------ *)

let strict_bound_setup () =
  let schema = Schema.strings [ "A"; "B" ] in
  let flat =
    rel schema
      [
        [ "a1"; "b1" ];
        [ "a2"; "b2" ];
        [ "a3"; "b3" ];
        [ "a4"; "b4" ];
        [ "a5"; "b5" ];
      ]
  in
  let physical = Physical.create () in
  load_table ~ordered_on:(attr "A") physical "t" flat;
  physical

let range_run physical query =
  let report = Physical.analyze_select physical (parse_select query) in
  let rows =
    match report.Physical.analyzed with
    | Eval.Rows rows -> Nfr.cardinality rows
    | Eval.Done _ -> Alcotest.fail "expected rows"
  in
  let range_op =
    match
      List.find_opt
        (fun m -> has "btree-range" m.Physical.op_label)
        report.Physical.operators
    with
    | Some m -> m
    | None -> Alcotest.failf "no btree-range operator ran for %s" query
  in
  (rows, range_op.Physical.op_records)

let test_strict_upper_bound () =
  let physical = strict_bound_setup () in
  let incl_rows, incl_records = range_run physical "select * from t where A <= 'a3'" in
  let strict_rows, strict_records = range_run physical "select * from t where A < 'a3'" in
  Alcotest.(check int) "inclusive rows" 3 incl_rows;
  Alcotest.(check int) "inclusive records charged" 3 incl_records;
  Alcotest.(check int) "strict rows" 2 strict_rows;
  Alcotest.(check int) "strict bound skips the boundary group" 2 strict_records

let test_strict_lower_bound () =
  let physical = strict_bound_setup () in
  let incl_rows, incl_records = range_run physical "select * from t where A >= 'a3'" in
  let strict_rows, strict_records = range_run physical "select * from t where A > 'a3'" in
  Alcotest.(check int) "inclusive rows" 3 incl_rows;
  Alcotest.(check int) "inclusive records charged" 3 incl_records;
  Alcotest.(check int) "strict rows" 2 strict_rows;
  Alcotest.(check int) "strict bound skips the boundary group" 2 strict_records

let test_strict_bounds_agree_with_eval () =
  (* Inclusivity must flow through to the rows, differentially. *)
  let physical = strict_bound_setup () in
  let logical = Eval.create () in
  ignore
    (Eval.exec_string logical
       "create table t (A string, B string);\n\
        insert into t values ('a1','b1'),('a2','b2'),('a3','b3'),\
        ('a4','b4'),('a5','b5');");
  List.iter
    (fun query ->
      match Eval.exec_string logical query, Physical.exec_string physical query with
      | [ Eval.Rows a ], [ (Eval.Rows b, _) ] ->
        Alcotest.(check bool) (Printf.sprintf "same rows for %s" query) true
          (Nfr.equal a b)
      | _ -> Alcotest.fail "expected rows")
    [
      "select * from t where A < 'a3'";
      "select * from t where A > 'a3'";
      "select * from t where A > 'a1' and A < 'a5'";
      "select * from t where A >= 'a2' and A < 'a4'";
    ]

(* ------------------------------------------------------------------ *)
(* Regression (c): equality competes as a point range.                 *)
(* ------------------------------------------------------------------ *)

let test_eq_competes_as_point_range () =
  let schema = Schema.strings [ "A"; "B" ] in
  let flat =
    rel schema
      (List.init 40 (fun i ->
           [ Printf.sprintf "a%02d" i; Printf.sprintf "b%02d" i ]))
  in
  let physical = Physical.create () in
  load_table ~ordered_on:(attr "A") physical "t" flat;
  (* Churn one value's posting list: every merge posts a fresh rid and
     tombstones the old one, so the inverted index pays 1 + n fetches
     for a value whose live group count is still 1. The B+-tree prunes
     deletes, so the point range stays cheap. *)
  for i = 0 to 7 do
    ignore
      (Physical.exec_string physical
         (Printf.sprintf "insert into t values ('a07','x%d')" i))
  done;
  ignore (Physical.exec_string physical "analyze t");
  let s = parse_select "select * from t where A = 'a07'" in
  let plan = Physical.plan physical s in
  (match plan.Physical.plan_path with
  | Physical.Via_range (a, Some lo, Some hi) ->
    Alcotest.(check string) "point range on A" "A" (Attribute.name a);
    Alcotest.(check bool) "inclusive point bounds" true
      (lo.Physical.b_incl && hi.Physical.b_incl);
    Alcotest.(check bool) "lo = hi = the literal" true
      (Value.equal lo.Physical.b_value hi.Physical.b_value
      && Value.equal lo.Physical.b_value (Value.of_string "a07"))
  | _ ->
    Alcotest.fail
      "equality on the ordered attribute must win as a point range");
  (* The probe it beat is still in the candidate table, priced higher
     by its tombstones. *)
  let cost_of pred =
    match List.find_opt pred plan.Physical.plan_candidates with
    | Some c -> c.Physical.cand_cost
    | None -> Alcotest.fail "candidate missing from the priced table"
  in
  let probe_cost =
    cost_of (fun c ->
        match c.Physical.cand_path with Physical.Via_index _ -> true | _ -> false)
  in
  let range_cost =
    cost_of (fun c -> c.Physical.cand_path = plan.Physical.plan_path)
  in
  Alcotest.(check bool)
    (Printf.sprintf "tombstoned probe (%.1f) costs more than the range (%.1f)"
       probe_cost range_cost)
    true (probe_cost > range_cost);
  (* And the rows still come out right. *)
  match Physical.exec_string physical "select * from t where A = 'a07'" with
  | [ (Eval.Rows rows, _) ] ->
    Alcotest.(check int) "one group" 1 (Nfr.cardinality rows);
    Alcotest.(check int) "original fact plus the churned ones" 9
      (Nfr.expansion_size rows)
  | _ -> Alcotest.fail "expected rows"

(* ------------------------------------------------------------------ *)
(* ANALYZE and the statistics themselves.                              *)
(* ------------------------------------------------------------------ *)

let test_analyze_statement () =
  let physical = Physical.create () in
  ignore
    (Physical.exec_string physical
       "create table t (A string, B string);\n\
        insert into t values ('a1','b1'),('a1','b2'),('a2','b1');");
  (match Physical.exec_string physical "analyze t" with
  | [ (Eval.Done text, _) ] ->
    Alcotest.(check bool) "names the table" true (has "analyzed t:" text);
    Alcotest.(check bool) "reports classes" true (has "class" text);
    Alcotest.(check bool) "reports postings" true (has "postings mean" text)
  | _ -> Alcotest.fail "expected a Done summary");
  match Physical.table_stats physical "t" with
  | Some stats ->
    Alcotest.(check int) "facts" 3 stats.Tablestats.s_facts
  | None -> Alcotest.fail "ANALYZE must leave statistics behind"

(* Property: ANALYZE returns byte-identical text to the summary of the
   reference evaluator's relation, and the collected statistics match a brute-force recomputation from
   the canonical snapshot — including Def. 6 agreement with
   Classify.classify and the fixedness ⟺ [:1]-class equivalence. *)
let prop_analyze_agrees (flat, order) =
  ignore order;
  let schema = Relation.schema flat in
  let logical = Eval.create () in
  let names =
    String.concat ", "
      (List.map
         (fun a -> Attribute.name a ^ " string")
         (Schema.attributes schema))
  in
  ignore (Eval.exec_string logical (Printf.sprintf "create table t (%s)" names));
  Relation.iter
    (fun tuple ->
      let values =
        String.concat ","
          (List.map
             (fun value -> Format.asprintf "'%a'" Value.pp value)
             (Tuple.values tuple))
      in
      ignore
        (Eval.exec_string logical
           (Printf.sprintf "insert into t values (%s)" values)))
    flat;
  let physical = Physical.create () in
  load_table ~ordered_on:(List.hd (Schema.attributes schema)) physical "t" flat;
  let logical_text =
    Tablestats.summary "t"
      (Tablestats.collect (Option.get (Eval.table logical "t")))
  in
  let physical_text =
    match Physical.exec_string physical "analyze t" with
    | [ (Eval.Done text, _) ] -> text
    | _ -> QCheck.Test.fail_report "physical ANALYZE did not return Done"
  in
  String.equal logical_text physical_text
  &&
  let stats = Option.get (Physical.table_stats physical "t") in
  let snapshot = Storage.Table.snapshot (Option.get (Physical.table physical "t")) in
  stats.Tablestats.s_rows = Nfr.cardinality snapshot
  && stats.Tablestats.s_facts = Nfr.expansion_size snapshot
  && List.for_all
       (fun a ->
         let position = Schema.position schema a.Tablestats.a_attr in
         let posting = Hashtbl.create 16 in
         Nfr.iter
           (fun ntuple ->
             Vset.fold
               (fun value () ->
                 Hashtbl.replace posting value
                   (1 + Option.value ~default:0 (Hashtbl.find_opt posting value)))
               (Ntuple.component ntuple position) ())
           snapshot;
         let distinct = Hashtbl.length posting in
         let max_posting = Hashtbl.fold (fun _ n acc -> max n acc) posting 0 in
         let total = Hashtbl.fold (fun _ n acc -> n + acc) posting 0 in
         let mean =
           if distinct = 0 then 0.0
           else float_of_int total /. float_of_int distinct
         in
         a.Tablestats.a_distinct = distinct
         && a.Tablestats.a_max_posting = max_posting
         && Float.abs (a.Tablestats.a_mean_posting -. mean) < 1e-9
         && a.Tablestats.a_class = Classify.classify snapshot a.Tablestats.a_attr
         && a.Tablestats.a_fixed
            = (match a.Tablestats.a_class with
              | Classify.One_to_one | Classify.N_to_one -> true
              | Classify.One_to_n | Classify.M_to_n -> false))
       stats.Tablestats.s_attrs
  && (* Plans priced from the fresh statistics still return exactly the
        evaluator's rows. *)
  List.for_all
    (fun query ->
      match Eval.exec_string logical query, Physical.exec_string physical query with
      | [ Eval.Rows a ], [ (Eval.Rows b, _) ] -> Nfr.equal a b
      | _ -> false)
    [
      "select * from t";
      "select * from t where A = 'a1'";
      "select * from t where A CONTAINS 'a0'";
      "select B from t where A >= 'a0' and A < 'a2'";
      "select * from t where B = 'b1' and A = 'a0'";
    ]

(* ------------------------------------------------------------------ *)
(* Plan cache.                                                         *)
(* ------------------------------------------------------------------ *)

let cache_setup () =
  let physical = Physical.create () in
  ignore
    (Physical.exec_string physical
       "create table t (A string, B string);\n\
        insert into t values ('a1','b1'),('a2','b2'),('a3','b3');\n\
        analyze t;");
  physical

let test_cache_counters_and_invalidation () =
  let physical = cache_setup () in
  let s = parse_select "select * from t where A = 'a1'" in
  let hit0 = counter "planner.cache_hit" in
  let miss0 = counter "planner.cache_miss" in
  ignore (Physical.plan physical s);
  Alcotest.(check int) "first plan misses" (miss0 + 1) (counter "planner.cache_miss");
  ignore (Physical.plan physical s);
  ignore (Physical.plan physical s);
  Alcotest.(check int) "repeats hit" (hit0 + 2) (counter "planner.cache_hit");
  Alcotest.(check int) "repeats add no misses" (miss0 + 1)
    (counter "planner.cache_miss");
  (* ANALYZE bumps the statistics generation: the cached plan is
     stale and must miss. *)
  let generation = Physical.generation physical in
  ignore (Physical.exec_string physical "analyze t");
  Alcotest.(check bool) "ANALYZE bumps the generation" true
    (Physical.generation physical > generation);
  ignore (Physical.plan physical s);
  Alcotest.(check int) "stale plan misses" (miss0 + 2) (counter "planner.cache_miss");
  (* DDL invalidates too. *)
  ignore (Physical.exec_string physical "create table other (X string)");
  ignore (Physical.plan physical s);
  Alcotest.(check int) "DDL invalidates" (miss0 + 3) (counter "planner.cache_miss")

let test_cache_lru_eviction () =
  let physical = cache_setup () in
  let select_of i =
    parse_select (Printf.sprintf "select * from t where A = 'k%d'" i)
  in
  let s0 = select_of 0 in
  ignore (Physical.plan physical s0);
  let hit0 = counter "planner.cache_hit" in
  ignore (Physical.plan physical s0);
  Alcotest.(check int) "warm entry hits" (hit0 + 1) (counter "planner.cache_hit");
  (* Flood the cache past its capacity (128): the oldest entry — s0 —
     is the LRU victim. *)
  for i = 1 to 128 do
    ignore (Physical.plan physical (select_of i))
  done;
  let miss0 = counter "planner.cache_miss" in
  ignore (Physical.plan physical s0);
  Alcotest.(check int) "evicted entry misses again" (miss0 + 1)
    (counter "planner.cache_miss")

let test_auto_refresh () =
  let physical = Physical.create () in
  ignore
    (Physical.exec_string physical
       "create table t (A string, B string);\n\
        insert into t values ('a1','b1'),('a2','b2');\n\
        analyze t;");
  Physical.set_auto_analyze_threshold physical 3;
  let before = Option.get (Physical.table_stats physical "t") in
  Alcotest.(check int) "initial facts" 2 before.Tablestats.s_facts;
  let generation = Physical.generation physical in
  let auto0 = counter "planner.auto_analyze" in
  ignore
    (Physical.exec_string physical
       "insert into t values ('a3','b3'),('a4','b4'),('a5','b5')");
  let after = Option.get (Physical.table_stats physical "t") in
  Alcotest.(check int) "statistics refreshed in place" 5 after.Tablestats.s_facts;
  Alcotest.(check bool) "refresh bumps the generation" true
    (Physical.generation physical > generation);
  Alcotest.(check int) "planner.auto_analyze charged" (auto0 + 1)
    (counter "planner.auto_analyze")

(* Auto-ANALYZE counts only committed writes: a rolled-back
   transaction restores the pre-transaction write ledger, so its
   buffered inserts never push a table over the refresh threshold. *)
let test_auto_analyze_ignores_rollback () =
  let physical = cache_setup () in
  Physical.set_auto_analyze_threshold physical 3;
  let auto0 = counter "planner.auto_analyze" in
  let generation = Physical.generation physical in
  ignore
    (Physical.exec_string physical
       "begin;\n\
        insert into t values ('x1','x1'),('x2','x2'),('x3','x3');\n\
        rollback");
  Alcotest.(check int) "rollback triggers no refresh" auto0
    (counter "planner.auto_analyze");
  Alcotest.(check bool) "generation unchanged by rollback" true
    (Physical.generation physical = generation);
  let stats = Option.get (Physical.table_stats physical "t") in
  Alcotest.(check int) "statistics still describe committed state" 3
    stats.Tablestats.s_facts;
  (* Two committed writes stay under the threshold — proof the three
     rolled-back ones did not leak into the ledger. *)
  ignore
    (Physical.exec_string physical "insert into t values ('y1','y1'),('y2','y2')");
  Alcotest.(check int) "committed writes below threshold" auto0
    (counter "planner.auto_analyze");
  (* The third committed write crosses it. *)
  ignore (Physical.exec_string physical "insert into t values ('y3','y3')");
  Alcotest.(check int) "third committed write fires the refresh" (auto0 + 1)
    (counter "planner.auto_analyze");
  (* A committed transaction's writes count exactly once, at COMMIT. *)
  ignore
    (Physical.exec_string physical
       "begin;\n\
        insert into t values ('z1','z1'),('z2','z2'),('z3','z3');\n\
        commit");
  Alcotest.(check int) "committed transaction fires the refresh" (auto0 + 2)
    (counter "planner.auto_analyze")

(* The generation-keyed cache never serves plans costed against
   aborted statistics: a rolled-back bulk insert leaves the generation
   alone (the cached plan is still valid and hits), while the same
   insert committed refreshes statistics and forces a re-cost. *)
let test_cache_around_aborted_bulk_insert () =
  let physical = cache_setup () in
  Physical.set_auto_analyze_threshold physical 3;
  let s = parse_select "select * from t where A = 'a1'" in
  ignore (Physical.plan physical s);
  let generation = Physical.generation physical in
  let hit0 = counter "planner.cache_hit" in
  let miss0 = counter "planner.cache_miss" in
  (* Bulk enough to trip auto-ANALYZE if its writes leaked. *)
  let bulk =
    "insert into t values ('z1','z1'),('z2','z2'),('z3','z3'),('z4','z4')"
  in
  ignore (Physical.exec_string physical ("begin;\n" ^ bulk ^ ";\nrollback"));
  Alcotest.(check bool) "aborted bulk insert keeps the generation" true
    (Physical.generation physical = generation);
  ignore (Physical.plan physical s);
  Alcotest.(check int) "cached plan still hits after rollback" (hit0 + 1)
    (counter "planner.cache_hit");
  Alcotest.(check int) "no spurious miss after rollback" miss0
    (counter "planner.cache_miss");
  ignore (Physical.exec_string physical ("begin;\n" ^ bulk ^ ";\ncommit"));
  Alcotest.(check bool) "committed bulk insert bumps the generation" true
    (Physical.generation physical > generation);
  ignore (Physical.plan physical s);
  Alcotest.(check int) "stale plan recosted after commit" (miss0 + 1)
    (counter "planner.cache_miss")

(* ------------------------------------------------------------------ *)
(* Costing on skew, and what EXPLAIN shows.                            *)
(* ------------------------------------------------------------------ *)

let hot_and_cold flat =
  let attr_a = attr "A" in
  let counts = Hashtbl.create 64 in
  List.iter
    (fun tuple ->
      let value = Tuple.field (Relation.schema flat) tuple attr_a in
      Hashtbl.replace counts value
        (1 + Option.value ~default:0 (Hashtbl.find_opt counts value)))
    (Relation.tuples flat);
  Hashtbl.fold
    (fun value n (hot, cold) ->
      let _, hot_n = hot and _, cold_n = cold in
      ( (if n > hot_n then (value, n) else hot),
        if n < cold_n then (value, n) else cold ))
    counts
    ((Value.of_string "", 0), (Value.of_string "", max_int))

let test_skew_plan_flip () =
  (* The acceptance scenario: on a Zipf-skewed table the hot value's
     posting list rivals the heap, so after ANALYZE the planner flips
     it to a scan while the cold value keeps its probe. *)
  let flat = Workload.Scenarios.skewed_pairs ~s:1.2 ~rows:2000 () in
  let (hot_value, _), (cold_value, _) = hot_and_cold flat in
  let physical = Physical.create () in
  load_table physical "skew" flat;
  let path value =
    Physical.chosen_path physical
      (parse_select
         (Printf.sprintf "select * from skew where A = '%s'"
            (Value.to_string value)))
  in
  (match path hot_value with
  | Physical.Via_index _ -> ()
  | _ -> Alcotest.fail "before ANALYZE the legacy ranking probes");
  ignore (Physical.exec_string physical "analyze skew");
  (match path hot_value with
  | Physical.Via_scan -> ()
  | _ -> Alcotest.fail "after ANALYZE the hot value must flip to a scan");
  (match path cold_value with
  | Physical.Via_index _ -> ()
  | _ -> Alcotest.fail "the cold value must keep its probe");
  (* The flip is visible in EXPLAIN's candidate table. *)
  let text =
    Physical.explain physical
      (parse_select
         (Printf.sprintf "select * from skew where A = '%s'"
            (Value.to_string hot_value)))
  in
  Alcotest.(check bool) "scan chosen" true (has "heap scan" text);
  Alcotest.(check bool) "probe still listed" true (has "inverted-index probe" text);
  Alcotest.(check bool) "marks the winner" true (has "(chosen)" text)

let test_explain_shows_costs () =
  let physical = cache_setup () in
  let text = Physical.explain physical (parse_select "select * from t where A = 'a1'") in
  Alcotest.(check bool) "est rows line" true (has "est rows:" text);
  Alcotest.(check bool) "candidate table" true (has "candidates:" text);
  Alcotest.(check bool) "cost column" true (has "cost" text);
  Alcotest.(check bool) "marks the winner" true (has "(chosen)" text);
  (* A never-ANALYZEd table says so instead of faking confidence. *)
  let fresh = Physical.create () in
  ignore
    (Physical.exec_string fresh
       "create table u (A string);\ninsert into u values ('a1');");
  let text = Physical.explain fresh (parse_select "select * from u where A = 'a1'") in
  Alcotest.(check bool) "points at ANALYZE" true
    (has "(no statistics; run ANALYZE)" text);
  (* EXPLAIN ANALYZE carries the estimate next to the actual rows. *)
  match Physical.exec_string physical "explain analyze select * from t where A = 'a1'" with
  | [ (Eval.Done text, _) ] ->
    Alcotest.(check bool) "est column" true (has "est" text)
  | _ -> Alcotest.fail "expected analyze text"

let test_estimation_feedback () =
  let physical = cache_setup () in
  let observed name =
    match Obs.Registry.summarize Obs.Registry.global name with
    | Some s -> s.Obs.Registry.count
    | None -> 0
  in
  let before = observed "planner.est_error" in
  ignore (Physical.exec_string physical "select * from t where A = 'a1'");
  (match Physical.last_estimate physical with
  | Some (est, actual) ->
    (* On this 3-group table the scan is genuinely cheapest, so the
       access-path leaf emits all groups and the residual filter
       narrows them — the estimate tracks the leaf. *)
    Alcotest.(check int) "actual leaf rows" 3 actual;
    Alcotest.(check bool) "estimate recorded" true (est >= 1.0)
  | None -> Alcotest.fail "a select must record est-vs-actual");
  Alcotest.(check int) "est_error observed" (before + 1)
    (observed "planner.est_error")

let () =
  Alcotest.run "planner"
    [
      ( "regressions",
        [
          Alcotest.test_case "join path surfaced" `Quick test_join_path_surfaced;
          Alcotest.test_case "product join path" `Quick test_product_join_path;
          Alcotest.test_case "strict upper bound" `Quick test_strict_upper_bound;
          Alcotest.test_case "strict lower bound" `Quick test_strict_lower_bound;
          Alcotest.test_case "strict bounds agree with eval" `Quick
            test_strict_bounds_agree_with_eval;
          Alcotest.test_case "eq competes as point range" `Quick
            test_eq_competes_as_point_range;
        ] );
      ( "statistics",
        [
          Alcotest.test_case "analyze statement" `Quick test_analyze_statement;
          qtest ~count:60 "both back ends agree, stats match brute force"
            (arbitrary_relation_with_order ())
            prop_analyze_agrees;
        ] );
      ( "cache",
        [
          Alcotest.test_case "counters and invalidation" `Quick
            test_cache_counters_and_invalidation;
          Alcotest.test_case "lru eviction" `Quick test_cache_lru_eviction;
          Alcotest.test_case "auto refresh" `Quick test_auto_refresh;
          Alcotest.test_case "auto refresh ignores rollback" `Quick
            test_auto_analyze_ignores_rollback;
          Alcotest.test_case "cache around aborted bulk insert" `Quick
            test_cache_around_aborted_bulk_insert;
        ] );
      ( "costing",
        [
          Alcotest.test_case "skewed plan flip" `Quick test_skew_plan_flip;
          Alcotest.test_case "explain shows costs" `Quick test_explain_shows_costs;
          Alcotest.test_case "estimation feedback" `Quick test_estimation_feedback;
        ] );
    ]
