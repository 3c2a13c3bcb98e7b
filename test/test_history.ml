(* The metrics-history store and the system tables over it.

   The store's contract is the paper's: the history is a canonical NFR
   under the fixed application order [Ts; Value; Tier; Series], kept
   canonical incrementally through Update (never by renesting), with
   per-tier sample counts bounded by the configured caps. A seeded
   QCheck property drives a randomized scrape/downsample schedule
   against both invariants; the eviction cascade itself is pinned by a
   hand-computed deterministic case.

   The system-table half checks the executor: SELECT / SELECT COUNT /
   SHOW / HISTORY over [_metrics] work, every write path is refused
   with the typed read-only error, and a fake-clock Loop.step really
   does land scrape points queryable over [_metrics]. Retention of the
   slowest traces is driven with synthetic span trees. *)

open Relational
open Nfr_core
module H = Hist.History

let clock_testable = Alcotest.(list (pair (float 1e-9) (float 1e-9)))

(* ------------------------------------------------------------------ *)
(* Deterministic eviction cascade                                      *)
(* ------------------------------------------------------------------ *)

let small_config =
  { H.raw_cap = 2; mid_period = 10.; mid_cap = 2; old_period = 60.; old_cap = 2 }

let test_downsample_cascade () =
  let h = H.create ~config:small_config () in
  List.iteri
    (fun i ts -> H.observe h ~series:"s" ~ts (float_of_int i))
    [ 0.; 5.; 10.; 15.; 20.; 25.; 30. ];
  (* raw keeps the newest two; each eviction rolls into the 10s tier
     bucketed to floor(ts/10)*10 with last-writer-wins, and the 10s
     tier's own eviction rolls into the 1m tier. *)
  Alcotest.check clock_testable "raw newest-first"
    [ (30., 6.); (25., 5.) ]
    (H.samples h ~series:"s" ~tier:"raw");
  Alcotest.check clock_testable "10s buckets, last wins"
    [ (20., 4.); (10., 3.) ]
    (H.samples h ~series:"s" ~tier:"10s");
  Alcotest.check clock_testable "1m catches the 10s eviction"
    [ (0., 1.) ]
    (H.samples h ~series:"s" ~tier:"1m");
  Alcotest.(check bool) "canonical" true
    (Nest.is_canonical (H.nfr h) H.order);
  (* Merged ascending view, newest 3 only. *)
  Alcotest.(check (list (triple string (float 1e-9) (float 1e-9))))
    "history merges tiers ascending"
    [ ("10s", 20., 4.); ("raw", 25., 5.); ("raw", 30., 6.) ]
    (H.history h ~series:"s" ~last:3 ())

let test_nan_and_replacement () =
  let h = H.create ~config:small_config () in
  H.observe h ~series:"s" ~ts:1. Float.nan;
  Alcotest.(check int) "NaN dropped" 0 (H.series_count h);
  H.observe h ~series:"s" ~ts:1. 5.;
  H.observe h ~series:"s" ~ts:1. 7.;
  Alcotest.check clock_testable "same-ts sample replaced" [ (1., 7.) ]
    (H.samples h ~series:"s" ~tier:"raw");
  Alcotest.(check bool) "canonical after replacement" true
    (Nest.is_canonical (H.nfr h) H.order)

(* Constant-value runs must collapse: N scrapes of a flat series cost
   one NFR tuple whose Ts component holds all N stamps. *)
let test_flat_series_one_tuple () =
  let h = H.create () in
  for i = 1 to 50 do
    H.observe h ~series:"flat" ~ts:(float_of_int i) 42.
  done;
  Alcotest.(check int) "one NFR tuple" 1 (Nfr.cardinality (H.nfr h));
  Alcotest.(check int) "fifty flat samples" 50
    (Relation.cardinality (Nfr.flatten (H.nfr h)))

(* ------------------------------------------------------------------ *)
(* Randomized scrape/downsample schedule (seeded property)             *)
(* ------------------------------------------------------------------ *)

let tier_caps cfg =
  [ ("raw", cfg.H.raw_cap); ("10s", cfg.H.mid_cap); ("1m", cfg.H.old_cap) ]

(* Each step either observes one of three series directly or scrapes a
   live registry (counters bumped as we go); time advances by a random
   positive delta so collisions and bucket boundaries both occur. *)
let prop_schedule_canonical_and_bounded =
  QCheck.Test.make ~count:60 ~name:"history canonical + tiers bounded"
    QCheck.(
      list_of_size (Gen.int_range 1 120)
        (triple (int_bound 3) (int_bound 9) (int_bound 5)))
    (fun script ->
      let h = H.create ~config:small_config () in
      let reg = Obs.Registry.create () in
      let now = ref 0. in
      List.iter
        (fun (who, v, dt) ->
          now := !now +. (1. +. float_of_int dt);
          if who = 3 then begin
            Obs.Registry.add reg "sched.counter" (v + 1);
            Obs.Registry.set_gauge reg "sched.gauge" (float_of_int v);
            ignore (H.scrape h reg ~now:!now)
          end
          else
            H.observe h
              ~series:(Printf.sprintf "s%d" who)
              ~ts:!now (float_of_int v))
        script;
      let caps = tier_caps (H.config h) in
      Nest.is_canonical (H.nfr h) H.order
      && List.for_all
           (fun ((_, tier), n) -> n <= List.assoc tier caps)
           (H.tier_counts h)
      && (* the store and the per-tier books agree on the sample
            population: the flattened NFR is exactly the tier lists. *)
      Relation.cardinality (Nfr.flatten (H.nfr h))
      = List.fold_left (fun acc (_, n) -> acc + n) 0 (H.tier_counts h))

(* ------------------------------------------------------------------ *)
(* Scraping a registry                                                 *)
(* ------------------------------------------------------------------ *)

let test_scrape_shapes () =
  let reg = Obs.Registry.create () in
  Obs.Registry.add reg "queries.total" 3;
  Obs.Registry.incr_labeled reg "frames.in" [ ("type", "query") ];
  Obs.Registry.set_gauge reg "connections.open" 2.;
  Obs.Registry.observe reg "query.seconds" 0.004;
  let h = H.create () in
  ignore (H.scrape h reg ~now:5.);
  ignore (H.scrape h reg ~now:10.);
  let names = H.series_names h in
  List.iter
    (fun name ->
      Alcotest.(check bool) ("series " ^ name) true (List.mem name names))
    [
      "queries.total"; "frames.in{type=query}"; "connections.open";
      "query.seconds.count"; "query.seconds.p50"; "query.seconds.p99";
    ];
  Alcotest.(check int) "two raw samples" 2
    (List.length (H.samples h ~series:"queries.total" ~tier:"raw"));
  Alcotest.(check int) "scrapes counted" 2 (H.scrape_count h)

(* ------------------------------------------------------------------ *)
(* System tables                                                       *)
(* ------------------------------------------------------------------ *)

let seeded_history () =
  let h = H.create () in
  List.iter
    (fun (ts, v) -> H.observe h ~series:"queries.total" ~ts v)
    [ (5., 1.); (10., 2.); (15., 2.) ];
  H.observe h ~series:"loop.lag" ~ts:15. 0.;
  h

(* An executor whose [_metrics] serves the seeded history above. *)
let seeded_db () =
  let db = Nfql.Physical.create () in
  let h = seeded_history () in
  Nfql.Physical.register_system_table db "_metrics" (fun () ->
      (H.order, H.nfr h));
  db

let exec db source = List.map fst (Nfql.Physical.exec_string db source)

let one_rows db source =
  match exec db source with
  | [ Nfql.Eval.Rows nfr ] -> nfr
  | _ -> Alcotest.failf "expected one rows result for %S" source

let expect_refusal db source fragment =
  match exec db source with
  | exception Nfql.Compile.Error msg ->
    Alcotest.(check bool)
      (Printf.sprintf "refuses %S with %S (got %S)" source fragment msg)
      true
      (let h = String.length msg and n = String.length fragment in
       let rec at i =
         i + n <= h && (String.sub msg i n = fragment || at (i + 1))
       in
       at 0)
  | _ -> Alcotest.failf "accepted %S" source

let test_system_select () =
  let db = seeded_db () in
  let rows = one_rows db "select * from _metrics where Series = 'queries.total'" in
  Alcotest.(check int) "flat samples of the series" 3
    (Relation.cardinality (Nfr.flatten rows));
  (* value 2.0 held at two timestamps -> one NFR tuple, so the NFR
     itself has 2 tuples for 3 flat samples. *)
  Alcotest.(check int) "nested run collapsed" 2 (Nfr.cardinality rows);
  let shown = one_rows db "show _metrics" in
  Alcotest.(check int) "SHOW sees every series" 4
    (Relation.cardinality (Nfr.flatten shown));
  match exec db "select count from _metrics" with
  | [ Nfql.Eval.Done _ ] -> ()
  | _ -> Alcotest.fail "count over _metrics failed"

let test_system_history_statement () =
  let db = seeded_db () in
  let rows = one_rows db "history 'queries.total' last 2" in
  Alcotest.(check int) "newest two samples" 2
    (Relation.cardinality (Nfr.flatten rows));
  let all = one_rows db "history 'queries.total'" in
  Alcotest.(check int) "full series" 3 (Relation.cardinality (Nfr.flatten all));
  let empty = one_rows db "history 'no.such.series'" in
  Alcotest.(check int) "unknown series is empty" 0 (Nfr.cardinality empty)

let test_system_writes_refused () =
  let db = seeded_db () in
  let read_only = Nfql.Systab.read_only_error "_metrics" in
  expect_refusal db "insert into _metrics values ('s','raw',1.0,1.0)" read_only;
  expect_refusal db "delete from _metrics where Series = 's'" read_only;
  expect_refusal db "update _metrics set Value = 1.0 where Series = 's'" read_only;
  expect_refusal db "drop table _metrics" read_only;
  expect_refusal db "create table _mine (A string)" "reserved";
  expect_refusal db "select * from _metrics join _metrics" "JOIN";
  expect_refusal db "create view v as nest _metrics by Series" "system table";
  expect_refusal db "create view _v as nest t by A" "reserved"

(* ------------------------------------------------------------------ *)
(* Fake-clock server loop: paced scrapes land in _metrics              *)
(* ------------------------------------------------------------------ *)

let with_fake_loop ?config clock f =
  let db = Nfql.Physical.create () in
  let loop =
    Server.Loop.create ?config ~now:(fun () -> !clock) ~db ~listen:(`Port 0) ()
  in
  Fun.protect ~finally:(fun () -> Server.Loop.close loop) (fun () -> f loop db)

let test_loop_scrapes_into_metrics () =
  let clock = ref 100. in
  with_fake_loop clock (fun loop db ->
      (* Default scrape interval is 5 fake-seconds; three ticks with
         the clock jumping past it must land >= 2 scrape points. *)
      ignore (Server.Loop.step loop 0.002);
      clock := !clock +. 6.;
      ignore (Server.Loop.step loop 0.002);
      clock := !clock +. 6.;
      ignore (Server.Loop.step loop 0.002);
      let ctx = Server.Loop.context loop in
      Alcotest.(check bool) "at least two scrapes" true
        (H.scrape_count (Server.Session.context_hist ctx) >= 2);
      let rows =
        match
          Nfql.Physical.exec_string db
            "select * from _metrics where Series = 'queries.total'"
        with
        | [ (Nfql.Eval.Rows nfr, _) ] -> nfr
        | _ -> Alcotest.fail "expected rows from _metrics"
      in
      Alcotest.(check bool) "pre-declared series has >= 2 points" true
        (Relation.cardinality (Nfr.flatten rows) >= 2);
      (* The scrape itself is charged to the registry and visible as
         history too. *)
      Alcotest.(check bool) "scrape cost series exists" true
        (List.mem "obs.scrape.seconds.count"
           (H.series_names (Server.Session.context_hist ctx))
        || H.series_count (Server.Session.context_hist ctx) > 0))

(* ------------------------------------------------------------------ *)
(* Slow-trace retention with synthetic spans                           *)
(* ------------------------------------------------------------------ *)

let synthetic_trace ~trace ~busy =
  let root =
    {
      Obs.Span.id = (trace * 10) + 1; trace; parent = 0;
      event = Obs.Span.Statement "select"; label = Printf.sprintf "q%d" trace;
      start_s = 0.; busy_s = busy; rows = 1; bytes = 0; ended = true;
    }
  in
  let child =
    { root with Obs.Span.id = (trace * 10) + 2; parent = root.Obs.Span.id;
      event = Obs.Span.Custom "op"; busy_s = busy /. 2. }
  in
  [ root; child ]

let test_retain_keeps_slowest () =
  let r = Obs.Retain.create ~capacity:3 () in
  List.iteri
    (fun i busy -> Obs.Retain.offer r (synthetic_trace ~trace:(i + 1) ~busy))
    [ 0.03; 0.2; 0.01; 0.5; 0.04; 0.002 ];
  Alcotest.(check int) "full" 3 (Obs.Retain.count r);
  let kept = List.map (fun t -> t.Obs.Retain.root_s) (Obs.Retain.snapshot r) in
  Alcotest.(check clock_testable) "three slowest, slowest first"
    [ (0.5, 0.5); (0.2, 0.2); (0.04, 0.04) ]
    (List.map (fun s -> (s, s)) kept);
  Alcotest.(check (float 1e-9)) "admission bar" 0.04 (Obs.Retain.min_root_s r);
  (* a rootless offering is ignored *)
  Obs.Retain.offer r
    (List.filter
       (fun s -> s.Obs.Span.parent <> 0)
       (synthetic_trace ~trace:99 ~busy:9.));
  Alcotest.(check int) "rootless ignored" 3 (Obs.Retain.count r)

let prop_retain_top_k =
  QCheck.Test.make ~count:100 ~name:"retention = top-capacity by root busy"
    QCheck.(
      pair (int_range 1 8)
        (list_of_size (Gen.int_range 0 40) (int_range 1 1000)))
    (fun (cap, durations) ->
      let r = Obs.Retain.create ~capacity:cap () in
      List.iteri
        (fun i d ->
          Obs.Retain.offer r
            (synthetic_trace ~trace:(i + 1) ~busy:(float_of_int d /. 1000.)))
        durations;
      let expected =
        List.sort (fun a b -> compare b a)
          (List.map (fun d -> float_of_int d /. 1000.) durations)
      in
      let expected =
        List.filteri (fun i _ -> i < cap) expected
      in
      let kept = List.map (fun t -> t.Obs.Retain.root_s) (Obs.Retain.snapshot r) in
      List.length kept = min cap (List.length durations)
      && List.for_all2 (fun a b -> Float.abs (a -. b) < 1e-12) kept expected)

let () =
  let props = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "history"
    [
      ( "store",
        [
          Alcotest.test_case "deterministic eviction cascade" `Quick
            test_downsample_cascade;
          Alcotest.test_case "NaN dropped, same-ts replaced" `Quick
            test_nan_and_replacement;
          Alcotest.test_case "flat series costs one NFR tuple" `Quick
            test_flat_series_one_tuple;
        ]
        @ props [ prop_schedule_canonical_and_bounded ] );
      ( "scrape",
        [ Alcotest.test_case "registry shapes sampled" `Quick test_scrape_shapes ]
      );
      ( "system tables",
        [
          Alcotest.test_case "SELECT/SHOW/COUNT over _metrics" `Quick
            test_system_select;
          Alcotest.test_case "HISTORY statement" `Quick
            test_system_history_statement;
          Alcotest.test_case "writes refused" `Quick test_system_writes_refused;
        ] );
      ( "server",
        [
          Alcotest.test_case "fake-clock loop scrapes into _metrics" `Quick
            test_loop_scrapes_into_metrics;
        ] );
      ( "retention",
        Alcotest.test_case "keeps the slowest traces" `Quick
          test_retain_keeps_slowest
        :: props [ prop_retain_top_k ] );
    ]
