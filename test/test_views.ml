(* lib/views acceptance: parsing, read/write semantics on the executor,
   incremental-equals-renest over random DML traces, view-WAL
   durability, and the live CDC stream against a forked server. *)

open Relational
open Nfr_core
open Support

(* ------------------------------------------------------------------ *)
(* Parsing                                                             *)
(* ------------------------------------------------------------------ *)

let test_parse () =
  (match Nfql.Parser.parse_statement "create view v as nest t by a, b" with
  | Nfql.Ast.Create_view ("v", "t", [ "a"; "b" ]) -> ()
  | other ->
    Alcotest.failf "unexpected parse: %a" Nfql.Ast.pp_statement other);
  (match Nfql.Parser.parse_statement "DROP VIEW v" with
  | Nfql.Ast.Drop_view "v" -> ()
  | other ->
    Alcotest.failf "unexpected parse: %a" Nfql.Ast.pp_statement other);
  (* pp round-trips through the parser *)
  List.iter
    (fun source ->
      let parsed = Nfql.Parser.parse_statement source in
      let printed = Format.asprintf "%a" Nfql.Ast.pp_statement parsed in
      Alcotest.(check bool)
        (Printf.sprintf "pp of %S reparses" source)
        true
        (Nfql.Parser.parse_statement printed = parsed))
    [ "create view v as nest t by a"; "drop view v" ];
  List.iter
    (fun source ->
      match Nfql.Parser.parse_statement source with
      | exception Nfql.Parser.Parse_error _ -> ()
      | parsed ->
        Alcotest.failf "%S parsed unexpectedly as %a" source
          Nfql.Ast.pp_statement parsed)
    [
      "create view v as nest t";
      "create view as nest t by a";
      "create view v as unnest t by a";
      "drop view";
    ]

(* ------------------------------------------------------------------ *)
(* The executor and its view catalog                                   *)
(* ------------------------------------------------------------------ *)

type backend = {
  be_exec : string -> Nfql.Eval.result list;
  be_base : string -> Nfr.t;  (* committed state of a base table *)
  be_catalog : unit -> Views.Catalog.t;
}

let physical_backend () =
  let db = Nfql.Physical.create () in
  {
    be_exec = (fun src -> List.map fst (Nfql.Physical.exec_string db src));
    be_base =
      (fun name ->
        match Nfql.Physical.table db name with
        | Some table -> Storage.Table.snapshot table
        | None -> Alcotest.failf "no table %s" name);
    be_catalog = (fun () -> Nfql.Physical.catalog db);
  }

let expect_error be fragment source =
  match be.be_exec source with
  | exception Nfql.Eval.Eval_error msg ->
    let contains hay needle =
      let nh = String.length hay and nn = String.length needle in
      let rec at i = i + nn <= nh && (String.sub hay i nn = needle || at (i + 1)) in
      at 0
    in
    Alcotest.(check bool)
      (Printf.sprintf "%S fails mentioning %S (got %S)" source fragment msg)
      true (contains msg fragment)
  | results ->
    Alcotest.failf "%S succeeded with %d result(s)" source (List.length results)

let rows_of be source =
  match be.be_exec source with
  | [ Nfql.Eval.Rows nfr ] -> nfr
  | _ -> Alcotest.failf "%S did not return one Rows" source

let renest_of be table view =
  Nest.canonical
    (Nfr.flatten (be.be_base table))
    (Views.Catalog.order (be.be_catalog ()) view)

let check_view_converged be table view =
  Alcotest.check nfr_testable
    (Printf.sprintf "view %s = canonical renest of %s" view table)
    (renest_of be table view)
    (Views.Catalog.snapshot (be.be_catalog ()) view)

let seed_sql =
  "create table t (g string, x string);\n\
   insert into t values ('g1','x1'), ('g1','x2'), ('g2','x1'), ('g2','x3')"

let test_basic () =
  let be = physical_backend () in
  ignore (be.be_exec seed_sql);
  ignore (be.be_exec "create view v as nest t by x");
  check_view_converged be "t" "v";
  (* Reading the view by name goes through the materialized NFR. *)
  let shown = rows_of be "show v" in
  Alcotest.check nfr_testable "SHOW v" (renest_of be "t" "v") shown;
  let selected = rows_of be "select * from v" in
  Alcotest.(check bool) "SELECT * FROM v equivalent to renest" true
    (Nfr.equivalent selected (renest_of be "t" "v"));
  let filtered = rows_of be "select * from v where g = 'g1'" in
  Alcotest.(check bool) "WHERE over the view restricts it" true
    (Nfr.cardinality filtered < Nfr.cardinality selected
    || Nfr.cardinality selected <= 1);
  (* Committed DML keeps the view maintained. *)
  ignore (be.be_exec "insert into t values ('g3','x2')");
  ignore (be.be_exec "delete from t values ('g2','x1')");
  ignore (be.be_exec "update t set g = 'g9' where g = 'g1'");
  check_view_converged be "t" "v";
  (* In-transaction writes reach the view only at COMMIT. *)
  ignore (be.be_exec "begin");
  ignore (be.be_exec "insert into t values ('g4','x4')");
  let mid = Views.Catalog.snapshot (be.be_catalog ()) "v" in
  ignore (be.be_exec "commit");
  Alcotest.(check bool) "uncommitted insert was invisible to the view" false
    (Nfr.equal mid (Views.Catalog.snapshot (be.be_catalog ()) "v"));
  check_view_converged be "t" "v";
  (* ...and a rollback never touches it. *)
  ignore (be.be_exec "begin");
  ignore (be.be_exec "insert into t values ('g5','x5')");
  ignore (be.be_exec "rollback");
  check_view_converged be "t" "v";
  (* Views are read-only tables with typed errors, not failwiths. *)
  expect_error be "views are read-only" "insert into v values ('a','b')";
  expect_error be "views are read-only" "delete from v where g = 'g1'";
  expect_error be "views are read-only" "update v set g = 'z' where g = 'z'";
  expect_error be "use DROP VIEW" "drop table v";
  expect_error be "depends on it" "drop table t";
  expect_error be "cannot appear in JOIN" "select * from v join t";
  expect_error be "statistics are collected on base tables" "analyze v";
  expect_error be "already exists" "create table v (a string)";
  expect_error be "base tables" "create view w as nest v by g";
  expect_error be "unknown" "create view w as nest missing by g";
  expect_error be "BY clause" "create view w as nest t by nope";
  ignore (be.be_exec "begin");
  expect_error be "inside a transaction" "create view w as nest t by g";
  expect_error be "inside a transaction" "drop view v";
  ignore (be.be_exec "rollback");
  (* DROP VIEW releases the dependency. *)
  ignore (be.be_exec "drop view v");
  expect_error be "unknown" "show v";
  ignore (be.be_exec "drop table t")

(* A commit whose write set spans several tables is atomic per table
   only (see docs/STORAGE.md); the exposure is counted. *)
let test_multi_table_commit_counter () =
  let be = physical_backend () in
  ignore (be.be_exec "create table t1 (a string); create table t2 (a string)");
  let counted () = Obs.Registry.get Obs.Registry.global "txn.multi_table_commit" in
  let before = counted () in
  ignore
    (be.be_exec
       "begin; insert into t1 values ('x'); insert into t2 values ('y'); \
        commit");
  Alcotest.(check int) "two-table commit ticks the counter" (before + 1)
    (counted ());
  ignore (be.be_exec "begin; insert into t1 values ('z'); commit");
  Alcotest.(check int) "single-table commit does not" (before + 1) (counted ())

(* ------------------------------------------------------------------ *)
(* Property: incremental maintenance == full renest, random traces     *)
(* ------------------------------------------------------------------ *)

let test_random_traces () =
  List.iter
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let be = physical_backend () in
      ignore
        (be.be_exec
           "create table t (g string, x string, y string);\n\
            create view v as nest t by x, y");
      let cell prefix n = Printf.sprintf "'%s%d'" prefix n in
      let rand_row () =
        Printf.sprintf "(%s, %s, %s)"
          (cell "g" (Random.State.int rng 4))
          (cell "x" (Random.State.int rng 6))
          (cell "y" (Random.State.int rng 3))
      in
      let exec_tolerant source =
        (* deleting an absent tuple is a (typed) error; the trace
           doesn't care *)
        try ignore (be.be_exec source)
        with Nfql.Eval.Eval_error _ -> ()
      in
      let in_txn = ref false in
      for _ = 1 to 120 do
        (match Random.State.int rng 10 with
        | 0 | 1 | 2 | 3 ->
          exec_tolerant ("insert into t values " ^ rand_row ())
        | 4 | 5 -> exec_tolerant ("delete from t values " ^ rand_row ())
        | 6 ->
          exec_tolerant
            (Printf.sprintf "update t set y = %s where g = %s"
               (cell "y" (Random.State.int rng 3))
               (cell "g" (Random.State.int rng 4)))
        | 7 ->
          if not !in_txn then begin
            ignore (be.be_exec "begin");
            in_txn := true
          end
        | 8 ->
          if !in_txn then begin
            ignore (be.be_exec "commit");
            in_txn := false
          end
        | _ ->
          if !in_txn then begin
            ignore (be.be_exec "rollback");
            in_txn := false
          end);
        (* Between transactions every statement is a commit point;
           the view must track the base exactly there. *)
        if not !in_txn then check_view_converged be "t" "v"
      done;
      if !in_txn then ignore (be.be_exec "commit");
      check_view_converged be "t" "v")
    [ 7; 19; 101 ]

(* ------------------------------------------------------------------ *)
(* Definition durability: the views WAL                                *)
(* ------------------------------------------------------------------ *)

let with_views_wal f =
  let path = Filename.temp_file "nf2-views" ".wal" in
  Sys.remove path;
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let test_wal_durability () =
  with_views_wal @@ fun path ->
  let base = nfr schema2 [ [ [ "a1" ]; [ "b1"; "b2" ] ] ] in
  let catalog = Views.Catalog.create ~wal_path:path () in
  Views.Catalog.define catalog ~view:"kept" ~base:"t" ~by:[ "B" ] base;
  Views.Catalog.define catalog ~view:"dropped" ~base:"t" ~by:[ "A" ] base;
  Views.Catalog.define catalog ~view:"orphan" ~base:"gone" ~by:[ "B" ] base;
  Views.Catalog.drop catalog "dropped";
  Views.Catalog.close catalog;
  let resolve = function "t" -> Some base | _ -> None in
  let reloaded = Views.Catalog.load ~wal_path:path ~resolve () in
  Alcotest.(check bool) "kept survives reload" true
    (Views.Catalog.mem reloaded "kept");
  Alcotest.(check bool) "dropped stays dropped" false
    (Views.Catalog.mem reloaded "dropped");
  Alcotest.(check bool) "orphan (base gone) is dropped" false
    (Views.Catalog.mem reloaded "orphan");
  Alcotest.check nfr_testable "kept rematerialized from its base"
    (Nest.canonical (Nfr.flatten base)
       (Views.Catalog.order reloaded "kept"))
    (Views.Catalog.snapshot reloaded "kept");
  Views.Catalog.close reloaded;
  (* A torn tail — half an appended frame — must not lose the earlier
     definitions, and must never raise. *)
  let size = (Unix.stat path).Unix.st_size in
  let fd = Unix.openfile path [ Unix.O_WRONLY ] 0o644 in
  ignore (Unix.lseek fd size Unix.SEEK_SET);
  let garbage = "\xA7\x20garbage" in
  ignore (Unix.write_substring fd garbage 0 (String.length garbage));
  Unix.close fd;
  let torn = Views.Catalog.load ~wal_path:path ~resolve () in
  Alcotest.(check bool) "kept survives a torn tail" true
    (Views.Catalog.mem torn "kept");
  Views.Catalog.close torn

(* A CREATE VIEW whose own log append tears (short write + crash)
   leaves the definition invisible after recovery: durable before
   visible, in both directions. *)
let test_torn_define () =
  with_views_wal @@ fun path ->
  let base = nfr schema2 [ [ [ "a1" ]; [ "b1" ] ] ] in
  let catalog = Views.Catalog.create ~wal_path:path () in
  Views.Catalog.define catalog ~view:"v0" ~base:"t" ~by:[ "A" ] base;
  Storage.Failpoint.arm "wal.append.frame" (Storage.Failpoint.Short_write 5);
  let crashed =
    try
      Views.Catalog.define catalog ~view:"v1" ~base:"t" ~by:[ "B" ] base;
      false
    with Storage.Failpoint.Crashed _ -> true
  in
  Storage.Failpoint.reset ();
  Alcotest.(check bool) "the define tore" true crashed;
  (try Views.Catalog.close catalog with _ -> ());
  let reloaded =
    Views.Catalog.load ~wal_path:path
      ~resolve:(function "t" -> Some base | _ -> None)
      ()
  in
  Alcotest.(check bool) "v0 survived" true (Views.Catalog.mem reloaded "v0");
  Alcotest.(check bool) "the torn v1 is absent" false
    (Views.Catalog.mem reloaded "v1");
  Views.Catalog.close reloaded

(* ------------------------------------------------------------------ *)
(* CDC: live subscriptions against a forked server                     *)
(* ------------------------------------------------------------------ *)

let listen_socket () =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.SO_REUSEADDR true;
  Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  Unix.listen fd 128;
  let port =
    match Unix.getsockname fd with
    | Unix.ADDR_INET (_, port) -> port
    | Unix.ADDR_UNIX _ -> assert false
  in
  (fd, port)

let fork_server ~listen_fd =
  match Unix.fork () with
  | 0 ->
    let exit_code =
      try
        let db = Nfql.Physical.create () in
        Nfql.Physical.add_table db "t"
          (Storage.Table.load
             ~order:(Schema.attributes schema2)
             (Relation.empty schema2));
        let loop = Server.Loop.create ~db ~listen:(`Fd listen_fd) () in
        Server.Loop.run loop;
        0
      with _ -> 1
    in
    Unix._exit exit_code
  | pid ->
    Unix.close listen_fd;
    pid

let counter_of_dump dump name =
  let prefix = name ^ " " in
  String.split_on_char '\n' dump
  |> List.find_map (fun line ->
         if
           String.length line > String.length prefix
           && String.sub line 0 (String.length prefix) = prefix
         then
           float_of_string_opt
             (String.sub line (String.length prefix)
                (String.length line - String.length prefix))
         else None)
  |> Option.value ~default:(-1.)

let delta_key d =
  let render = Format.asprintf "%a" Ntuple.pp_anon in
  ( d.Server.Protocol.d_view,
    d.Server.Protocol.d_seq,
    List.map render d.Server.Protocol.d_added,
    List.map render d.Server.Protocol.d_removed )

let test_cdc_stream () =
  let listen_fd, port = listen_socket () in
  let server_pid = fork_server ~listen_fd in
  let writer = Server.Client.connect ~port () in
  Server.Client.ping writer;
  ignore (Server.Client.query_exn writer "create view v as nest t by B");
  let sub1 = Server.Client.connect ~port () in
  let sub2 = Server.Client.connect ~port () in
  let victim = Server.Client.connect ~port () in
  ignore (Server.Client.subscribe sub1 "v");
  ignore (Server.Client.subscribe sub2 "v");
  ignore (Server.Client.subscribe victim "v");
  (match Server.Client.subscribe sub1 "nope" with
  | exception Server.Client.Error _ -> ()
  | ack -> Alcotest.failf "subscribing to a non-view succeeded: %s" ack);
  (* Commit stream: autocommit inserts, a batched transaction, a
     delete — each commit that changes the view is one delta. *)
  let commits =
    [
      "insert into t values ('a1','b1')";
      "insert into t values ('a1','b2')";
      "begin; insert into t values ('a2','b1'); insert into t values \
       ('a2','b9'); commit";
      "delete from t values ('a1','b2')";
    ]
  in
  let expected_deltas = List.length commits in
  (* Kill the victim mid-stream: after the first two commits it stops
     reading and dies without unsubscribing. *)
  List.iteri
    (fun i source ->
      if i = 2 then Server.Client.close victim;
      ignore (Server.Client.query_exn writer source))
    commits;
  let read_stream client =
    List.init expected_deltas (fun _ ->
        delta_key (Server.Client.next_delta client))
  in
  let stream1 = read_stream sub1 in
  let stream2 = read_stream sub2 in
  Alcotest.(check bool)
    "both subscribers saw the identical commit-ordered stream" true
    (stream1 = stream2);
  Alcotest.(check (list int))
    "delta sequence is dense and commit-ordered"
    (List.init expected_deltas (fun i -> i + 1))
    (List.map (fun (_, seq, _, _) -> seq) stream1);
  (* Convergence: applying nothing — just read the view — matches the
     final base state. *)
  let view_rows =
    match (Server.Client.query_exn writer "show v").Server.Client.results with
    | [ { Server.Client.reply = `Rows (schema, ntuples); _ } ] ->
      Nfr.of_ntuples schema ntuples
    | _ -> Alcotest.fail "unexpected SHOW response shape"
  in
  Alcotest.(check int) "view has both groups" 2 (Nfr.cardinality view_rows);
  (* The dead victim must be reaped off the subscriber gauge; the two
     live streams still count. *)
  let deadline = Unix.gettimeofday () +. 5. in
  let rec await_gauge () =
    let dump = Server.Client.metrics writer in
    if counter_of_dump dump "cdc.subscribers" = 2. then dump
    else if Unix.gettimeofday () > deadline then dump
    else begin
      ignore (Unix.select [] [] [] 0.05);
      (* nudge the loop so it notices the dead socket *)
      ignore (Server.Client.query_exn writer "insert into t values ('zz','zz')");
      ignore (Server.Client.next_delta sub1);
      ignore (Server.Client.next_delta sub2);
      await_gauge ()
    end
  in
  let dump = await_gauge () in
  Alcotest.(check (float 0.)) "victim auto-unsubscribed" 2.
    (counter_of_dump dump "cdc.subscribers");
  Alcotest.(check bool) "three subscriptions were accepted" true
    (counter_of_dump dump "cdc.subscribe_total" = 3.);
  Alcotest.(check bool) "deltas were pushed" true
    (counter_of_dump dump "cdc.deltas_out" >= float_of_int (2 * expected_deltas));
  Server.Client.shutdown writer;
  List.iter Server.Client.close [ writer; sub1; sub2 ];
  let _, status = Unix.waitpid [] server_pid in
  match status with
  | Unix.WEXITED 0 -> ()
  | Unix.WEXITED n -> Alcotest.failf "server exited %d" n
  | Unix.WSIGNALED n -> Alcotest.failf "server killed by signal %d" n
  | Unix.WSTOPPED n -> Alcotest.failf "server stopped by signal %d" n

let () =
  Alcotest.run "views"
    [
      ("parse", [ Alcotest.test_case "CREATE/DROP VIEW grammar" `Quick test_parse ]);
      ( "semantics",
        [
          Alcotest.test_case "create, read, maintain, guard, drop" `Quick
            test_basic;
          Alcotest.test_case "incremental == renest on random traces" `Quick
            test_random_traces;
          Alcotest.test_case "multi-table commit exposure is counted" `Quick
            test_multi_table_commit_counter;
        ] );
      ( "durability",
        [
          Alcotest.test_case "definitions survive reload + torn tail" `Quick
            test_wal_durability;
          Alcotest.test_case "torn CREATE VIEW stays invisible" `Quick
            test_torn_define;
        ] );
      ( "cdc",
        [
          Alcotest.test_case "two subscribers, one victim, one stream" `Slow
            test_cdc_stream;
        ] );
    ]
