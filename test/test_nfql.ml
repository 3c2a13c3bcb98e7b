(* NFQL: lexer, parser, and end-to-end evaluation semantics. *)

open Relational
open Nfr_core
open Nfql
open Support

(* ------------------------------------------------------------------ *)
(* Lexer                                                               *)
(* ------------------------------------------------------------------ *)

let tokens input = List.map fst (Lexer.tokenize input)

let test_lexer_basics () =
  Alcotest.(check int) "token count" 6
    (List.length (tokens "select * from t;"));
  (match tokens "x <= 10" with
  | [ Token.Ident "x"; Token.Le; Token.Int_lit 10; Token.Eof ] -> ()
  | _ -> Alcotest.fail "unexpected tokens for comparison");
  (match tokens "'it''s'" with
  | [ Token.String_lit "it's"; Token.Eof ] -> ()
  | _ -> Alcotest.fail "quote escaping failed");
  (match tokens "a -- comment\nb" with
  | [ Token.Ident "a"; Token.Ident "b"; Token.Eof ] -> ()
  | _ -> Alcotest.fail "comment not skipped");
  (match tokens "1.5 2" with
  | [ Token.Float_lit f; Token.Int_lit 2; Token.Eof ] when f = 1.5 -> ()
  | _ -> Alcotest.fail "number lexing failed")

let test_lexer_errors () =
  Alcotest.(check bool) "unterminated string" true
    (match Lexer.tokenize "'abc" with
    | exception Lexer.Lex_error _ -> true
    | _ -> false);
  Alcotest.(check bool) "illegal char" true
    (match Lexer.tokenize "a ! b" with
    | exception Lexer.Lex_error _ -> true
    | _ -> false)

(* ------------------------------------------------------------------ *)
(* Parser                                                              *)
(* ------------------------------------------------------------------ *)

let test_parse_select () =
  match Parser.parse_statement
          "SELECT Student, Course FROM sc WHERE Course CONTAINS 'c1' AND Student = 's1' NEST Course UNNEST Club"
  with
  | Ast.Select s ->
    Alcotest.(check bool) "columns" true (s.Ast.columns = Some [ "Student"; "Course" ]);
    Alcotest.(check bool) "table" true (s.Ast.source = Ast.From_table "sc");
    Alcotest.(check bool) "where present" true (s.Ast.where <> None);
    Alcotest.(check (list string)) "nests" [ "Course" ] s.Ast.nests;
    Alcotest.(check (list string)) "unnests" [ "Club" ] s.Ast.unnests
  | _ -> Alcotest.fail "expected SELECT"

let test_parse_condition_precedence () =
  match Parser.parse_statement "select * from t where a = 1 or b = 2 and not c = 3" with
  | Ast.Select { where = Some (Ast.Or (_, Ast.And (_, Ast.Not _))); _ } -> ()
  | Ast.Select { where = Some other; _ } ->
    Alcotest.fail (Format.asprintf "precedence wrong: %a" Ast.pp_condition other)
  | _ -> Alcotest.fail "expected SELECT"

let test_parse_insert_multi_row () =
  match Parser.parse_statement "insert into t values ('x', 1), ('y', 2)" with
  | Ast.Insert ("t", [ [ Ast.L_string "x"; Ast.L_int 1 ]; [ Ast.L_string "y"; Ast.L_int 2 ] ]) -> ()
  | _ -> Alcotest.fail "multi-row insert"

let test_parse_create_with_order () =
  match Parser.parse_statement "create table t (a string, b int) order b, a" with
  | Ast.Create ("t", [ ("a", "string"); ("b", "int") ], Some [ "b"; "a" ]) -> ()
  | _ -> Alcotest.fail "create with order"

let test_parse_errors () =
  let fails input =
    match Parser.parse_statement input with
    | exception Parser.Parse_error _ -> true
    | _ -> false
  in
  Alcotest.(check bool) "missing FROM" true (fails "select *");
  Alcotest.(check bool) "keyword as table" true (fails "select * from select");
  Alcotest.(check bool) "trailing garbage" true (fails "show t t2");
  Alcotest.(check bool) "bad delete" true (fails "delete from t")

let test_parse_script () =
  let script = "create table t (a string); insert into t values ('x'); show t;" in
  Alcotest.(check int) "three statements" 3 (List.length (Parser.parse_script script))

(* ------------------------------------------------------------------ *)
(* Evaluation                                                          *)
(* ------------------------------------------------------------------ *)

let setup () =
  let db = Eval.create () in
  let results =
    Eval.exec_string db
      "create table sc (Student string, Course string, Semester string);\n\
       insert into sc values ('s1','c1','t1'), ('s2','c1','t1'), ('s3','c1','t1');\n\
       insert into sc values ('s1','c2','t1'), ('s2','c2','t1'), ('s3','c2','t1');\n\
       insert into sc values ('s1','c3','t1'), ('s3','c3','t1'), ('s2','c3','t2');"
  in
  Alcotest.(check int) "four results" 4 (List.length results);
  db

let test_eval_insert_builds_canonical () =
  let db = setup () in
  match Eval.table db "sc", Eval.table_order db "sc" with
  | Some nfr, Some order ->
    Alcotest.(check bool) "canonical" true (Nest.is_canonical nfr order);
    Alcotest.(check int) "nine flat rows" 9
      (Relation.cardinality (Nfr.flatten nfr));
    (* Fig. 1's R2 shape: 3 NFR tuples under order S,C,T. *)
    Alcotest.(check int) "three NFR tuples" 3 (Nfr.cardinality nfr)
  | _ -> Alcotest.fail "table missing"

let test_eval_select_where () =
  let db = setup () in
  match Eval.exec_string db "select * from sc where Student = 's1'" with
  | [ Eval.Rows rows ] ->
    Alcotest.(check int) "three enrollments" 3 (Relation.cardinality (Nfr.flatten rows))
  | _ -> Alcotest.fail "expected rows"

let test_eval_select_contains () =
  let db = setup () in
  match Eval.exec_string db "select * from sc where Student CONTAINS 's1'" with
  | [ Eval.Rows rows ] ->
    (* Tuple-level: both t1 group tuples contain s1. *)
    Alcotest.(check int) "two NFR tuples" 2 (Nfr.cardinality rows)
  | _ -> Alcotest.fail "expected rows"

let test_eval_projection_and_nest () =
  let db = setup () in
  (match
     Eval.exec_string db
       "select Student, Course from sc where Semester = 't1'"
   with
  | [ Eval.Rows rows ] ->
    Alcotest.(check (list string)) "schema" [ "Student"; "Course" ]
      (List.map Attribute.name (Schema.attributes (Nfr.schema rows)));
    (* t1 pairs: c1,c2 taken by all three students; c3 by s1, s3. *)
    Alcotest.(check int) "two groups" 2 (Nfr.cardinality rows)
  | _ -> Alcotest.fail "expected rows");
  match Eval.exec_string db "select Student, Course from sc UNNEST Course" with
  | [ Eval.Rows rows ] ->
    Alcotest.(check bool) "course components singleton" true
      (Nfr.for_all
         (fun nt ->
           Vset.is_singleton
             (Ntuple.field (Nfr.schema rows) nt (Attribute.make "Course")))
         rows)
  | _ -> Alcotest.fail "expected rows"

let test_eval_delete_values () =
  let db = setup () in
  (match Eval.exec_string db "delete from sc values ('s1','c1','t1')" with
  | [ Eval.Done _ ] -> ()
  | _ -> Alcotest.fail "expected done");
  (match Eval.table db "sc" with
  | Some nfr ->
    Alcotest.(check int) "eight rows left" 8 (Relation.cardinality (Nfr.flatten nfr));
    Alcotest.(check bool) "still canonical" true
      (Nest.is_canonical nfr (Option.get (Eval.table_order db "sc")))
  | None -> Alcotest.fail "table missing");
  Alcotest.(check bool) "deleting again fails" true
    (match Eval.exec_string db "delete from sc values ('s1','c1','t1')" with
    | exception Eval.Eval_error _ -> true
    | _ -> false)

let test_eval_delete_where () =
  let db = setup () in
  (match Eval.exec_string db "delete from sc where Student = 's2'" with
  | [ Eval.Done msg ] ->
    Alcotest.(check string) "three rows deleted" "3 row(s) deleted" msg
  | _ -> Alcotest.fail "expected done");
  match Eval.table db "sc" with
  | Some nfr ->
    Alcotest.(check int) "six rows left" 6 (Relation.cardinality (Nfr.flatten nfr))
  | None -> Alcotest.fail "table missing"

let test_eval_errors () =
  let db = setup () in
  let fails input =
    match Eval.exec_string db input with
    | exception Eval.Eval_error _ -> true
    | _ -> false
  in
  Alcotest.(check bool) "unknown table" true (fails "show nope");
  Alcotest.(check bool) "unknown column" true
    (fails "select Zzz from sc");
  Alcotest.(check bool) "type mismatch" true
    (fails "insert into sc values (1, 'c1', 't1')");
  Alcotest.(check bool) "arity mismatch" true
    (fails "insert into sc values ('s1','c1')");
  Alcotest.(check bool) "duplicate create" true
    (fails "create table sc (X string)");
  Alcotest.(check bool) "CONTAINS under OR" true
    (fails "select * from sc where Student CONTAINS 's1' or Student = 's2'");
  (* The reference evaluator runs the paper's operations only. *)
  List.iter
    (fun statement ->
      Alcotest.(check bool) ("outside the oracle subset: " ^ statement) true
        (fails statement))
    [
      "begin"; "commit"; "explain select * from sc"; "analyze sc";
      "trace select * from sc"; "history 'queries.total'";
      "create view v as nest sc by Course";
    ]

let test_eval_typed_columns () =
  let db = Eval.create () in
  ignore
    (Eval.exec_string db
       "create table m (name string, score int); insert into m values ('x', 10), ('y', 3)");
  match Eval.exec_string db "select name from m where score >= 5" with
  | [ Eval.Rows rows ] ->
    Alcotest.(check int) "one match" 1 (Relation.cardinality (Nfr.flatten rows))
  | _ -> Alcotest.fail "expected rows"

let test_eval_drop () =
  let db = setup () in
  ignore (Eval.exec_string db "drop table sc");
  Alcotest.(check bool) "gone" true (Eval.table db "sc" = None)

let test_eval_update_set () =
  let db = setup () in
  (match
     Eval.exec_string db
       "update sc set Course = 'c9' where Student = 's2' and Course = 'c3'"
   with
  | [ Eval.Done msg ] -> Alcotest.(check string) "one row" "1 row(s) updated" msg
  | _ -> Alcotest.fail "expected done");
  (match Eval.exec_string db "select count from sc where Course = 'c9'" with
  | [ Eval.Done msg ] ->
    Alcotest.(check string) "moved" "1 fact(s) in 1 NFR tuple(s)" msg
  | _ -> Alcotest.fail "expected done");
  (* Total fact count unchanged (the image did not collide). *)
  (match Eval.exec_string db "select count from sc" with
  | [ Eval.Done msg ] ->
    Alcotest.(check bool) "still nine facts" true
      (String.length msg > 0 && String.sub msg 0 1 = "9")
  | _ -> Alcotest.fail "expected done");
  (* Updating onto an existing tuple collapses by set semantics. *)
  ignore
    (Eval.exec_string db
       "update sc set Semester = 't1' where Student = 's2' and Course = 'c9'");
  match Eval.exec_string db "select count from sc" with
  | [ Eval.Done _ ] -> ()
  | _ -> Alcotest.fail "expected done"

let test_eval_count () =
  let db = setup () in
  match Eval.exec_string db "select count from sc" with
  | [ Eval.Done msg ] ->
    Alcotest.(check string) "counts" "9 fact(s) in 3 NFR tuple(s)" msg
  | _ -> Alcotest.fail "expected done"

let test_eval_join () =
  let db = setup () in
  ignore
    (Eval.exec_string db
       "create table prereq (Course string, Needs string);\n\
        insert into prereq values ('c2','c1'),('c3','c1'),('c3','c2');");
  match
    Eval.exec_string db
      "select Student, Needs from sc join prereq where Student = 's1'"
  with
  | [ Eval.Rows rows ] ->
    let flat = Nfr.flatten rows in
    (* s1 takes c1,c2,c3 -> joined needs: c2->c1, c3->c1, c3->c2,
       projected to (s1, needs): {c1, c2}. *)
    Alcotest.(check int) "two needed courses" 2 (Relation.cardinality flat)
  | _ -> Alcotest.fail "expected rows"

(* EXPLAIN is the executor's: besides the access path it spells out how
   each conjunct is evaluated under the paper's semantics. *)
let test_eval_explain () =
  let db = Physical.create () in
  ignore
    (Physical.exec_string db
       "create table sc (Student string, Course string, Semester string);\n\
        insert into sc values ('s1','c1','t1'), ('s2','c1','t1'), ('s1','c2','t1')");
  match
    Physical.exec_string db
      "explain select Student from sc where Course CONTAINS 'c1' and Student = 's1'"
  with
  | [ (Eval.Done plan, _) ] ->
    let has needle =
      let rec search i =
        i + String.length needle <= String.length plan
        && (String.sub plan i (String.length needle) = needle || search (i + 1))
      in
      search 0
    in
    Alcotest.(check bool) "names the access path" true
      (has "access: inverted-index probe Course ∋ c1");
    Alcotest.(check bool) "mentions contains-filter" true (has "contains-filter");
    Alcotest.(check bool) "componentwise select" true (has "componentwise");
    Alcotest.(check bool) "mentions project" true (has "project Student")
  | _ -> Alcotest.fail "expected plan"

let test_parse_update_and_count () =
  (match Parser.parse_statement "update t set a = 'x', b = 2 where c = 1" with
  | Ast.Update_set ("t", [ ("a", Ast.L_string "x"); ("b", Ast.L_int 2) ], _) -> ()
  | _ -> Alcotest.fail "update parse");
  (match Parser.parse_statement "select count from t" with
  | Ast.Select_count (Ast.From_table "t", None) -> ()
  | _ -> Alcotest.fail "count parse");
  (match Parser.parse_statement "select * from a join b where x = 1" with
  | Ast.Select { source = Ast.From_join ("a", "b"); _ } -> ()
  | _ -> Alcotest.fail "join parse");
  match Parser.parse_statement "explain select * from t" with
  | Ast.Explain _ -> ()
  | _ -> Alcotest.fail "explain parse"

let nfr_of_rows rows =
  Support.nfr (Schema.strings [ "Student"; "Course"; "Semester" ]) rows

(* A deterministic end-to-end scenario mirroring the paper's Sec. 2
   narrative, driven entirely through the language. *)
let test_eval_paper_scenario () =
  let db = Eval.create () in
  ignore
    (Eval.exec_string db
       "create table sc (Student string, Course string, Semester string) order Student, Course, Semester");
  ignore
    (Eval.exec_string db
       "insert into sc values ('s1','c1','t1'),('s2','c1','t1'),('s3','c1','t1'),\
        ('s1','c2','t1'),('s2','c2','t1'),('s3','c2','t1'),\
        ('s1','c3','t1'),('s3','c3','t1'),('s2','c3','t2')");
  (* The student s1 stops taking course c1. *)
  ignore (Eval.exec_string db "delete from sc where Student = 's1' and Course = 'c1'");
  match Eval.table db "sc" with
  | Some nfr ->
    let expected =
      nfr_of_rows
        [
          [ [ "s2"; "s3" ]; [ "c1" ]; [ "t1" ] ];
          [ [ "s1"; "s2"; "s3" ]; [ "c2" ]; [ "t1" ] ];
          [ [ "s1"; "s3" ]; [ "c3" ]; [ "t1" ] ];
          [ [ "s2" ]; [ "c3" ]; [ "t2" ] ];
        ]
    in
    Alcotest.check nfr_testable "paper's post-delete information" expected nfr
  | None -> Alcotest.fail "table missing"

(* Fuzz: the parser must reject garbage with its own exceptions, never
   crash with anything else, and never loop. *)
let test_parser_fuzz () =
  let rng = Workload.Prng.create 99 in
  let fragments =
    [|
      "select"; "from"; "where"; "insert"; "into"; "values"; "delete";
      "update"; "set"; "nest"; "unnest"; "contains"; "and"; "or"; "not";
      "count"; "join"; "create"; "table"; "order"; "("; ")"; ","; ";"; "*";
      "="; "<>"; "<"; "<="; ">"; ">="; "'x'"; "'it''s'"; "42"; "1.5"; "tbl";
      "colA"; "true"; "false"; "--c\n"; "'unterminated"; "!";
    |]
  in
  for _ = 1 to 3000 do
    let n = 1 + Workload.Prng.int rng 12 in
    let source =
      String.concat " "
        (List.init n (fun _ -> Workload.Prng.pick rng fragments))
    in
    match Parser.parse_statement source with
    | _ -> ()
    | exception Parser.Parse_error _ -> ()
    | exception Lexer.Lex_error _ -> ()
    | exception other ->
      Alcotest.failf "parser crashed on %S with %s" source
        (Printexc.to_string other)
  done

let () =
  Alcotest.run "nfql"
    [
      ( "fuzz",
        [ Alcotest.test_case "3000 random statements" `Quick test_parser_fuzz ]
      );
      ( "lexer",
        [
          Alcotest.test_case "basics" `Quick test_lexer_basics;
          Alcotest.test_case "errors" `Quick test_lexer_errors;
        ] );
      ( "parser",
        [
          Alcotest.test_case "select" `Quick test_parse_select;
          Alcotest.test_case "condition precedence" `Quick
            test_parse_condition_precedence;
          Alcotest.test_case "multi-row insert" `Quick test_parse_insert_multi_row;
          Alcotest.test_case "create with order" `Quick
            test_parse_create_with_order;
          Alcotest.test_case "errors" `Quick test_parse_errors;
          Alcotest.test_case "script" `Quick test_parse_script;
          Alcotest.test_case "update/count/join/explain" `Quick
            test_parse_update_and_count;
        ] );
      ( "eval",
        [
          Alcotest.test_case "insert builds canonical" `Quick
            test_eval_insert_builds_canonical;
          Alcotest.test_case "select where" `Quick test_eval_select_where;
          Alcotest.test_case "select contains" `Quick test_eval_select_contains;
          Alcotest.test_case "projection and nest" `Quick
            test_eval_projection_and_nest;
          Alcotest.test_case "delete values" `Quick test_eval_delete_values;
          Alcotest.test_case "delete where" `Quick test_eval_delete_where;
          Alcotest.test_case "errors" `Quick test_eval_errors;
          Alcotest.test_case "typed columns" `Quick test_eval_typed_columns;
          Alcotest.test_case "drop" `Quick test_eval_drop;
          Alcotest.test_case "paper scenario end-to-end" `Quick
            test_eval_paper_scenario;
          Alcotest.test_case "update set" `Quick test_eval_update_set;
          Alcotest.test_case "count" `Quick test_eval_count;
          Alcotest.test_case "join" `Quick test_eval_join;
          Alcotest.test_case "explain" `Quick test_eval_explain;
        ] );
    ]
