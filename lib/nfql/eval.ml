open Relational
open Nfr_core

exception Eval_error = Compile.Error

let error fmt = Compile.error fmt

module String_map = Map.Make (String)

type table_state = {
  nfr : Nfr.t;
  order : Attribute.t list;
}

type db = { mutable tables : table_state String_map.t }

type result =
  | Done of string
  | Rows of Nfr.t

let create () = { tables = String_map.empty }

let find_table db name =
  match String_map.find_opt name db.tables with
  | Some state -> state
  | None -> error "unknown table %s" name

let set_nfr db name state nfr =
  db.tables <- String_map.add name { state with nfr } db.tables

let exec_create db table columns order =
  if String_map.mem table db.tables then error "table %s already exists" table;
  let schema, order = Compile.table_of_columns columns order in
  db.tables <- String_map.add table { nfr = Nfr.empty schema; order } db.tables;
  Done (Printf.sprintf "table %s created" table)

let exec_insert db table rows =
  let state = find_table db table in
  let schema = Nfr.schema state.nfr in
  let nfr, skipped =
    List.fold_left
      (fun (nfr, skipped) row ->
        let tuple = Compile.tuple_of_row schema row in
        if Nfr.member_tuple nfr tuple then (nfr, skipped + 1)
        else (Update.insert ~order:state.order nfr tuple, skipped))
      (state.nfr, 0) rows
  in
  set_nfr db table state nfr;
  Done
    (Printf.sprintf "%d row(s) inserted%s" (List.length rows - skipped)
       (if skipped > 0 then Printf.sprintf ", %d duplicate(s) skipped" skipped
        else ""))

let exec_delete_values db table row =
  let state = find_table db table in
  let tuple = Compile.tuple_of_row (Nfr.schema state.nfr) row in
  match Update.delete ~order:state.order state.nfr tuple with
  | nfr ->
    set_nfr db table state nfr;
    Done "1 row deleted"
  | exception Update.Not_in_relation ->
    error "tuple %s is not in %s" (Format.asprintf "%a" Tuple.pp tuple) table

let delete_all state tuples =
  List.fold_left
    (fun nfr tuple -> Update.delete ~order:state.order nfr tuple)
    state.nfr tuples

let exec_delete_where db table condition =
  let state = find_table db table in
  let victims = Compile.matching_tuples state.nfr condition in
  set_nfr db table state (delete_all state victims);
  Done (Printf.sprintf "%d row(s) deleted" (List.length victims))

(* Delete every victim first, then insert the images: set semantics
   deduplicates images that collide with surviving tuples. *)
let exec_update_set db table assignments condition =
  let state = find_table db table in
  let schema = Nfr.schema state.nfr in
  let resolved =
    List.map
      (fun (name, literal) ->
        let attribute = Compile.attribute_of schema name in
        let value = Compile.value_of_literal literal in
        let expected = Schema.type_of_attribute schema attribute in
        if Value.type_of value <> expected then
          error "column %s expects %s" name (Value.ty_name expected);
        (attribute, value))
      assignments
  in
  let victims = Compile.matching_tuples state.nfr condition in
  let image tuple =
    List.fold_left
      (fun tuple (attribute, value) -> Tuple.set_field schema tuple attribute value)
      tuple resolved
  in
  let nfr =
    List.fold_left
      (fun nfr tuple -> Update.insert ~order:state.order nfr (image tuple))
      (delete_all state victims) victims
  in
  set_nfr db table state nfr;
  Done (Printf.sprintf "%d row(s) updated" (List.length victims))

(* A FROM clause as an NFR plus a canonical order for it. A join is the
   pairwise component intersection of the two NFRs, re-canonicalized so
   the WHERE machinery's canonicity assumption holds. *)
let resolve_source db = function
  | Ast.From_table name ->
    let state = find_table db name in
    (state.nfr, state.order)
  | Ast.From_join (left, right) ->
    let joined =
      match
        Nalgebra.natural_join (find_table db left).nfr (find_table db right).nfr
      with
      | joined -> joined
      | exception Schema.Schema_error msg -> error "%s" msg
    in
    let order = Schema.attributes (Nfr.schema joined) in
    (Nest.canonicalize joined order, order)

let filtered_source db source condition =
  let nfr, order = resolve_source db source in
  (Compile.apply_where (Nfr.schema nfr) order nfr condition, order)

let exec db statement =
  match statement with
  | Ast.Create (table, columns, order) -> exec_create db table columns order
  | Ast.Drop table ->
    ignore (find_table db table);
    db.tables <- String_map.remove table db.tables;
    Done (Printf.sprintf "table %s dropped" table)
  | Ast.Insert (table, rows) -> exec_insert db table rows
  | Ast.Delete_values (table, row) -> exec_delete_values db table row
  | Ast.Delete_where (table, condition) -> exec_delete_where db table condition
  | Ast.Update_set (table, assignments, condition) ->
    exec_update_set db table assignments condition
  | Ast.Select s ->
    let filtered, order = filtered_source db s.Ast.source s.Ast.where in
    Rows (Compile.shape_select filtered ~order s)
  | Ast.Select_count (source, condition) ->
    let filtered, _ = filtered_source db source condition in
    Done
      (Printf.sprintf "%d fact(s) in %d NFR tuple(s)"
         (Nfr.expansion_size filtered) (Nfr.cardinality filtered))
  | Ast.Show table -> Rows (find_table db table).nfr
  | Ast.Create_view _ | Ast.Drop_view _ | Ast.Explain _ | Ast.Explain_analyze _
  | Ast.Analyze _ | Ast.Trace _ | Ast.History _ | Ast.Begin | Ast.Commit
  | Ast.Rollback ->
    error "%s is not supported by the reference evaluator"
      (String.uppercase_ascii (Ast.statement_verb statement))

let exec_string db input = List.map (exec db) (Parser.parse_script input)

let table db name =
  Option.map (fun state -> state.nfr) (String_map.find_opt name db.tables)

let table_order db name =
  Option.map (fun state -> state.order) (String_map.find_opt name db.tables)

let pp_result ppf = function
  | Done msg -> Format.pp_print_string ppf msg
  | Rows nfr -> Nfr.pp_table ppf nfr
