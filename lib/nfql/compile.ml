open Relational
open Nfr_core

exception Error of string

let error fmt = Format.kasprintf (fun msg -> raise (Error msg)) fmt

let value_of_literal = function
  | Ast.L_int i -> Value.of_int i
  | Ast.L_float f -> Value.of_float f
  | Ast.L_string s -> Value.of_string s
  | Ast.L_bool b -> Value.of_bool b

let attribute_of schema name =
  let attribute = Attribute.make name in
  if Schema.mem schema attribute then attribute
  else error "unknown column %s" name

let tuple_of_row schema row =
  if List.length row <> Schema.degree schema then
    error "expected %d values, got %d" (Schema.degree schema) (List.length row);
  match Tuple.make schema (List.map value_of_literal row) with
  | tuple -> tuple
  | exception Schema.Schema_error msg -> error "%s" msg

let table_of_columns columns order =
  let type_of_name name =
    match Value.ty_of_name (String.lowercase_ascii name) with
    | Some ty -> ty
    | None -> error "unknown type %s" name
  in
  let schema =
    match
      Schema.of_names (List.map (fun (name, ty) -> (name, type_of_name ty)) columns)
    with
    | schema -> schema
    | exception Schema.Schema_error msg -> error "%s" msg
  in
  match order with
  | None -> (schema, Schema.attributes schema)
  | Some names -> (
    let attrs = List.map (attribute_of schema) names in
    match Nest.check_permutation schema attrs with
    | () -> (schema, attrs)
    | exception Invalid_argument msg -> error "%s" msg)

let comparison_of = function
  | Ast.C_eq -> Predicate.Eq
  | Ast.C_neq -> Predicate.Neq
  | Ast.C_lt -> Predicate.Lt
  | Ast.C_le -> Predicate.Le
  | Ast.C_gt -> Predicate.Gt
  | Ast.C_ge -> Predicate.Ge

let operand_of schema = function
  | Ast.O_column name -> Predicate.Field (attribute_of schema name)
  | Ast.O_literal literal -> Predicate.Const (value_of_literal literal)

let rec predicate_of schema condition =
  match condition with
  | Ast.Compare (comparison, lhs, rhs) ->
    Predicate.Compare
      (comparison_of comparison, operand_of schema lhs, operand_of schema rhs)
  | Ast.And (a, b) -> Predicate.And (predicate_of schema a, predicate_of schema b)
  | Ast.Or (a, b) -> Predicate.Or (predicate_of schema a, predicate_of schema b)
  | Ast.Not c -> Predicate.Not (predicate_of schema c)
  | Ast.Contains _ ->
    error "CONTAINS may only appear as a top-level conjunct of WHERE"

let rec split_condition schema condition =
  match condition with
  | Ast.Contains (column, literal) ->
    ([], [ (attribute_of schema column, value_of_literal literal) ])
  | Ast.And (a, b) ->
    let predicates_a, contains_a = split_condition schema a in
    let predicates_b, contains_b = split_condition schema b in
    (predicates_a @ predicates_b, contains_a @ contains_b)
  | Ast.Compare _ | Ast.Or _ | Ast.Not _ ->
    ([ predicate_of schema condition ], [])

let matching_tuples nfr condition =
  let predicates, contains = split_condition (Nfr.schema nfr) condition in
  let restricted =
    List.fold_left
      (fun nfr (attribute, value) -> Nalgebra.select_contains attribute value nfr)
      nfr contains
  in
  let selected =
    List.fold_left
      (fun flat predicate ->
        match Algebra.select predicate flat with
        | selected -> selected
        | exception Algebra.Algebra_error msg -> error "%s" msg)
      (Nfr.flatten restricted) predicates
  in
  Relation.tuples selected

let apply_where schema order nfr = function
  | None -> nfr
  | Some condition ->
    let predicates, contains = split_condition schema condition in
    let restricted =
      List.fold_left
        (fun nfr (attribute, value) ->
          Nalgebra.select_contains attribute value nfr)
        nfr contains
    in
    List.fold_left
      (fun nfr predicate ->
        match Nalgebra.select predicate ~order nfr with
        | selected -> selected
        | exception Invalid_argument msg -> error "%s" msg)
      restricted predicates

let shape_select filtered ~order (s : Ast.select) =
  let schema = Nfr.schema filtered in
  let projected =
    match s.Ast.columns with
    | None -> filtered
    | Some names ->
      let attrs = List.map (attribute_of schema) names in
      let sub_order =
        List.filter (fun a -> List.exists (Attribute.equal a) attrs) order
      in
      (match Nalgebra.project attrs ~order:sub_order filtered with
      | projected -> projected
      | exception Schema.Schema_error msg -> error "%s" msg)
  in
  let result_schema = Nfr.schema projected in
  let nested =
    List.fold_left
      (fun nfr name -> Nalgebra.nest nfr (attribute_of result_schema name))
      projected s.Ast.nests
  in
  List.fold_left
    (fun nfr name -> Nalgebra.unnest nfr (attribute_of result_schema name))
    nested s.Ast.unnests
