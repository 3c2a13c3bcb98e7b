(** The reference evaluator: NFQL's paper semantics over plain canonical
    NFRs, kept as the oracle the differential tests compare the executor
    ({!Physical}) against. It is not a back end: nothing outside the
    tests serves statements with it.

    Each table carries a nest application order fixed at CREATE time
    (default: schema order); INSERT, DELETE and UPDATE maintain the
    canonical form through {!Nfr_core.Update}, so every statement leaves
    every table canonical — the paper's realization discipline.

    WHERE semantics: plain comparisons select over the {e expansion}
    ([R*]); [CONTAINS] selects whole NFR tuples by component
    membership. The two may be mixed as top-level conjuncts; a
    [CONTAINS] under OR/NOT is rejected (its tuple-level meaning does
    not distribute over expansion selection).

    Supported: CREATE/DROP TABLE, INSERT, DELETE, UPDATE, SELECT (with
    CONTAINS, JOIN, NEST and UNNEST), SELECT COUNT and SHOW. Every other
    statement raises {!Eval_error}.

    {!result} and {!Eval_error} are also the executor's result and
    error types. *)

open Relational
open Nfr_core

type db

exception Eval_error of string

type result =
  | Done of string  (** DDL/DML acknowledgement *)
  | Rows of Nfr.t  (** SELECT/SHOW result *)

val create : unit -> db

val exec : db -> Ast.statement -> result
(** @raise Eval_error on unknown tables/columns, type mismatches,
    deleting absent tuples, unsupported CONTAINS placement, or a
    statement outside the supported subset. *)

val exec_string : db -> string -> result list
(** Parse and run a whole script.
    @raise Eval_error, [Parser.Parse_error] or [Lexer.Lex_error]. *)

val table : db -> string -> Nfr.t option
val table_order : db -> string -> Attribute.t list option

val pp_result : Format.formatter -> result -> unit
