(** Shared compilation helpers for NFQL.

    The executor ({!Physical}, over storage-engine tables) and the
    reference evaluator ({!Eval}, over plain canonical NFRs) resolve
    names, convert literals, split WHERE clauses and shape SELECT
    results the same way; this module is that common ground. *)

open Relational
open Nfr_core

exception Error of string
(** The user-facing evaluation error (re-exported by {!Eval} as
    [Eval_error]). *)

val error : ('a, Format.formatter, unit, 'b) format4 -> 'a
(** [error fmt ...] raises {!Error} with a formatted message. *)

val value_of_literal : Ast.literal -> Value.t

val attribute_of : Schema.t -> string -> Attribute.t
(** @raise Error when the column is unknown. *)

val tuple_of_row : Schema.t -> Ast.literal list -> Tuple.t
(** An INSERT/DELETE row as a flat tuple.
    @raise Error on an arity or type mismatch. *)

val table_of_columns :
  (string * string) list -> string list option -> Schema.t * Attribute.t list
(** A CREATE TABLE's schema and nest order (schema order when none is
    given). @raise Error on unknown types or columns, or an order that
    does not permute the schema. *)

val predicate_of : Schema.t -> Ast.condition -> Predicate.t
(** Pure-comparison conditions only.
    @raise Error when a [CONTAINS] appears below OR/NOT. *)

val split_condition :
  Schema.t -> Ast.condition -> Predicate.t list * (Attribute.t * Value.t) list
(** Top-level conjuncts, split into expansion-level predicates and
    tuple-level CONTAINS constraints. @raise Error on misplaced
    [CONTAINS]. *)

val matching_tuples : Nfr.t -> Ast.condition -> Tuple.t list
(** The flat facts of a canonical NFR a DML WHERE selects, by
    definition: CONTAINS restricts whole NFR tuples, then every
    comparison selects over the expansion [R*]. *)

val apply_where :
  Schema.t -> Attribute.t list -> Nfr.t -> Ast.condition option -> Nfr.t
(** Run both kinds of filter over an in-memory NFR (canonical for the
    given order). *)

val shape_select : Nfr.t -> order:Attribute.t list -> Ast.select -> Nfr.t
(** The post-WHERE pipeline: projection, then explicit NEST/UNNEST. *)
