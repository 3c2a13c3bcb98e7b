(** Per-table statistics for the cost-based planner.

    Collected by the [ANALYZE <table>] statement (and auto-refreshed
    by {!Physical} after a write-count threshold), one {!attr_stats}
    per schema attribute: the paper's Def. 6 cardinality class, Def. 7
    single-attribute fixedness, distinct-value count, and the
    posting-size distribution (mean/max tuples per value). These are
    the selectivity priors the cost model prices access paths with:
    a fixed ([1:1]/[n:1]) attribute probes to at most one group; a
    [1:n]/[m:n] attribute's probe fans out to a posting-distribution
    estimate. *)

open Relational
open Nfr_core

type attr_stats = {
  a_attr : Attribute.t;
  a_class : Classify.cardinality;  (** Def. 6 class *)
  a_distinct : int;  (** distinct component values *)
  a_mean_posting : float;  (** mean tuples containing one value *)
  a_max_posting : int;  (** max tuples containing one value *)
  a_fixed : bool;  (** Def. 7 fixedness on this single attribute *)
}

type t = {
  s_rows : int;  (** NFR tuples (groups) *)
  s_facts : int;  (** flat facts ([R*] cardinality) *)
  s_attrs : attr_stats list;  (** schema order *)
}

val collect : Nfr.t -> t
(** One pass per attribute over the canonical snapshot. *)

val find : t -> Attribute.t -> attr_stats option

val summary : string -> t -> string
(** The [Done] text ANALYZE returns — a function of the content alone,
    so differential tests compare it verbatim with the summary of the
    reference evaluator's relation. *)
