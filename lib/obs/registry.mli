(** Process metrics: named counters, labeled counters, gauges and
    latency histograms, shared by every layer.

    Promoted out of [lib/server] so storage (WAL appends, fsyncs,
    snapshots), the executor and the nest kernel charge the same
    registry the server exposes. A registry is a process-wide (or
    per-loop, in tests) bag of monotonic counters ([frames.in],
    [wal.flush_total], ...), float gauges ([connections.open],
    [storage.live_tuples]) and log-bucketed histograms of seconds
    ([query.seconds]), cheap enough to update on every frame.

    Three renderings: {!to_text} (the METRICS dump), {!to_json}
    (shares the flat-object encoding of [Storage.Stats.to_json]), and
    {!to_prometheus} (text exposition format, names prefixed [nf2_]
    and sanitized, validated by {!parse_prometheus}).

    Histograms bucket by powers of two starting at 1 µs, so quantile
    estimates carry at most a 2x bucket-width error — plenty for p50 /
    p95 / p99 service-time reporting, with exact [count], [sum] and
    [max] kept alongside. *)

type t

val create : unit -> t

val global : t
(** The default process-wide registry. The CLI server passes it as its
    loop registry, so storage-layer series (WAL, snapshots) land in
    the same scrape. *)

val incr : t -> string -> unit
(** Add 1 to a counter, creating it at 0 first (one hash lookup). *)

val add : t -> string -> int -> unit

val get : t -> string -> int
(** Current value; 0 for a counter never touched. *)

val declare : t -> string -> unit
(** Create a counter at 0 if absent, so required series exist in the
    exposition before any traffic. *)

val incr_labeled : t -> string -> (string * string) list -> unit
(** One series per (name, label set); label order is irrelevant. *)

val add_labeled : t -> string -> (string * string) list -> int -> unit
val get_labeled : t -> string -> (string * string) list -> int

val set_gauge : t -> string -> float -> unit
val add_gauge : t -> string -> float -> unit
val gauge : t -> string -> float

val observe : t -> string -> float -> unit
(** Record one duration (seconds) in a histogram. Negative samples
    clamp to 0. *)

val declare_histogram : t -> string -> unit

val bucket_count : int

val bucket_of_seconds : float -> int
(** Total on all floats; monotone; result in [0, bucket_count). *)

val bucket_upper_seconds : int -> float
(** Inclusive upper bound of bucket [i], in seconds (2^i µs). *)

(** Summary of one histogram. Quantiles are bucket upper bounds
    (within 2x of the true value); [max] and [sum] are exact. *)
type summary = {
  count : int;
  sum : float;
  max : float;
  p50 : float;
  p95 : float;
  p99 : float;
}

val summarize : t -> string -> summary option
(** [None] when the histogram has no observations. *)

val quantile : float list -> float -> float
(** [quantile samples q] — exact quantile of a raw sample list (the
    bench's client-side latencies). [0.] on an empty list. *)

val counters : t -> (string * int) list
(** Sorted by name. *)

val labeled_counters : t -> ((string * (string * string) list) * int) list
val gauges : t -> (string * float) list

val summaries : t -> (string * summary) list
(** One {!summary} per histogram with at least one observation, sorted
    by name. *)

val to_text : t -> string
(** Human-readable dump: one [name value] line per counter and gauge,
    one summary line per histogram. *)

val to_json : t -> string
(** [{"counters":{...},"gauges":{...},"histograms":{...}}]. *)

val to_prometheus : t -> string
(** Prometheus text exposition: [# TYPE] comments, [nf2_]-prefixed
    sanitized names, cumulative [_bucket{le="..."}] series plus
    [_sum]/[_count] per histogram. *)

(** One parsed exposition sample. *)
type sample = {
  s_name : string;
  s_labels : (string * string) list;
  s_value : float;
}

val parse_prometheus : string -> (sample list, string) result
(** Parse text exposition format (own output or any well-behaved
    exporter's): comments and blank lines skipped, every other line
    must be [NAME[{k="v",...}] VALUE]. [Error] pinpoints the first bad
    line. *)

val reset : t -> unit
