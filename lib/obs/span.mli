(** Structured spans: cross-layer tracing of one request.

    A {e span} is one timed unit of work (a frame decode, a parse, one
    physical operator, a WAL fsync, a nest fixpoint) with a parent
    link and a trace id tying everything a single request did into one
    tree. Spans are recorded into a fixed-capacity ring buffer {e at
    enter time}, so among retained spans a parent always precedes its
    children.

    The disabled path is the common one: instrumentation calls
    {!enter}/{!with_span} unconditionally, and when no scope is open
    ({!in_trace} not active) the returned span is {e detached} — it
    still accumulates timing (EXPLAIN ANALYZE reads operator clocks
    off spans either way) but costs two clock reads and is never
    stored. All state is process-global and single-threaded. *)

(** The event taxonomy. [Statement] carries the statement verb,
    [Operator] the physical operator label. *)
type event =
  | Request
  | Frame_rx
  | Frame_tx
  | Parse
  | Plan
  | Statement of string
  | Operator of string
  | Txn of string  (* begin/commit/rollback/conflict *)
  | Wal_append
  | Wal_sync  (** a real [fsync] durability barrier ([Wal.sync]) *)
  | Wal_replay
  | Snapshot_write
  | Snapshot_load
  | Salvage
  | Nest_fixpoint
  | Nest_apply
  | Unnest_apply
  | Compose_step
  | Custom of string

val event_name : event -> string

type t = {
  id : int;  (** unique per recorded span; 0 when detached *)
  trace : int;  (** 0 when detached *)
  parent : int;  (** 0 for trace roots *)
  event : event;
  label : string;
  start_s : float;
  mutable busy_s : float;
  mutable rows : int;
  mutable bytes : int;
  mutable ended : bool;
}

val set_enabled : bool -> unit
(** Master switch the server consults before opening per-request
    traces. Explicit {!in_trace} callers (the TRACE statement, the
    trace CLI) trace regardless. *)

val enabled : unit -> bool

val set_capacity : int -> unit
(** Resize (and clear) the span ring. Clamped to at least 1. *)

val capacity : unit -> int
val reset : unit -> unit

val now : unit -> float
(** The span clock ([Unix.gettimeofday]). *)

val in_trace : ?trace:int -> (int -> 'a) -> 'a
(** Open a trace scope: every span entered dynamically within is
    recorded under this trace id (fresh unless [?trace] resumes an
    existing one). Nests; the innermost scope wins. *)

val current_trace : unit -> int option

val with_span : event -> string -> (t -> 'a) -> 'a
(** Run [f] under a new span; children entered inside nest beneath it.
    On exit (or exception) the elapsed wall clock is {e added} to
    [busy_s] — pre-seeding with {!add_busy} composes. *)

val enter : event -> string -> t
(** A leaf span without scope push: callers accumulate {!add_busy}
    themselves (the executor's operators) and {!finish} it later. *)

val add_busy : t -> float -> unit
val set_rows : t -> int -> unit
val add_rows : t -> int -> unit
val set_bytes : t -> int -> unit
val add_bytes : t -> int -> unit
val busy : t -> float

val finish : t -> unit
(** Mark ended; if no busy time was ever accumulated, charge the wall
    clock since enter. Idempotent. *)

val spans : unit -> t list
(** Ring contents, oldest first (parents before children). *)

val spans_of_trace : int -> t list

val to_json : t -> string
val to_json_lines : unit -> string
(** The whole ring as JSON lines. *)

val render_tree : t list -> string
(** Indented per-span lines (busy ms, event, label, rows, bytes) for
    spans of one trace in ring order. *)
