(** Deterministic fault injection for the storage stack.

    A registry of named failure {e sites} threaded through {!Wal}
    appends, {!Table} snapshot writes and {!Engine} loads. A test arms
    a site with a {!fault}; when execution reaches that site the fault
    fires exactly once (optionally after skipping a number of hits),
    simulating the failure mode at precisely that point:

    - {!constructor-Crash} — the process "dies" at the site:
      {!exception-Crashed} is raised and nothing past the site runs.
      The harness catches it, drops the live handles, and recovers
      from disk — the crash-consistency test.
    - {!constructor-Short_write} — only a prefix of the data reaches
      the file, then the process dies (a torn write).
    - {!constructor-Bit_flip} — one bit of the data is silently
      flipped before it is written (media corruption); execution
      continues normally.
    - {!constructor-Drop_write} — the write is silently lost (a flush
      that never reached the platter); execution continues normally.

    Everything is deterministic: faults fire on exact hit counts, and
    {!plan} derives (site, fault) schedules from an explicit seed, so
    a failing crash-matrix cell reproduces byte-for-byte.

    The registry is global mutable state, intended for single-threaded
    test harnesses; {!reset} restores the no-faults state. When
    nothing is armed every site is a no-op (one hashtable miss), so
    production paths pay essentially nothing. *)

type fault =
  | Crash
  | Short_write of int  (** keep only the first [n] bytes, then crash *)
  | Bit_flip of int  (** flip bit [n mod (8 * length)] of the data *)
  | Drop_write
  | Lose_unsynced
      (** power loss at a sync site: every byte that reached only the
          OS page cache (appended but not yet fsynced) vanishes, then
          the process dies. Only meaningful at [`Sync] sites. *)

exception Crashed of string  (** The site whose {!constructor-Crash} fired. *)

type site_kind =
  [ `Control  (** a pure control-flow point: only {!constructor-Crash} applies *)
  | `Write  (** a data write: every fault applies *)
  | `Sync  (** a durability barrier: {!constructor-Crash} and
               {!constructor-Lose_unsynced} apply *) ]

val sites : (string * site_kind) list
(** Every site the storage stack declares, in instrumentation order:
    ["wal.append.before"], ["wal.append.frame"], ["wal.append.after"],
    ["wal.sync.before"], ["wal.sync.after"], ["wal.reset"],
    ["snapshot.body"], ["snapshot.sync"] (the fsync of the new
    snapshot before its rename), ["snapshot.rename"],
    ["engine.load.record"],
    ["txn.commit.table"] (before each table's provisional commit
    append in a multi-table commit), ["manifest.append.before"]
    (between the last table's append and the manifest record).
    The crash-matrix soak enumerates this list; adding an
    instrumentation point means adding it here. *)

val faults_for : site_kind -> fault list
(** The canonical fault set to exercise at a site of this kind (small
    representative parameters for the sized faults). *)

val arm : ?after:int -> string -> fault -> unit
(** [arm ~after site fault] — the fault fires on the [(after+1)]-th
    hit of [site] (default: the next hit), then disarms itself.
    Re-arming a site replaces its pending fault. *)

val disarm : string -> unit

val reset : unit -> unit
(** Disarm everything and zero all hit/fired counters. *)

val hit : string -> unit
(** Control-flow site. Raises {!exception-Crashed} when an armed
    {!constructor-Crash} fires here; data faults at a control site
    fire (they are recorded) but have no effect. *)

(** What a data write site should do with the buffer. *)
type write_effect =
  | Full of string  (** write this (possibly bit-flipped) data *)
  | Partial of string  (** write this prefix, then raise {!exception-Crashed} *)
  | Dropped  (** write nothing; pretend success *)

val on_write : string -> string -> write_effect
(** [on_write site data] — the armed fault's transformation of [data],
    or [Full data] when nothing fires. *)

(** What a durability barrier should do. *)
type sync_effect =
  | Proceed  (** fsync normally *)
  | Power_cut
      (** the machine lost power before the fsync landed: the caller
          must discard everything past its durable watermark, then
          raise {!exception-Crashed} *)

val on_sync : string -> sync_effect
(** [on_sync site] — the armed fault's verdict at a sync barrier.
    Raises {!exception-Crashed} directly for an armed
    {!constructor-Crash}; returns {!constructor-Power_cut} for
    {!constructor-Lose_unsynced}; other faults are recorded but
    proceed. *)

val hits : string -> int
(** How many times the site has been reached since {!reset}. *)

val fired : unit -> (string * fault) list
(** Faults that actually fired since {!reset}, oldest first. The
    crash matrix asserts its armed fault is in this list — a renamed
    or unreachable site fails loudly instead of passing vacuously. *)

val plan : seed:int -> int -> (string * fault) list
(** [plan ~seed n] — [n] deterministic (site, fault) pairs drawn from
    {!sites} with kind-appropriate faults; equal seeds give equal
    plans. *)

val with_faults : (string * fault) list -> (unit -> 'a) -> 'a
(** Arm each pair, run the thunk, and {!reset} afterwards even on
    exceptions. *)
