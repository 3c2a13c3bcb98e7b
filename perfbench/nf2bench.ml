(* nf2d benchmark: one closed-loop workload against a real server.

     nf2bench --workload oltp_read|oltp_write|txn_batch --seed N
              --seconds S --trace 0|1

   --trace 0 starts an nf2d server in a fresh process (this executable
   in its internal --serve-dir mode), built the way [nfr_cli serve
   --wal-dir] builds one, and drives it from this process over 2
   loopback connections (one request in flight each; a connection sends
   its next request only after the reply). A warm-up of a fixed number
   of requests per connection comes first; the server is then stopped
   for a moment (SIGSTOP) while its directory is copied, which gives a
   crash image holding a fixed amount of work. The measured window
   follows, in half-second slices: before each slice the host's speed
   is probed ([Reference]), and between some slices a set-up or a
   recovery is timed in a fresh process. Then the server is SIGKILLed
   and every table is recovered from its base snapshot and WAL. It
   prints the end-to-end metrics, every time divided (every rate
   multiplied) by the host's slowness over the run's probes, so they
   read as on a host of fixed speed; the raw figures are in the
   provenance line:

   - throughput_ops: requests completed per second of the window's
     slices;
   - read_*: latency of SELECT requests (p50 and p95; the minority
     request types get ~1000 samples a run, too few for a steady p99,
     which the provenance line still records);
   - write_*: latency of DML requests (autocommit, acked after the group
     fsync, on the oltp workloads; inside a transaction on txn_batch);
   - txn_*: latency of a commit unit, from its first request to its
     commit ack: BEGIN .. COMMIT on txn_batch, one autocommit DML
     request elsewhere;
   - setup_s: median seconds from a server process's start to accepting
     connections (bulk load, view DDL, ANALYZE), over the serving
     process and the fresh ones timed in the window; input generation
     is excluded;
   - recovery_s: median seconds for a fresh process, as a restarted
     server would, to [Table.load_snapshot] every table of the crash
     image with its WAL and the manifest's durability check;
   - disk_bytes_per_user_byte: bytes in the crash image's directory
     (base snapshots and logs) per encoded byte of its live data;
   - server_peak_rss_mb: the server's peak resident set when the crash
     image is taken.

   recovery_s, disk_bytes_per_user_byte and server_peak_rss_mb are all
   taken at the crash image, after the set-up and the warm-up's fixed
   number of requests, so they measure the cost of a fixed amount of
   work. Read after the window, each would grow with the number of
   writes the window managed: the WAL is never checkpointed and the
   heap keeps every tombstone.

   --trace 1 runs the same served phase for half the time (for the
   client-side medians the ledger needs), then replays the same seeded
   stream in-process with spans around each layer's public function
   ([Traced]), and prints the per-layer metrics, each with the
   end-to-end metric it should move.

   Every run is gated: each reply is checked, the served state must
   equal the stream's expected relation, and every table recovered from
   the killed server's directory must equal it too and pass
   [Table.check_invariants], as must every table recovered from the
   crash image against the state the warm-up left. A failed gate prints
   no numbers and exits 1. The last stdout line is the JSON result;
   the line before it records provenance. All files live under
   [.perfbench-run/] in the working directory and are removed. *)

open Relational
open Nfr_core

let median = function [] -> 0. | xs -> Obs.Registry.quantile xs 0.5
let quantile q = function [] -> 0. | xs -> Obs.Registry.quantile xs q
let ms s = s *. 1000.
let us s = s *. 1e6

(* The measured window is driven in slices of about [slice_s] seconds.
   Before each slice, with no request in flight, the host is probed
   ([Reference]). After a slice, a set-up is timed in a fresh server
   process, and a recovery of the crash image in a fresh process, each
   whenever the wall time spent on its samples so far (spawning and
   input generation included) is below its budget's share for the
   slices done. So the samples spread over the whole window as the
   probes do, and cheap set-ups and recoveries get more of them. *)
let slice_s = 0.5
let setup_budget_s = 5.0
let recovery_budget_s = 9.0

(* Requests each connection completes (rounded up to whole ops) before
   the crash image is taken and the window opens. *)
let warmup_requests = 1000

let flush_policy =
  "group commit: table WALs, _views.wal and _commit.wal opened synchronous:false; \
   acks held until one real fsync per loop tick (wal_sync_interval 0, at most 64 \
   waiters); Server.Session.default_config; no checkpoint while serving"

(* ------------------------------------------------------------------ *)
(* Arguments and provenance                                            *)
(* ------------------------------------------------------------------ *)

let usage = "nf2bench --workload NAME --seed N --seconds S --trace 0|1"

type mode =
  | Measure of { seconds : int; trace : bool }
  | Serve of { dir : string; serve : bool }  (** the server process *)
  | Recover of { dir : string; replay : bool }  (** a recovering process *)

let parse_args () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let serve_dir = ref "" and serve = ref 1 and recover_dir = ref "" and replay = ref 1 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " oltp_read | oltp_write | txn_batch");
      ("--seed", Arg.Set_int seed, " workload seed");
      ("--seconds", Arg.Set_int seconds, " measured seconds");
      ("--trace", Arg.Set_int trace, " 0: end-to-end metrics, 1: per-layer metrics");
      ("--serve-dir", Arg.Set_string serve_dir, " (internal) run the server under test in DIR");
      ("--serve", Arg.Set_int serve, " (internal) 0: exit once set up, 1: serve until killed");
      ("--recover-dir", Arg.Set_string recover_dir, " (internal) recover the tables in DIR");
      ("--replay", Arg.Set_int replay, " (internal) 0: base snapshots only, 1: with their WALs");
    ]
    (fun arg -> raise (Arg.Bad ("unexpected argument " ^ arg)))
    usage;
  match Streams.of_name !workload with
  | None ->
    prerr_endline ("unknown workload " ^ !workload ^ "\n" ^ usage);
    exit 2
  | Some w when !serve_dir <> "" -> (w, !seed, Serve { dir = !serve_dir; serve = !serve = 1 })
  | Some w when !recover_dir <> "" ->
    (w, !seed, Recover { dir = !recover_dir; replay = !replay = 1 })
  | Some w when !seconds >= 1 && (!trace = 0 || !trace = 1) ->
    (w, !seed, Measure { seconds = !seconds; trace = !trace = 1 })
  | Some _ ->
    prerr_endline usage;
    exit 2

let git_revision () =
  match Unix.open_process_in "git rev-parse HEAD 2>/dev/null" with
  | ic ->
    let rev = try input_line ic with End_of_file -> "" in
    ignore (Unix.close_process_in ic);
    if rev = "" then "unknown" else rev
  | exception Unix.Unix_error _ -> "unknown"

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let json_object fields =
  "{" ^ String.concat ", " (List.map (fun (k, v) -> json_string k ^ ": " ^ v) fields) ^ "}"

let json_float v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

(* One reported metric: its unit and the sample count behind it. *)
type metric = { name : string; value : float; unit_ : string; samples : int }

let metric name unit_ samples value = { name; value; unit_; samples }

let print_report ~provenance ~attempted ~failed metrics =
  List.iter
    (fun m -> Printf.printf "%-32s %16.6f %-6s (n=%d)\n" m.name m.value m.unit_ m.samples)
    metrics;
  print_endline (json_object [ ("provenance", provenance) ]);
  print_endline
    (json_object
       [
         ("correct", "true");
         ("attempted", string_of_int attempted);
         ("failed", string_of_int failed);
         ( "metrics",
           json_object
             (List.map
                (fun m ->
                  ( m.name,
                    json_object [ ("value", json_float m.value); ("unit", json_string m.unit_) ] ))
                metrics) );
       ])

exception Gate of string

let gate ok fmt = Printf.ksprintf (fun msg -> if not ok then raise (Gate msg)) fmt

(* ------------------------------------------------------------------ *)
(* Shared pieces                                                       *)
(* ------------------------------------------------------------------ *)

let mkdir_p dir = if not (Sys.file_exists dir) then Unix.mkdir dir 0o755

let table_sizes loaded =
  List.map
    (fun ((tbl : Streams.table), t) ->
      json_object
        [
          ("table", json_string tbl.name);
          ("flat_facts", string_of_int (Relation.cardinality tbl.relation));
          ("nfr_tuples", string_of_int (Storage.Table.cardinality t));
          ("heap_pages", string_of_int (Storage.Table.pages t));
          ("pool_pages", string_of_int Storage.Bufpool.default_capacity);
        ])
    loaded

let check_served ~client spec conns =
  let expected = Served.expected spec (Served.applied conns) in
  List.iter
    (fun (name, nfr) ->
      gate
        (Relation.equal (Nfr.flatten nfr) (List.assoc name expected))
        "served table %s differs from the stream's expected relation" name)
    (Served.served_state client spec);
  expected

let check_recovered ~expected tables =
  List.iter
    (fun (name, table) ->
      gate
        (Relation.equal (Nfr.flatten (Storage.Table.snapshot table)) (List.assoc name expected))
        "recovered table %s differs from the served state" name;
      gate (Storage.Table.check_invariants table) "recovered table %s fails check_invariants" name)
    tables

let close_tables = List.iter (fun (_, t) -> Storage.Table.close t)

(* The serving process, killed by [stop_server] (and on any failure). *)
let serving = ref None

let stop_server () =
  Option.iter Served.kill_and_wait !serving;
  serving := None

let start_process ~serve ~dir spec =
  match Served.spawn_server ~serve ~dir spec with
  | pid, Some ready -> (pid, ready)
  | pid, None ->
    Served.kill_and_wait pid;
    raise (Gate "the server failed during set-up")

(* One set-up, in a fresh server process that exits once it accepts
   connections, on a fresh directory under [root]. *)
let timed_setup ~root spec =
  let dir = Filename.concat root "setup" in
  mkdir_p dir;
  let pid, (s, _) = start_process ~serve:false ~dir spec in
  Served.kill_and_wait pid;
  Served.remove_tree dir;
  s

(* Start the server that serves the run, on [root]/served with its base
   snapshots. Returns its pid, port and directory, the table sizes and
   its set-up time. *)
let start_server ~root spec =
  let dir = Filename.concat root "served" in
  mkdir_p dir;
  let sizes = table_sizes (Served.write_base_snapshots ~dir spec) in
  let pid, (s, port) = start_process ~serve:true ~dir spec in
  serving := Some pid;
  (pid, port, dir, sizes, s)

type served = {
  window : Served.window;
  probes : float list;  (** host probes taken across the window *)
  setups : float list;  (** set-up samples taken in the window *)
  recoveries : float list;  (** recovery samples of the crash image *)
  image : string;  (** the crash image's directory *)
  image_expected : (string * Relation.t) list;  (** the state it must recover *)
  prom : Obs.Registry.sample list;  (** the server's metrics at the end *)
  rss_kb : int;  (** the server's peak resident set at the crash image *)
}

let check_drive what (w : Served.window) =
  gate (w.wrong = []) "%s: %d bad replies, first: %s" what (List.length w.wrong)
    (match w.wrong with [] -> "" | x :: _ -> x)

let timed_recovery ?(replay = true) ~dir spec =
  match Served.spawn_recovery ~replay ~dir spec with
  | Some s -> s
  | None -> raise (Gate ("recovery failed in " ^ dir))

(* Warm up with [warmup_requests] per connection, take the crash image,
   then drive the server for [seconds] in slices (with set-up and
   recovery samples between them if [samples]); check every reply and
   the final served state. *)
let serve_phase ~root ~pid ~port ~dir ~seconds ~samples spec =
  let conns = Served.connect_all ~port spec in
  let warm =
    Served.drive conns
      ~more:(fun c _ -> c.Served.answered < warmup_requests)
      ~record:(fun _ -> false)
  in
  check_drive "warm-up" warm;
  let image = Filename.concat root "image" in
  mkdir_p image;
  Served.crash_image pid ~dir ~dst:image;
  let rss_kb = Served.peak_rss_kb pid in
  let image_expected = Served.expected spec (Served.applied conns) in
  let w = Served.empty_window () in
  let slices = max 1 (int_of_float (Float.ceil (seconds /. slice_s))) in
  let probes = ref [] in
  let setups = ref [] and setup_wall = ref 0. in
  let recoveries = ref [] and recovery_wall = ref 0. in
  let sample slice ~budget ~wall ~into f =
    if samples && !wall < budget *. float_of_int slice /. float_of_int slices then begin
      let started = Unix.gettimeofday () in
      into := f () :: !into;
      wall := !wall +. (Unix.gettimeofday () -. started)
    end
  in
  for slice = 1 to slices do
    probes := Reference.probe () :: !probes;
    let stop = Unix.gettimeofday () +. (seconds /. float_of_int slices) in
    ignore
      (Served.drive ~into:w conns ~more:(fun _ now -> now < stop) ~record:(fun now -> now <= stop));
    sample slice ~budget:setup_budget_s ~wall:setup_wall ~into:setups (fun () ->
        timed_setup ~root spec);
    sample slice ~budget:recovery_budget_s ~wall:recovery_wall ~into:recoveries (fun () ->
        timed_recovery ~dir:image spec)
  done;
  probes := Reference.probe () :: !probes;
  check_drive "window" w;
  let client = (List.hd conns).Served.client in
  let expected = check_served ~client spec conns in
  let prom = Served.scrape_prom client in
  stop_server ();
  List.iter (fun c -> Server.Client.close c.Served.client) conns;
  (* The full directory after the kill must recover the served state. *)
  let tables = Served.recover ~dir spec in
  check_recovered ~expected tables;
  close_tables tables;
  {
    window = w;
    probes = !probes;
    setups = !setups;
    recoveries = !recoveries;
    image;
    image_expected;
    prom;
    rss_kb;
  }

(* The crash image must recover the state the warm-up left. *)
let check_image (p : served) spec =
  let tables = Served.recover ~dir:p.image spec in
  check_recovered ~expected:p.image_expected tables;
  close_tables tables

let provenance ~spec ~seconds ~trace ~sizes ~samples ~extra =
  json_object
    ([
       ("workload", json_string (Streams.name_of spec.Streams.workload));
       ("seed", string_of_int spec.seed);
       ("seconds", string_of_int seconds);
       ("trace", if trace then "1" else "0");
       ("git_revision", json_string (git_revision ()));
       ("host", json_string (Unix.gethostname ()));
       ("nproc", string_of_int (Domain.recommended_domain_count ()));
       ( "clients",
         json_string
           (Printf.sprintf "1 process, %d closed-loop connections, 1 request in flight each"
              Streams.connections) );
       ("flush_policy", json_string flush_policy);
       ("tables", "[" ^ String.concat ", " sizes ^ "]");
       ("samples", json_object (List.map (fun m -> (m.name, string_of_int m.samples)) samples));
     ]
    @ extra)

(* ------------------------------------------------------------------ *)
(* --trace 0: end-to-end                                               *)
(* ------------------------------------------------------------------ *)

let end_to_end ~root ~seconds spec =
  let pid, port, dir, sizes, served_setup = start_server ~root spec in
  let p =
    serve_phase ~root ~pid ~port ~dir ~seconds:(float_of_int seconds) ~samples:true spec
  in
  let w = p.window in
  let disk = Served.dir_bytes p.image in
  let user =
    List.fold_left
      (fun acc (tbl : Streams.table) ->
        acc
        + Storage.Codec.nfr_size (Nest.canonical (List.assoc tbl.name p.image_expected) tbl.order))
      0 spec.tables
  in
  check_image p spec;
  let recoveries = p.recoveries and setups = served_setup :: p.setups in
  (* Every time is divided by the host's slowness over the window's
     probes (see [Reference]); the raw values are in the provenance
     line. *)
  let slow = Reference.slowness p.probes in
  let n = List.length in
  let lat q xs = ms (quantile q xs) /. slow in
  let raw_throughput = float_of_int w.completed /. float_of_int seconds in
  let metrics =
    [
      metric "throughput_ops" "1/s" w.completed (raw_throughput *. slow);
      metric "read_p50_ms" "ms" (n w.reads) (lat 0.5 w.reads);
      metric "read_p95_ms" "ms" (n w.reads) (lat 0.95 w.reads);
      metric "write_p50_ms" "ms" (n w.writes) (lat 0.5 w.writes);
      metric "write_p95_ms" "ms" (n w.writes) (lat 0.95 w.writes);
      metric "txn_p50_ms" "ms" (n w.txns) (lat 0.5 w.txns);
      metric "txn_p95_ms" "ms" (n w.txns) (lat 0.95 w.txns);
      metric "setup_s" "s" (List.length setups) (median setups /. slow);
      metric "recovery_s" "s" (List.length recoveries) (median recoveries /. slow);
      metric "disk_bytes_per_user_byte" "ratio" 1 (float_of_int disk /. float_of_int (max 1 user));
      metric "server_peak_rss_mb" "MB" 1 (float_of_int p.rss_kb /. 1024.);
    ]
  in
  let failed_ratio = float_of_int w.failed /. float_of_int (max 1 w.completed) in
  ( w.completed,
    w.failed,
    metrics,
    provenance ~spec ~seconds ~trace:false ~sizes ~samples:metrics
      ~extra:
        [
          ("failed_ratio", json_float failed_ratio);
          ("host_slowness", json_float slow);
          ("host_probes", string_of_int (List.length p.probes));
          ( "raw",
            json_object
              [
                ("throughput_ops", json_float raw_throughput);
                ("read_p50_ms", json_float (ms (median w.reads)));
                ("read_p95_ms", json_float (ms (quantile 0.95 w.reads)));
                ("write_p50_ms", json_float (ms (median w.writes)));
                ("write_p95_ms", json_float (ms (quantile 0.95 w.writes)));
                ("txn_p50_ms", json_float (ms (median w.txns)));
                ("txn_p95_ms", json_float (ms (quantile 0.95 w.txns)));
                ("setup_s", json_float (median setups));
                ("recovery_s", json_float (median recoveries));
              ] );
          ( "p99_ms",
            json_object
              [
                ("read", json_float (ms (quantile 0.99 w.reads)));
                ("write", json_float (ms (quantile 0.99 w.writes)));
                ("txn", json_float (ms (quantile 0.99 w.txns)));
              ] );
          ("warmup_requests_per_connection", string_of_int warmup_requests);
          ("setup_samples_s", "[" ^ String.concat ", " (List.map json_float setups) ^ "]");
          ("recovery_samples_s", "[" ^ String.concat ", " (List.map json_float recoveries) ^ "]");
          ("image_disk_bytes", string_of_int disk);
          ("image_user_bytes", string_of_int user);
        ] )

(* ------------------------------------------------------------------ *)
(* --trace 1: per-layer                                                *)
(* ------------------------------------------------------------------ *)

(* Which end-to-end metric each per-layer metric should move, and on
   which workload. *)
let moves =
  [
    ("wire.encode_us", "read_p50_ms on oltp_read");
    ("wire.decode_us", "read_p50_ms on oltp_read");
    ("wire.reply_bytes", "read_p50_ms on oltp_read");
    ("parse.us", "throughput_ops on oltp_read");
    ("plan.us", "read_p50_ms on oltp_read");
    ("plan.uncached_us", "read_p50_ms on oltp_read");
    ("plan.cache_hit_ratio", "read_p50_ms on oltp_read");
    ("exec.read_us", "read_p50_ms on oltp_read (holds one extra plan-cache hit)");
    ("exec.write_us", "write_p50_ms on oltp_write");
    ("exec.txn_stmt_us", "txn_p50_ms on txn_batch");
    ("exec.commit_us", "txn_p50_ms on txn_batch");
    ("exec.pages_per_read", "read_p50_ms on oltp_read");
    ("exec.probes_per_read", "read_p50_ms on oltp_read");
    ("exec.records_per_row", "read_p50_ms on oltp_read");
    ("pool.hit_rate", "read_p50_ms on oltp_read");
    ("table.insert_us", "write_p50_ms on oltp_write; setup_s");
    ("table.delete_us", "write_p50_ms on oltp_write");
    ("table.dead_ratio_load", "setup_s; write_p50_ms");
    ("table.dead_ratio_end", "write_p50_ms on oltp_write");
    ("table.insert_slope", "write_p50_ms on oltp_write");
    ("update.compositions_per_write", "write_p50_ms on oltp_write");
    ("update.candidates_per_write", "write_p50_ms on oltp_write");
    ("wal.sync_ms", "write_p50_ms on oltp_write; txn_p50_ms on txn_batch");
    ("wal.bytes_per_write", "write_p50_ms on oltp_write; txn_p50_ms on txn_batch");
    ("wal.writes_per_sync", "write_p50_ms on oltp_write; txn_p50_ms on txn_batch");
    ("manifest.bytes_per_txn", "txn_p50_ms on txn_batch");
    ("view.maintain_us", "write_p50_ms on oltp_write");
    ("hist.scrape_ms", "read_p95_ms");
    ("recovery.snapshot_s", "recovery_s on oltp_write");
    ("recovery.replay_s", "recovery_s on oltp_write");
    ("exec.txn_stmt_slope", "txn_p50_ms on txn_batch");
    ("ledger.read_residual_ms", "read_p50_ms (low by one plan-cache hit)");
    ("ledger.write_residual_ms", "write_p50_ms");
    ("ledger.txn_residual_ms", "txn_p50_ms");
    ("trace.overhead_pct", "throughput_ops (tracing cost incl. a second plan per SELECT)");
  ]

(* Per-layer medians of the per-unit totals: [units] maps each span to
   its unit (a request or an op), or drops it. Returns (sum of the
   layer medians, units). *)
let ledger_sum (spans : Traced.span list) units =
  let per_unit = Hashtbl.create 1024 in
  let layers = Hashtbl.create 16 in
  List.iter
    (fun (s : Traced.span) ->
      match units s with
      | None -> ()
      | Some u ->
        let tbl =
          match Hashtbl.find_opt per_unit u with
          | Some t -> t
          | None ->
            let t = Hashtbl.create 8 in
            Hashtbl.replace per_unit u t;
            t
        in
        Hashtbl.replace layers s.layer ();
        Traced.bump tbl s.layer s.dur)
    spans;
  let total =
    Hashtbl.fold
      (fun layer () acc ->
        acc
        +. median
             (Hashtbl.fold
                (fun _ tbl xs -> Option.value ~default:0. (Hashtbl.find_opt tbl layer) :: xs)
                per_unit []))
      layers 0.
  in
  (total, Hashtbl.length per_unit)

let per_layer ~root ~seconds spec =
  let half = max 1 (seconds / 2) in
  (* Served phase: client medians and the server's own counters. *)
  let pid, port, dir, sizes, _ = start_server ~root spec in
  let p =
    serve_phase ~root ~pid ~port ~dir ~seconds:(float_of_int half) ~samples:false spec
  in
  let w = p.window in
  (* The recovery split, on the crash image as recovery_s is. *)
  check_image p spec;
  let pairs =
    List.init 3 (fun _ ->
        let snapshot = timed_recovery ~replay:false ~dir:p.image spec in
        (snapshot, timed_recovery ~dir:p.image spec))
  in
  let snapshot_s = median (List.map fst pairs) and full_s = median (List.map snd pairs) in
  let prom_v = Served.prom_value p.prom in
  let hits = prom_v "nf2_planner_cache_hit" and misses = prom_v "nf2_planner_cache_miss" in
  let batch_sum = prom_v "nf2_wal_group_commit_batch_size_sum"
  and batch_count = prom_v "nf2_wal_group_commit_batch_size_count" in
  (* In-process replay on a fresh copy of the set-up. *)
  let rdir = Filename.concat root "replay" in
  mkdir_p rdir;
  let db = Served.setup ~dir:rdir spec in
  let first = List.hd spec.tables in
  let table db = Option.get (Nfql.Physical.table db first.name) in
  let dead_load = Traced.dead_ratio (table db) in
  let ins, del = Traced.probe_table first (table db) in
  let quarter = Streams.spec ~scale:0.25 spec.workload ~seed:spec.seed in
  let qdir = Filename.concat root "quarter" in
  mkdir_p qdir;
  let qdb = Served.setup ~dir:qdir quarter in
  let qins, _ = Traced.probe_table (List.hd quarter.tables) (table qdb) in
  let txn_quarter =
    if spec.workload = Streams.Txn_batch then
      Some (Traced.replay ~probes:false ~dir:qdir ~seconds:1. qdb quarter)
    else None
  in
  let r = Traced.replay ~probes:true ~dir:rdir ~seconds:(float_of_int half) db spec in
  gate (r.wrong = []) "replay: %d bad replies" (List.length r.wrong);
  gate r.final_ok "replay: final state differs from the stream's expected relation";
  gate r.invariants_ok "replay: a table fails check_invariants";
  let dead_end = Traced.dead_ratio (table db) in
  let layer_samples (res : Traced.result) layer =
    List.filter_map
      (fun (s : Traced.span) -> if s.layer = layer then Some s.dur else None)
      res.spans
  in
  let probe_samples layer = Option.value ~default:[] (Hashtbl.find_opt r.samples layer) in
  let sample_metric name unit_ scale xs = metric name unit_ (List.length xs) (scale (median xs)) in
  let count = Traced.count r in
  let per num den = if den > 0. then num /. den else 0. in
  let reads = count "read.count" in
  let req_of (s : Traced.span) = Hashtbl.find_opt r.reqs s.req in
  let read_sum, read_n =
    ledger_sum r.spans (fun s ->
        match req_of s with Some Streams.Read -> Some s.req | _ -> None)
  in
  let write_sum, write_n =
    ledger_sum r.spans (fun s ->
        match req_of s with Some Streams.Write -> Some s.req | _ -> None)
  in
  let txn_sum, txn_n =
    ledger_sum r.spans (fun s ->
        match Hashtbl.find_opt r.ops s.op with
        | Some (Streams.Op_write | Streams.Op_txn) -> Some s.op
        | _ -> None)
  in
  let residual client (sum, n) = if client = [] || n = 0 then 0. else ms (median client -. sum) in
  let txn_slope =
    match txn_quarter with
    | Some q ->
      let full = median (layer_samples r "exec.txn_stmt")
      and small = median (layer_samples q "exec.txn_stmt") in
      if small > 0. then full /. small else 0.
    | None -> 0.
  in
  let n = List.length in
  let metrics =
    [
      sample_metric "wire.encode_us" "us" us (layer_samples r "wire.encode");
      sample_metric "wire.decode_us" "us" us (layer_samples r "wire.decode");
      sample_metric "wire.reply_bytes" "bytes" Fun.id (probe_samples "wire.reply_bytes");
      sample_metric "parse.us" "us" us (layer_samples r "parse");
      sample_metric "plan.us" "us" us (layer_samples r "plan");
      sample_metric "plan.uncached_us" "us" us (probe_samples "plan.uncached");
      metric "plan.cache_hit_ratio" "ratio" (int_of_float (hits +. misses))
        (per hits (hits +. misses));
      sample_metric "exec.read_us" "us" us (layer_samples r "exec.read");
      sample_metric "exec.write_us" "us" us (layer_samples r "exec.write");
      sample_metric "exec.txn_stmt_us" "us" us (layer_samples r "exec.txn_stmt");
      sample_metric "exec.commit_us" "us" us (layer_samples r "exec.commit");
      metric "exec.pages_per_read" "count" (int_of_float reads) (per (count "read.pages") reads);
      metric "exec.probes_per_read" "count" (int_of_float reads) (per (count "read.probes") reads);
      metric "exec.records_per_row" "ratio" (int_of_float reads)
        (per (count "read.records") (count "read.rows"));
      metric "pool.hit_rate" "ratio" (int_of_float reads)
        (per (count "read.pool_hits") (count "read.pool_hits" +. count "read.pool_misses"));
      sample_metric "table.insert_us" "us" us ins;
      sample_metric "table.delete_us" "us" us del;
      metric "table.dead_ratio_load" "ratio" 1 dead_load;
      metric "table.dead_ratio_end" "ratio" 1 dead_end;
      metric "table.insert_slope" "ratio" (n ins + n qins) (per (median ins) (median qins));
      metric "update.compositions_per_write" "count" (int_of_float (count "update.effects"))
        (per (count "update.compositions") (count "update.effects"));
      metric "update.candidates_per_write" "count" (int_of_float (count "update.effects"))
        (per (count "update.candidates") (count "update.effects"));
      sample_metric "wal.sync_ms" "ms" ms (probe_samples "wal.sync");
      metric "wal.bytes_per_write" "bytes" (int_of_float (count "dml.total"))
        (per (count "wal.bytes") (count "dml.total"));
      metric "wal.writes_per_sync" "count" (int_of_float batch_count) (per batch_sum batch_count);
      metric "manifest.bytes_per_txn" "bytes" (int_of_float (count "txn.total"))
        (per (count "manifest.bytes") (count "txn.total"));
      sample_metric "view.maintain_us" "us" us (probe_samples "view.maintain");
      sample_metric "hist.scrape_ms" "ms" ms (probe_samples "hist.scrape");
      metric "recovery.snapshot_s" "s" (List.length pairs) snapshot_s;
      metric "recovery.replay_s" "s" (List.length pairs) (full_s -. snapshot_s);
      metric "exec.txn_stmt_slope" "ratio" (n (layer_samples r "exec.txn_stmt")) txn_slope;
      metric "ledger.read_residual_ms" "ms" read_n (residual w.reads (read_sum, read_n));
      metric "ledger.write_residual_ms" "ms" write_n (residual w.writes (write_sum, write_n));
      metric "ledger.txn_residual_ms" "ms" txn_n (residual w.txns (txn_sum, txn_n));
      metric "trace.overhead_pct" "%" 1
        (100. *. (1. -. (r.traced_rate /. r.untraced_rate)));
    ]
  in
  List.iter
    (fun m -> Printf.printf "%-32s moves %s\n" m.name (List.assoc m.name moves))
    metrics;
  ( w.completed,
    w.failed,
    metrics,
    provenance ~spec ~seconds ~trace:true ~sizes ~samples:metrics
      ~extra:
        [
          ("served_seconds", string_of_int half);
          ("replay_seconds", string_of_int half);
          ("replay_traced_rate", json_float r.traced_rate);
          ("replay_untraced_rate", json_float r.untraced_rate);
        ] )

(* ------------------------------------------------------------------ *)

let measure spec ~seconds ~trace =
  (* A server that dies mid-request must fail the gate, not kill us. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let top = ".perfbench-run" in
  mkdir_p top;
  let root =
    Filename.concat top
      (Printf.sprintf "%s-%d" (Streams.name_of spec.Streams.workload) (Unix.getpid ()))
  in
  mkdir_p root;
  let outcome =
    Fun.protect
      ~finally:(fun () ->
        stop_server ();
        Served.remove_tree root;
        try Sys.rmdir top with Sys_error _ -> ())
      (fun () ->
        try Ok ((if trace then per_layer else end_to_end) ~root ~seconds spec)
        with
        | Gate msg | Failure msg -> Error msg
        | Server.Client.Error msg -> Error ("client: " ^ msg))
  in
  match outcome with
  | Ok (attempted, failed, metrics, provenance) ->
    print_report ~provenance ~attempted ~failed metrics
  | Error msg ->
    prerr_endline ("correctness gate failed: " ^ msg);
    print_endline {|{"correct": false, "attempted": 1, "failed": 1, "metrics": {}}|};
    exit 1

let () =
  let workload, seed, mode = parse_args () in
  let spec = Streams.spec workload ~seed in
  match mode with
  | Measure { seconds; trace } -> measure spec ~seconds ~trace
  | Serve { dir; serve } -> Served.serve_main ~serve ~dir spec
  | Recover { dir; replay } -> Served.recover_main ~replay ~dir spec
