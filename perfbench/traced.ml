(* The traced run: the same seeded request stream replayed in-process,
   with a benchmark-side span around every call into a layer's public
   function.

   Each request goes through the steps the server performs for it —
   [Protocol] decode of the client's frame, [Parser.parse_script],
   [Physical.plan] and [Physical.exec_session], [Protocol] encode of
   the reply — plus the client's encode and decode around them. The
   two connections alternate one request at a time, and after every
   round that left the WAL dirty one [Physical.sync_wal] covers both,
   as the server's group commit does once per loop tick.

   One bias is built in. [Physical.exec_session] plans a SELECT itself
   and there is no public call that runs a given plan, so a traced
   SELECT is planned twice: once under the [plan] span (a hit or a miss,
   as the server's own call would be) and again inside the exec span,
   which is then a guaranteed plan-cache hit. So [exec.read_us] and the
   read ledger sum each hold one extra cache lookup, and
   [trace.overhead_pct] counts that lookup as tracing cost.

   Probes that are not on the request path ([plan_uncached], an
   [Update.Store] and a view catalog kept in step with the table, the
   history scrape) are timed apart and left out of the throughput that
   [trace.overhead_pct] compares. That comparison alternates traced and
   untraced segments of the same replay. *)

open Relational
open Nfr_core

let now = Unix.gettimeofday

(* One recorded span: which request (and op) it belongs to, the layer
   it timed, and its duration in seconds. *)
type span = { op : int; req : int; layer : string; dur : float }

type result = {
  spans : span list;
  reqs : (int, Streams.stmt) Hashtbl.t;  (** traced requests' statement kinds *)
  ops : (int, Streams.kind) Hashtbl.t;  (** ops whose every request was traced *)
  samples : (string, float list) Hashtbl.t;  (** per-layer probe samples *)
  counts : (string, float) Hashtbl.t;  (** summed counters *)
  traced_rate : float;  (** requests per second of path time, traced *)
  untraced_rate : float;
  wrong : string list;
  final_ok : bool;
  invariants_ok : bool;
}

let add_sample tbl key v =
  Hashtbl.replace tbl key (v :: Option.value ~default:[] (Hashtbl.find_opt tbl key))

let bump tbl key v =
  Hashtbl.replace tbl key (v +. Option.value ~default:0. (Hashtbl.find_opt tbl key))

let count r key = Option.value ~default:0. (Hashtbl.find_opt r.counts key)

let file_size path = try (Unix.stat path).Unix.st_size with Unix.Unix_error _ -> 0

let reply_messages (result, stats) =
  let reply =
    match result with
    | Nfql.Eval.Done text -> Server.Protocol.Done text
    | Nfql.Eval.Rows nfr -> Server.Protocol.Rows (Nfr.schema nfr, Nfr.ntuples nfr)
  in
  [ Server.Protocol.Stats stats; reply; Server.Protocol.Done "ok: 1 statement(s)" ]

let decode_all frames =
  let bytes = Bytes.unsafe_of_string frames in
  let rec go pos acc =
    if pos >= Bytes.length bytes then List.rev acc
    else
      (* [len] is the end of the readable region, as in Client.recv. *)
      match Server.Protocol.decode bytes ~pos ~len:(Bytes.length bytes) with
      | Server.Protocol.Msg (m, used) -> go (pos + used) (m :: acc)
      | _ -> failwith "reply does not decode"
  in
  go 0 []

let client_reply = function
  | [ Server.Protocol.Stats _; Server.Protocol.Rows (schema, nts); _ ] -> `Rows (schema, nts)
  | [ Server.Protocol.Stats _; Server.Protocol.Done text; _ ] -> `Msg text
  | _ -> `Msg "malformed"

(* Table.insert / Table.delete timed on [table] in its current state:
   [k] fresh facts inserted, then deleted again, so the table's
   contents end where they began. *)
let probe_table ?(k = 256) (tbl : Streams.table) table =
  let rng = Workload.Prng.create 4242 in
  let schema = Relation.schema tbl.relation in
  let rec fresh acc n =
    if n = 0 then acc
    else
      let t =
        Tuple.make schema
          (List.map Value.of_string
             [
               tbl.keys.(Workload.Prng.int rng (Array.length tbl.keys));
               Printf.sprintf "%s%d" tbl.d1_prefix (Workload.Prng.int rng tbl.d1_domain);
               Printf.sprintf "%s%d" tbl.d2_prefix (Workload.Prng.int rng tbl.d2_domain);
             ])
      in
      if Storage.Table.member table t || List.exists (Tuple.equal t) acc then fresh acc n
      else fresh (t :: acc) (n - 1)
  in
  let tuples = fresh [] k in
  let time f =
    List.map
      (fun t ->
        let t0 = now () in
        f t;
        now () -. t0)
      tuples
  in
  let inserts = time (fun t -> ignore (Storage.Table.insert table t)) in
  let deletes = time (Storage.Table.delete table) in
  Storage.Table.sync_wal table;
  (inserts, deletes)

let dead_ratio table =
  let dead = Storage.Table.dead_records table in
  float_of_int dead /. float_of_int (max 1 (dead + Storage.Table.live_records table))

type conn = {
  session : Nfql.Physical.session;
  next : unit -> Streams.op;
  mutable op : Streams.op;
  mutable op_id : int;
  mutable op_traced : bool;
  mutable pending : Streams.request list;
  mutable live : bool;
  mutable applied : (string * Workload.Trace.op) list;
}

(* Seconds per traced (then untraced) segment of a replay. *)
let segment = 0.25

(* Rounds between two timed history scrapes. *)
let scrape_every = 32

(* Replay [spec]'s streams against [db] (set up in [dir]) for [seconds].
   [probes] turns on the off-path probes and the history scrape. *)
let replay ~probes ~dir ~seconds db (spec : Streams.spec) =
  let spans = ref [] in
  let reqs = Hashtbl.create 4096 and ops = Hashtbl.create 1024 in
  let samples = Hashtbl.create 32 and counts = Hashtbl.create 32 in
  let wrong = ref [] in
  let ctx = Server.Session.make_context ~metrics:Obs.Registry.global db in
  let stores =
    List.map
      (fun (tbl : Streams.table) ->
        let table = Option.get (Nfql.Physical.table db tbl.name) in
        ( tbl.name,
          Update.Store.of_nfr ~order:(Storage.Table.nest_order table)
            (Storage.Table.snapshot table) ))
      spec.tables
  in
  let views = Views.Catalog.create () in
  List.iter
    (fun (d : Views.Catalog.def) ->
      let base = Option.get (Nfql.Physical.table db d.base) in
      Views.Catalog.define views ~view:d.view ~base:d.base ~by:d.by
        (Storage.Table.snapshot base))
    (Views.Catalog.defs (Nfql.Physical.catalog db));
  let conns =
    Array.init Streams.connections (fun conn ->
        {
          session = Nfql.Physical.session db;
          next = Streams.stream spec ~conn;
          op = { Streams.kind = Streams.Op_read; requests = []; effects = [] };
          op_id = 0;
          op_traced = false;
          pending = [];
          live = true;
          applied = [];
        })
  in
  let wal_bytes () =
    List.fold_left
      (fun acc (tbl : Streams.table) -> acc + file_size (Served.wal_path ~dir tbl.name))
      0 spec.tables
  in
  let wal_before = wal_bytes () and manifest_before = file_size (Served.manifest_path ~dir) in
  let next_op = ref 0 and next_req = ref 0 in
  let traced = ref true in
  let probe_time = ref 0. in
  let path_time = [| 0.; 0. |] and path_reqs = [| 0; 0 |] in
  let probe f =
    let t0 = now () in
    let v = f () in
    probe_time := !probe_time +. (now () -. t0);
    v
  in
  (* Off-path probes of one write's effects: every write feeds them, so
     the probe stores stay in step with the table; only traced writes
     are sampled. *)
  let probe_write (effects : (string * Workload.Trace.op) list) =
    probe (fun () ->
        let stats = Update.fresh_stats () in
        List.iter
          (fun (name, op) ->
            let store = List.assoc name stores in
            match op with
            | Workload.Trace.Insert t -> ignore (Update.Store.insert ~stats store t)
            | Workload.Trace.Delete t -> Update.Store.delete ~stats store t)
          effects;
        (* One Catalog.apply per table and statement, as the executor
           does at its commit point. *)
        let t0 = now () in
        List.iter
          (fun (tbl : Streams.table) ->
            match
              List.filter_map
                (fun (name, op) ->
                  if name <> tbl.name then None
                  else
                    Some
                      (match op with
                      | Workload.Trace.Insert t -> Views.Catalog.Ins t
                      | Workload.Trace.Delete t -> Views.Catalog.Del t))
                effects
            with
            | [] -> ()
            | ops ->
              ignore
                (Views.Catalog.apply views ~base:tbl.name
                   ~base_nfr:(lazy (Update.Store.snapshot (List.assoc tbl.name stores)))
                   ops))
          spec.tables;
        let maintain = now () -. t0 in
        if !traced then begin
          bump counts "update.compositions" (float_of_int stats.Update.compositions);
          bump counts "update.candidates" (float_of_int stats.Update.candidate_scans);
          bump counts "update.effects" (float_of_int (List.length effects));
          if Views.Catalog.defs views <> [] then add_sample samples "view.maintain" maintain
        end)
  in
  let record ~op req layer dur =
    if !traced then spans := { op; req; layer; dur } :: !spans
  in
  let timed c req layer f =
    if !traced then begin
      let t0 = now () in
      let v = f () in
      record ~op:c.op_id req layer (now () -. t0);
      v
    end
    else f ()
  in
  (* One request of connection [c]: everything the client and server
     do for it up to the group sync. *)
  let run_request c (request : Streams.request) =
    let req = !next_req in
    incr next_req;
    if !traced then Hashtbl.replace reqs req request.stmt;
    let frame =
      timed c req "wire.encode" (fun () ->
          Server.Protocol.encode_string (Server.Protocol.Query request.sql))
    in
    let sql =
      match timed c req "wire.decode" (fun () -> Server.Protocol.decode_message frame) with
      | Ok (Server.Protocol.Query sql) -> sql
      | _ -> failwith "request frame does not decode"
    in
    let statement =
      match timed c req "parse" (fun () -> Nfql.Parser.parse_script sql) with
      | [ s ] -> s
      | _ -> failwith ("not one statement: " ^ sql)
    in
    (match statement with
    | Nfql.Ast.Select s when !traced ->
      ignore (timed c req "plan" (fun () -> Nfql.Physical.plan db s));
      if probes then
        probe (fun () ->
            let t0 = now () in
            ignore (Nfql.Physical.plan_uncached db s);
            add_sample samples "plan.uncached" (now () -. t0))
    | _ -> ());
    let exec_layer =
      match (request.stmt, c.op.kind) with
      | Streams.Begin, _ -> "exec.begin"
      | Streams.Commit, _ -> "exec.commit"
      | (Streams.Read | Streams.Write), Streams.Op_txn -> "exec.txn_stmt"
      | Streams.Read, _ -> "exec.read"
      | Streams.Write, _ -> "exec.write"
    in
    let ((_, stats) as outcome) =
      timed c req exec_layer (fun () -> Nfql.Physical.exec_session c.session statement)
    in
    let reply =
      timed c req "wire.encode" (fun () ->
          String.concat "" (List.map Server.Protocol.encode_string (reply_messages outcome)))
    in
    let messages = timed c req "wire.decode" (fun () -> decode_all reply) in
    (match request.stmt with
    | Streams.Write -> bump counts "dml.total" 1.
    | Streams.Commit -> bump counts "txn.total" 1.
    | Streams.Read | Streams.Begin -> ());
    if not (Streams.check_reply request.check (client_reply messages)) then
      wrong := ("wrong reply to: " ^ request.sql) :: !wrong;
    if !traced then begin
      add_sample samples "wire.reply_bytes" (float_of_int (String.length reply));
      if exec_layer = "exec.read" then begin
        bump counts "read.count" 1.;
        bump counts "read.pages" (float_of_int stats.Storage.Stats.pages_read);
        bump counts "read.probes" (float_of_int stats.Storage.Stats.index_probes);
        bump counts "read.records" (float_of_int stats.Storage.Stats.records_read);
        bump counts "read.pool_hits" (float_of_int stats.Storage.Stats.pool_hits);
        bump counts "read.pool_misses" (float_of_int stats.Storage.Stats.pool_misses);
        match outcome with
        | Nfql.Eval.Rows nfr, _ -> bump counts "read.rows" (float_of_int (Nfr.cardinality nfr))
        | _ -> ()
      end
    end;
    req
  in
  let start_op c t_stop =
    if now () >= t_stop then c.live <- false
    else begin
      c.op <- c.next ();
      c.op_id <- !next_op;
      incr next_op;
      c.op_traced <- !traced;
      c.pending <- c.op.requests
    end
  in
  let deadline = now () +. seconds in
  Array.iter (fun c -> start_op c deadline) conns;
  let segment_end = ref (now () +. segment) in
  let segment_start = ref (now ()) in
  let rounds = ref 0 in
  let close_segment () =
    let t = now () in
    let mode = if !traced then 0 else 1 in
    path_time.(mode) <- path_time.(mode) +. (t -. !segment_start -. !probe_time);
    probe_time := 0.;
    segment_start := t
  in
  while Array.exists (fun c -> c.live) conns do
    if now () >= !segment_end then begin
      close_segment ();
      traced := not !traced;
      segment_end := now () +. segment
    end;
    (* One round: each live connection sends one request. *)
    let waiting = ref [] in
    Array.iter
      (fun c ->
        if c.live then begin
          let request = List.hd c.pending in
          if not !traced then c.op_traced <- false;
          let req = run_request c request in
          let mode = if !traced then 0 else 1 in
          path_reqs.(mode) <- path_reqs.(mode) + 1;
          let own_sync =
            match (request.stmt, c.op.kind) with
            | Streams.Write, Streams.Op_write | Streams.Commit, _ -> true
            | _ -> false
          in
          if own_sync then waiting := (c.op_id, req) :: !waiting;
          c.pending <- List.tl c.pending;
          if c.pending = [] then begin
            c.applied <- List.rev_append c.op.effects c.applied;
            if c.op.effects <> [] then probe_write c.op.effects;
            if c.op_traced then Hashtbl.replace ops c.op_id c.op.kind;
            start_op c deadline
          end
        end)
      conns;
    if Nfql.Physical.wal_unsynced db > 0 then begin
      let t0 = now () in
      Nfql.Physical.sync_wal db;
      let d = now () -. t0 in
      if !traced then begin
        add_sample samples "wal.sync" d;
        List.iter (fun (op, req) -> record ~op req "wal.sync" d) !waiting
      end
    end;
    incr rounds;
    if probes && !traced && !rounds mod scrape_every = 0 then
      probe (fun () ->
          let t0 = now () in
          ignore (Server.Session.scrape ctx ~now:(now ()));
          add_sample samples "hist.scrape" (now () -. t0))
  done;
  close_segment ();
  let applied = List.concat_map (fun c -> List.rev c.applied) (Array.to_list conns) in
  bump counts "wal.bytes" (float_of_int (wal_bytes () - wal_before));
  bump counts "manifest.bytes"
    (float_of_int (file_size (Served.manifest_path ~dir) - manifest_before));
  let expected = Served.expected spec applied in
  let final_ok =
    List.for_all
      (fun (name, rel) ->
        Relation.equal
          (Nfr.flatten (Storage.Table.snapshot (Option.get (Nfql.Physical.table db name))))
          rel)
      expected
  in
  let invariants_ok =
    List.for_all
      (fun (tbl : Streams.table) ->
        Storage.Table.check_invariants (Option.get (Nfql.Physical.table db tbl.name)))
      spec.tables
  in
  {
    spans = !spans;
    reqs;
    ops;
    samples;
    counts;
    traced_rate = float_of_int path_reqs.(0) /. path_time.(0);
    untraced_rate = float_of_int path_reqs.(1) /. max 1e-9 path_time.(1);
    wrong = !wrong;
    final_ok;
    invariants_ok;
  }
