(* The server under test and the closed-loop client that drives it.

   [setup] builds a database as [nfr_cli serve --wal-dir] does
   (WAL-backed tables loaded with [~synchronous:false], [_views.wal],
   the [_commit.wal] manifest attached with [~synchronous:false]) and
   then runs the workload's setup statements. Two choices the CLI takes
   from its CSV are fixed here: each table nests its key last and keeps
   a B+-tree on it. The bulk load's dead heap records are kept: nothing
   is checkpointed. *)

open Nfr_core

let wal_path ~dir name = Filename.concat dir (name ^ ".wal")
let snapshot_path ~dir name = Filename.concat dir (name ^ ".snap")
let manifest_path ~dir = Filename.concat dir "_commit.wal"

let setup ~dir (spec : Streams.spec) =
  let db = Nfql.Physical.create () in
  List.iter
    (fun (tbl : Streams.table) ->
      Nfql.Physical.add_table db tbl.name
        (Storage.Table.load ~wal_path:(wal_path ~dir tbl.name) ~synchronous:false
           ~ordered_on:tbl.key ~order:tbl.order tbl.relation))
    spec.tables;
  Nfql.Physical.attach_views_wal db ~path:(Filename.concat dir "_views.wal");
  Nfql.Physical.attach_manifest ~synchronous:false db
    (Storage.Manifest.open_log (manifest_path ~dir));
  List.iter (fun sql -> ignore (Nfql.Physical.exec_string db sql)) spec.ddl;
  db

(* The recovery point: a snapshot of each table written from a WAL-less
   load, so it carries WAL generation 0 and the served WAL always
   replays over it. Returns the loaded tables, whose shape is the
   served tables' shape after set-up. *)
let write_base_snapshots ~dir (spec : Streams.spec) =
  List.map
    (fun (tbl : Streams.table) ->
      let table = Storage.Table.load ~ordered_on:tbl.key ~order:tbl.order tbl.relation in
      Storage.Table.save_snapshot table (snapshot_path ~dir tbl.name);
      (tbl, table))
    spec.tables

(* Crash recovery of every table: its base snapshot plus its WAL, with
   the commit manifest deciding which transactions are durable. Without
   [replay] only the snapshot is loaded. *)
let recover ?(replay = true) ~dir (spec : Streams.spec) =
  let manifest = Storage.Manifest.open_log (manifest_path ~dir) in
  let tables =
    List.map
      (fun (tbl : Streams.table) ->
        let wal_path = if replay then Some (wal_path ~dir tbl.name) else None in
        ( tbl.name,
          Storage.Table.load_snapshot ?wal_path ~synchronous:false ~ordered_on:tbl.key
            ~durable:(Storage.Manifest.durable manifest)
            (snapshot_path ~dir tbl.name) ))
      spec.tables
  in
  Storage.Manifest.close manifest;
  tables

let dir_bytes dir =
  Array.fold_left
    (fun acc file -> acc + (Unix.stat (Filename.concat dir file)).Unix.st_size)
    0 (Sys.readdir dir)

let rec remove_tree path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

(* The flat relation each table must hold once [effects] (in order) are
   applied to the initial contents. *)
let expected (spec : Streams.spec) effects =
  List.map
    (fun (tbl : Streams.table) ->
      let ops = List.filter_map (fun (t, op) -> if t = tbl.name then Some op else None) effects in
      (tbl.name, Workload.Trace.final_relation tbl.relation ops))
    spec.tables

(* ------------------------------------------------------------------ *)
(* The server process                                                  *)
(* ------------------------------------------------------------------ *)

let listen_socket () =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.SO_REUSEADDR true;
  Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  Unix.listen fd 64;
  match Unix.getsockname fd with
  | Unix.ADDR_INET (_, port) -> (fd, port)
  | Unix.ADDR_UNIX _ -> assert false

(* The server process's own work, run by [nf2bench --serve-dir]: set up
   in [dir], listen on a fresh loopback port, print "SECONDS PORT" (the
   seconds from the start of set-up to accepting connections), then
   serve until killed if [serve]. The caller generates [spec] before
   this starts its clock. *)
let serve_main ~serve ~dir spec =
  let started = Unix.gettimeofday () in
  let db = setup ~dir spec in
  let listen, port = listen_socket () in
  let loop =
    Server.Loop.create ~config:Server.Session.default_config ~metrics:Obs.Registry.global ~db
      ~listen:(`Fd listen) ()
  in
  Printf.printf "%.9f %d\n%!" (Unix.gettimeofday () -. started) port;
  if serve then Server.Loop.run loop

(* The recovering process's own work, run by [nf2bench --recover-dir]:
   recover every table of [dir] (see [recover]), print the seconds that
   took, and exit non-zero if a recovered table fails
   [Table.check_invariants]. The caller generates [spec] before this
   starts its clock. *)
let recover_main ~replay ~dir spec =
  let started = Unix.gettimeofday () in
  let tables = recover ~replay ~dir spec in
  let elapsed = Unix.gettimeofday () -. started in
  if not (List.for_all (fun (_, t) -> Storage.Table.check_invariants t) tables) then begin
    prerr_endline "perfbench recovery: a recovered table fails check_invariants";
    exit 1
  end;
  Printf.printf "%.9f\n%!" elapsed

(* Run this executable with [spec]'s workload and seed and [args] in a
   fresh process, which generates its inputs from the seed itself.
   Returns its pid and the first line it prints. *)
let spawn_self (spec : Streams.spec) args =
  let rd, wr = Unix.pipe ~cloexec:true () in
  let argv =
    Array.append
      [|
        Sys.executable_name;
        "--workload"; Streams.name_of spec.workload;
        "--seed"; string_of_int spec.seed;
      |]
      args
  in
  let pid = Unix.create_process Sys.executable_name argv Unix.stdin wr Unix.stderr in
  Unix.close wr;
  let ic = Unix.in_channel_of_descr rd in
  let line = try Some (input_line ic) with End_of_file -> None in
  close_in ic;
  (pid, line)

let rec wait_exit pid =
  match Unix.waitpid [] pid with
  | _, status -> Some status
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait_exit pid
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> None

let kill_and_wait pid =
  (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
  ignore (wait_exit pid)

(* Start a server process on [dir]. Returns its pid and, once it
   accepts connections, its set-up seconds and port. *)
let spawn_server ~serve ~dir spec =
  let pid, line =
    spawn_self spec [| "--serve-dir"; dir; "--serve"; (if serve then "1" else "0") |]
  in
  (pid, Option.bind line (fun l -> Scanf.sscanf_opt l "%f %d" (fun s port -> (s, port))))

(* Recover [dir] in a fresh process, as a restarted server would.
   Returns its recovery seconds, or None if it failed. *)
let spawn_recovery ~replay ~dir spec =
  let pid, line =
    spawn_self spec [| "--recover-dir"; dir; "--replay"; (if replay then "1" else "0") |]
  in
  match (wait_exit pid, Option.bind line float_of_string_opt) with
  | Some (Unix.WEXITED 0), Some s -> Some s
  | _ -> None

let peak_rss_kb pid =
  let path = Printf.sprintf "/proc/%d/status" pid in
  match open_in path with
  | exception Sys_error _ -> 0
  | ic ->
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> 0
      | line ->
        if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
          Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" Fun.id
        else scan ()
    in
    let kb = scan () in
    close_in ic;
    kb

(* Copy the files of [dir] into [dst] while the server is stopped by
   SIGSTOP, so the copy holds exactly what a SIGKILL at that moment
   would leave on disk. *)
let crash_image pid ~dir ~dst =
  Unix.kill pid Sys.sigstop;
  Fun.protect
    ~finally:(fun () -> Unix.kill pid Sys.sigcont)
    (fun () ->
      Array.iter
        (fun file ->
          let contents = In_channel.with_open_bin (Filename.concat dir file) In_channel.input_all in
          Out_channel.with_open_bin (Filename.concat dst file) (fun oc ->
              Out_channel.output_string oc contents))
        (Sys.readdir dir))

(* ------------------------------------------------------------------ *)
(* Closed loop                                                         *)
(* ------------------------------------------------------------------ *)

(* Latency samples (seconds) of one drive. [writes] are DML statements;
   [txns] are commit units (an explicit transaction, or an autocommit
   write). *)
type window = {
  mutable reads : float list;
  mutable writes : float list;
  mutable txns : float list;
  mutable completed : int;  (** requests answered and recorded *)
  mutable failed : int;  (** requests refused with an error, recorded or not *)
  mutable wrong : string list;  (** replies that failed their check *)
  mutable replies : (Streams.request * Server.Client.response) list;
      (** checked once the drive ends *)
}

let empty_window () =
  { reads = []; writes = []; txns = []; completed = 0; failed = 0; wrong = []; replies = [] }

type conn = {
  client : Server.Client.t;
  next : unit -> Streams.op;
  mutable op : Streams.op;
  mutable pending : Streams.request list;
  mutable op_started : float;
  mutable sent : float;
  mutable live : bool;
  mutable answered : int;  (** requests answered over the connection's life *)
  mutable applied : (string * Workload.Trace.op) list;  (** newest first *)
}

(* Drive every connection while [more c now] holds: each keeps exactly
   one request in flight and starts its next op only when its last one
   finished. Replies that arrive while [record now] holds are recorded.
   Ops in flight when [more] turns false run to completion, so no
   request is in flight when this returns. An op's clock starts once it
   is generated, when its first request is sent. The samples are added
   to [into], if given, which is returned. *)
let drive ?(into = empty_window ()) conns ~more ~record =
  let w = into in
  let send c =
    match c.pending with
    | [] -> assert false
    | r :: _ ->
      c.sent <- Unix.gettimeofday ();
      Server.Client.query_send c.client r.Streams.sql
  in
  let start_op c now =
    c.live <- more c now;
    if c.live then begin
      c.op <- c.next ();
      c.pending <- c.op.requests;
      send c;
      c.op_started <- c.sent
    end
  in
  List.iter (fun c -> start_op c (Unix.gettimeofday ())) conns;
  let rec loop () =
    let live = List.filter (fun c -> c.live) conns in
    if live <> [] then begin
      let fds = List.map (fun c -> Server.Client.fd c.client) live in
      let rec wait_ready () =
        match Unix.select fds [] [] 30.0 with
        | [], _, _ -> failwith "the server stopped answering"
        | ready, _, _ -> ready
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait_ready ()
      in
      let ready = wait_ready () in
      List.iter
        (fun c ->
          if List.mem (Server.Client.fd c.client) ready then begin
            let reply = Server.Client.query_recv c.client in
            let now = Unix.gettimeofday () in
            c.answered <- c.answered + 1;
            let request = List.hd c.pending in
            let recorded = record now in
            if recorded then w.completed <- w.completed + 1;
            (match reply with
            | Error (code, msg) ->
              w.failed <- w.failed + 1;
              w.wrong <-
                Printf.sprintf "%s: %s %s" request.sql
                  (Server.Protocol.err_code_name code) msg
                :: w.wrong
            | Ok response -> w.replies <- (request, response) :: w.replies);
            let latency = now -. c.sent in
            if recorded then begin
              match request.stmt with
              | Streams.Read -> w.reads <- latency :: w.reads
              | Streams.Write -> w.writes <- latency :: w.writes
              | Streams.Begin | Streams.Commit -> ()
            end;
            c.pending <- List.tl c.pending;
            if c.pending <> [] then send c
            else begin
              c.applied <- List.rev_append c.op.effects c.applied;
              (match c.op.kind with
              | (Streams.Op_write | Streams.Op_txn) when recorded ->
                w.txns <- (now -. c.op_started) :: w.txns
              | _ -> ());
              start_op c now
            end
          end)
        live;
      loop ()
    end
  in
  loop ();
  List.iter
    (fun ((request : Streams.request), (response : Server.Client.response)) ->
      match response.results with
      | [ r ] when Streams.check_reply request.check r.reply -> ()
      | [ _ ] -> w.wrong <- ("wrong reply to: " ^ request.sql) :: w.wrong
      | _ -> w.wrong <- ("not one result for: " ^ request.sql) :: w.wrong)
    w.replies;
  w.replies <- [];
  w

let connect_all ~port spec =
  List.init Streams.connections (fun conn ->
      {
        client = Server.Client.connect ~port ();
        next = Streams.stream spec ~conn;
        op = { Streams.kind = Streams.Op_read; requests = []; effects = [] };
        pending = [];
        op_started = 0.;
        sent = 0.;
        live = true;
        answered = 0;
        applied = [];
      })

let applied conns = List.concat_map (fun c -> List.rev c.applied) conns

(* The served state of every table, fetched over the wire. *)
let served_state client (spec : Streams.spec) =
  List.map
    (fun (tbl : Streams.table) ->
      match (Server.Client.query_exn client ("select * from " ^ tbl.name)).results with
      | [ { Server.Client.reply = `Rows (schema, ntuples); _ } ] ->
        (tbl.name, Nfr.of_ntuples schema ntuples)
      | _ -> failwith ("unexpected reply to select * from " ^ tbl.name))
    spec.tables

(* Server metrics, from its Prometheus exposition. *)
let prom_value samples name =
  List.fold_left
    (fun acc (s : Obs.Registry.sample) -> if s.s_name = name then acc +. s.s_value else acc)
    0. samples

let scrape_prom client =
  match Obs.Registry.parse_prometheus (Server.Client.metrics_prom client) with
  | Ok samples -> samples
  | Error msg -> failwith ("cannot parse server metrics: " ^ msg)

