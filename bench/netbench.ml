(* N1: closed-loop network bench.

   Forks one nf2d server (select event loop, shared Physical.db) and
   drives it over real loopback sockets with a fleet of blocking
   clients replaying a Workload.Trace.mixed scenario round-robin —
   every client always has exactly one request in flight, the
   closed-loop regime. Reports client-side throughput and latency
   percentiles (exact, from raw samples), error counts, the summed
   per-statement access-path costs (Stats.to_json) and the server's
   own METRICS dump, then checks the final table state against
   Trace.final_relation — a bench run that garbles state fails loudly
   rather than reporting a fast lie. *)

open Relational

let schema = Schema.strings [ "A"; "B"; "C" ]

let start_relation ~rows ~seed =
  let trace =
    Workload.Trace.mixed ~seed ~insert_ratio:1.0 (Relation.empty schema)
      ~ops:rows
  in
  Workload.Trace.final_relation (Relation.empty schema) trace

let fork_server ~listen_fd =
  match Unix.fork () with
  | 0 ->
    (* Child: build the db and serve until shutdown. *)
    let exit_code =
      try
        let db = Nfql.Physical.create () in
        Nfql.Physical.add_table db "t"
          (Storage.Table.load
             ~order:(Schema.attributes schema)
             (Relation.empty schema));
        let loop = Server.Loop.create ~db ~listen:(`Fd listen_fd) () in
        Server.Loop.run loop;
        0
      with _ -> 1
    in
    Unix._exit exit_code
  | pid ->
    Unix.close listen_fd;
    pid

let listen_socket () =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.SO_REUSEADDR true;
  Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  Unix.listen fd 128;
  let port =
    match Unix.getsockname fd with
    | Unix.ADDR_INET (_, port) -> port
    | Unix.ADDR_UNIX _ -> assert false
  in
  (fd, port)

let run ?(conns = 8) ?(ops = 2000) ?(seed = 1983) () =
  Format.printf "@.== N1: network closed loop — %d connections, %d ops ==@."
    conns ops;
  let start = start_relation ~rows:60 ~seed in
  let trace = Workload.Trace.mixed ~seed:(seed + 1) start ~ops in
  let listen_fd, port = listen_socket () in
  let server_pid = fork_server ~listen_fd in
  let clients =
    Array.init conns (fun _ -> Server.Client.connect ~port ())
  in
  (* Seed the table through the first client so the whole relation
     state flows over the wire. *)
  let seed_client = clients.(0) in
  Relation.iter
    (fun tuple ->
      ignore
        (Server.Client.query_exn seed_client
           (Workload.Trace.nfql_statement ~table:"t"
              (Workload.Trace.Insert tuple))))
    start;
  let latencies = ref [] in
  let errors = ref 0 in
  let total_stats = Storage.Stats.create () in
  let t0 = Unix.gettimeofday () in
  List.iteri
    (fun i op ->
      let client = clients.(i mod conns) in
      let source = Workload.Trace.nfql_statement ~table:"t" op in
      let started = Unix.gettimeofday () in
      (match Server.Client.query client source with
      | Ok response ->
        List.iter
          (fun r -> Storage.Stats.add total_stats r.Server.Client.stats)
          response.Server.Client.results
      | Error _ -> incr errors);
      latencies := (Unix.gettimeofday () -. started) :: !latencies)
    trace;
  let elapsed = Unix.gettimeofday () -. t0 in
  let final_rows =
    match (Server.Client.query_exn seed_client "select * from t").results with
    | [ { reply = `Rows (row_schema, ntuples); _ } ] ->
      Nfr_core.Nfr.flatten (Nfr_core.Nfr.of_ntuples row_schema ntuples)
    | _ -> failwith "netbench: unexpected SELECT response shape"
  in
  let expected = Workload.Trace.final_relation start trace in
  let state_ok = Relation.equal final_rows expected in
  let metrics_dump = Server.Client.metrics seed_client in
  Server.Client.shutdown seed_client;
  Array.iter Server.Client.close clients;
  let _, status = Unix.waitpid [] server_pid in
  let samples = !latencies in
  let q p = Obs.Registry.quantile samples p in
  Format.printf
    "ops=%d conns=%d elapsed=%.3fs throughput=%.0f op/s errors=%d@." ops conns
    elapsed
    (float_of_int ops /. elapsed)
    !errors;
  Format.printf "latency p50=%.6fs p95=%.6fs p99=%.6fs@." (q 0.5) (q 0.95)
    (q 0.99);
  Format.printf "final state matches Trace.final_relation: %b@." state_ok;
  Format.printf "server exit: %s@."
    (match status with
    | Unix.WEXITED n -> Printf.sprintf "exited %d" n
    | Unix.WSIGNALED n -> Printf.sprintf "signaled %d" n
    | Unix.WSTOPPED n -> Printf.sprintf "stopped %d" n);
  Format.printf "access-path cost (summed): %s@."
    (Storage.Stats.to_json total_stats);
  let report =
    Printf.sprintf
      "{\"ops\":%d,\"conns\":%d,\"elapsed_s\":%.3f,\"throughput_ops\":%.0f,\
       \"errors\":%d,\"p50_s\":%.6f,\"p95_s\":%.6f,\"p99_s\":%.6f,\
       \"state_ok\":%b,\"cost\":%s}"
      ops conns elapsed
      (float_of_int ops /. elapsed)
      !errors (q 0.5) (q 0.95) (q 0.99) state_ok
      (Storage.Stats.to_json total_stats)
  in
  Format.printf "report: %s@." report;
  Bench_out.write "net" report;
  Format.printf "server metrics:@.%s@." metrics_dump;
  if not state_ok then failwith "netbench: final relation mismatch";
  if not (status = Unix.WEXITED 0) then failwith "netbench: server died"
