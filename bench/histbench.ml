(* Metrics-history bench: what self-monitoring costs.

   Three questions, answered in BENCH_hist.json:

   - scrape cost: seconds per scrape as the registry grows (the server
     pays this every scrape_interval on its single thread, so it must
     stay far below a tick);
   - query latency: SELECT over the _metrics system table, which
     re-materializes the history NFR through the provider;
   - steady-state memory: per-tier sample counts after the eviction
     cascade settles, checked against the configured caps;

   plus the headline claim: interleaving scrapes with the obsbench
   query mix (far more often than the server ever would) costs less
   than the measured run-to-run noise floor. *)

let fill_registry m n =
  for i = 1 to n do
    Obs.Registry.add m (Printf.sprintf "bench.counter.%03d" i) i;
    Obs.Registry.set_gauge m
      (Printf.sprintf "bench.gauge.%03d" i)
      (float_of_int i)
  done;
  Obs.Registry.observe m "bench.seconds" 0.001

(* Steady-state scrape cost for a registry of [2n+3] series: scrape
   enough that the raw tier is full and every further scrape runs the
   full eviction/downsample cascade. *)
let scrape_cost n =
  let m = Obs.Registry.create () in
  fill_registry m n;
  let h = Hist.History.create () in
  let cfg = Hist.History.config h in
  let warm = cfg.Hist.History.raw_cap + 10 in
  for i = 1 to warm do
    ignore (Hist.History.scrape h m ~now:(float_of_int i *. 5.))
  done;
  let timed = 50 in
  let t0 = Unix.gettimeofday () in
  for i = 1 to timed do
    ignore (Hist.History.scrape h m ~now:(float_of_int (warm + i) *. 5.))
  done;
  let per_scrape = (Unix.gettimeofday () -. t0) /. float_of_int timed in
  (h, Hist.History.series_count h, per_scrape)

(* SELECT over _metrics through the executor's system-scan
   path, against the steady-state history built above. *)
let query_latency h =
  let db = Nfql.Physical.create () in
  Nfql.Physical.register_system_table db "_metrics" (fun () ->
      (Hist.History.order, Hist.History.nfr h));
  let source = "select * from _metrics where Series = 'bench.counter.001'" in
  let latencies =
    List.init 30 (fun _ ->
        let t0 = Unix.gettimeofday () in
        ignore (Nfql.Physical.exec_string db source);
        Unix.gettimeofday () -. t0)
  in
  ( Obs.Registry.quantile latencies 0.5,
    Obs.Registry.quantile latencies 0.99 )

let tier_totals h =
  List.map
    (fun tier ->
      let total =
        List.fold_left
          (fun acc ((_, t), n) -> if t = tier then acc + n else acc)
          0 (Hist.History.tier_counts h)
      in
      (tier, total))
    Hist.History.tiers

(* The obsbench query mix with scrapes paced at [period] seconds —
   5x the server's default rate — against a server-sized registry,
   measured with the same median-of-reruns protocol. *)
let round_scraping db h m iters ~period =
  let t0 = Unix.gettimeofday () in
  let last = ref t0 in
  for _ = 1 to iters do
    List.iter
      (fun source ->
        ignore (Nfql.Physical.exec_string db source);
        let now = Unix.gettimeofday () in
        if now -. !last >= period then begin
          ignore (Hist.History.scrape h m ~now);
          last := now
        end)
      Obsbench.statements
  done;
  let elapsed = Unix.gettimeofday () -. t0 in
  float_of_int (iters * List.length Obsbench.statements) /. elapsed

let run ?(iters = 1000) ?(reruns = 5) () =
  Format.printf "@.== HIST: metrics history self-monitoring costs ==@.";
  Obs.Span.set_enabled false;
  let sizes = [ 50; 200; 800 ] in
  let cost_rows =
    List.map
      (fun n ->
        let h, series, per_scrape = scrape_cost n in
        let p50, p99 = query_latency h in
        Format.printf
          "%4d series: %8.6fs/scrape, _metrics select p50=%.6fs p99=%.6fs@."
          series per_scrape p50 p99;
        (h, series, per_scrape, p50, p99))
      sizes
  in
  (* Steady-state tier occupancy of the largest run, against the caps. *)
  let h_large, _, _, _, _ = List.nth cost_rows (List.length cost_rows - 1) in
  let cfg = Hist.History.config h_large in
  let caps =
    [
      ("raw", cfg.Hist.History.raw_cap); ("10s", cfg.Hist.History.mid_cap);
      ("1m", cfg.Hist.History.old_cap);
    ]
  in
  let series_n = Hist.History.series_count h_large in
  List.iter
    (fun (tier, total) ->
      let cap = List.assoc tier caps * series_n in
      Format.printf "tier %-4s %7d samples (cap %d) %s@." tier total cap
        (if total <= cap then "ok" else "OVER");
      assert (total <= cap))
    (tier_totals h_large);
  (* Scrape overhead vs the noise floor, obsbench protocol: a
     server-sized registry (~40 series) scraped at 1 Hz while the
     query mix runs. *)
  let db = Obsbench.build_db () in
  let m = Obs.Registry.create () in
  fill_registry m 20;
  let hh = Hist.History.create () in
  let period = 1.0 in
  let baseline, _, _ = Obsbench.rounds db iters reruns in
  ignore (round_scraping db hh m (max 1 (iters / 10)) ~period);
  let scraping =
    List.init reruns (fun _ -> round_scraping db hh m iters ~period)
  in
  let base_ops = Obsbench.median baseline in
  let scrape_ops = Obsbench.median scraping in
  let noise_pct =
    Float.max (Obsbench.spread_pct baseline) (Obsbench.spread_pct scraping)
  in
  let overhead_pct = Obsbench.pct_delta base_ops scrape_ops in
  let within_noise = overhead_pct <= Float.max 5. noise_pct in
  Format.printf
    "query mix: %10.0f op/s bare, %10.0f op/s scraping at 1 Hz \
     (overhead %.2f%%, noise %.2f%%) -> %s@."
    base_ops scrape_ops overhead_pct noise_pct
    (if within_noise then "within noise" else "OVER");
  let cost_json =
    String.concat ","
      (List.map
         (fun (_, series, per_scrape, p50, p99) ->
           Printf.sprintf
             "{\"series\":%d,\"scrape_s\":%.6f,\"select_p50_s\":%.6f,\
              \"select_p99_s\":%.6f}"
             series per_scrape p50 p99)
         cost_rows)
  in
  let tiers_json =
    String.concat ","
      (List.map
         (fun (tier, total) -> Printf.sprintf "\"%s\":%d" tier total)
         (tier_totals h_large))
  in
  Bench_out.write "hist"
    (Printf.sprintf
       "{\"scrape_cost\":[%s],\"steady_state_samples\":{%s},\
        \"overhead\":{\"iters\":%d,\"reruns\":%d,\"scrape_hz\":1,\
        \"baseline_ops\":%.0f,\
        \"scraping_ops\":%.0f,\"overhead_pct\":%.2f,\"noise_pct\":%.2f,\
        \"within_noise\":%b}}"
       cost_json tiers_json iters reruns base_ops scrape_ops overhead_pct
       noise_pct within_noise)
