(* The metrics registry, promoted out of lib/server so every layer
   (storage, executor, nest, server) can charge the same counters.

   Buckets are powers of two over 1 µs: bucket [i] counts samples in
   (2^(i-1) µs, 2^i µs]; bucket 0 holds everything at or under 1 µs.
   40 buckets reach ~6.4 days, far past any request timeout. *)
let bucket_count = 40

type histogram = {
  buckets : int array;
  mutable h_count : int;
  mutable h_sum : float;
  mutable h_max : float;
}

type t = {
  counters : (string, int ref) Hashtbl.t;
  labeled : (string * (string * string) list, int ref) Hashtbl.t;
  gauges : (string, float ref) Hashtbl.t;
  histograms : (string, histogram) Hashtbl.t;
}

let create () =
  {
    counters = Hashtbl.create 32;
    labeled = Hashtbl.create 8;
    gauges = Hashtbl.create 8;
    histograms = Hashtbl.create 8;
  }

let global = create ()

let counter_ref t name =
  match Hashtbl.find_opt t.counters name with
  | Some r -> r
  | None ->
    let r = ref 0 in
    Hashtbl.add t.counters name r;
    r

let add t name n =
  let r = counter_ref t name in
  r := !r + n

let incr t name = add t name 1
let declare t name = ignore (counter_ref t name)

let get t name =
  match Hashtbl.find_opt t.counters name with Some r -> !r | None -> 0

(* Labeled counters: one series per (name, label set). Labels are
   stored sorted so {a,b} and {b,a} hit the same series. *)
let labeled_ref t name labels =
  let key = (name, List.sort compare labels) in
  match Hashtbl.find_opt t.labeled key with
  | Some r -> r
  | None ->
    let r = ref 0 in
    Hashtbl.add t.labeled key r;
    r

let add_labeled t name labels n =
  let r = labeled_ref t name labels in
  r := !r + n

let incr_labeled t name labels = add_labeled t name labels 1

let get_labeled t name labels =
  match Hashtbl.find_opt t.labeled (name, List.sort compare labels) with
  | Some r -> !r
  | None -> 0

let gauge_ref t name =
  match Hashtbl.find_opt t.gauges name with
  | Some r -> r
  | None ->
    let r = ref 0. in
    Hashtbl.add t.gauges name r;
    r

let set_gauge t name v = gauge_ref t name := v

let add_gauge t name delta =
  let r = gauge_ref t name in
  r := !r +. delta

let gauge t name =
  match Hashtbl.find_opt t.gauges name with Some r -> !r | None -> 0.

let bucket_of_seconds seconds =
  let micros = seconds *. 1e6 in
  let rec find i bound =
    if i >= bucket_count - 1 || micros <= bound then i
    else find (i + 1) (bound *. 2.)
  in
  find 0 1.

let bucket_upper_seconds i = 1e-6 *. (2. ** float_of_int i)

let histogram t name =
  match Hashtbl.find_opt t.histograms name with
  | Some h -> h
  | None ->
    let h =
      { buckets = Array.make bucket_count 0; h_count = 0; h_sum = 0.; h_max = 0. }
    in
    Hashtbl.add t.histograms name h;
    h

let declare_histogram t name = ignore (histogram t name)

let observe t name seconds =
  let seconds = if seconds < 0. then 0. else seconds in
  let h = histogram t name in
  let b = bucket_of_seconds seconds in
  h.buckets.(b) <- h.buckets.(b) + 1;
  h.h_count <- h.h_count + 1;
  h.h_sum <- h.h_sum +. seconds;
  if seconds > h.h_max then h.h_max <- seconds

type summary = {
  count : int;
  sum : float;
  max : float;
  p50 : float;
  p95 : float;
  p99 : float;
}

let histogram_quantile h q =
  (* Upper bound of the first bucket at which the cumulative count
     reaches q of the total, capped by the exact max. An empty
     histogram has no quantiles; report 0 rather than whatever h_max
     was initialized to. *)
  if h.h_count = 0 then 0.
  else begin
    let target = int_of_float (ceil (q *. float_of_int h.h_count)) in
    let target = max 1 target in
    let rec walk i cumulative =
      if i >= bucket_count then h.h_max
      else
        let cumulative = cumulative + h.buckets.(i) in
        if cumulative >= target then min (bucket_upper_seconds i) h.h_max
        else walk (i + 1) cumulative
    in
    walk 0 0
  end

let summarize t name =
  match Hashtbl.find_opt t.histograms name with
  | None -> None
  | Some h when h.h_count = 0 -> None
  | Some h ->
    Some
      {
        count = h.h_count;
        sum = h.h_sum;
        max = h.h_max;
        p50 = histogram_quantile h 0.5;
        p95 = histogram_quantile h 0.95;
        p99 = histogram_quantile h 0.99;
      }

let quantile samples q =
  match samples with
  | [] -> 0.
  | _ ->
    let sorted = List.sort compare samples in
    let n = List.length sorted in
    let rank = int_of_float (ceil (q *. float_of_int n)) in
    let rank = min (max rank 1) n in
    List.nth sorted (rank - 1)

let counters t =
  Hashtbl.fold (fun name r acc -> (name, !r) :: acc) t.counters []
  |> List.sort compare

let labeled_counters t =
  Hashtbl.fold (fun key r acc -> (key, !r) :: acc) t.labeled []
  |> List.sort compare

let gauges t =
  Hashtbl.fold (fun name r acc -> (name, !r) :: acc) t.gauges []
  |> List.sort compare

let summaries t =
  Hashtbl.fold
    (fun name _ acc ->
      match summarize t name with
      | Some s -> (name, s) :: acc
      | None -> acc)
    t.histograms []
  |> List.sort compare

(* Exposition-format label escaping: exactly backslash, double quote
   and newline are escaped. OCaml's %S is close but not it — it
   writes tab/CR/non-printables as OCaml escapes, which a Prometheus
   parser (including ours) reads back as different bytes. *)
let escape_label_value v =
  let buffer = Buffer.create (String.length v + 2) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buffer "\\\\"
      | '"' -> Buffer.add_string buffer "\\\""
      | '\n' -> Buffer.add_string buffer "\\n"
      | c -> Buffer.add_char buffer c)
    v;
  Buffer.contents buffer

let render_labels labels =
  match labels with
  | [] -> ""
  | _ ->
    Printf.sprintf "{%s}"
      (String.concat ","
         (List.map
            (fun (k, v) -> Printf.sprintf "%s=\"%s\"" k (escape_label_value v))
            labels))

let to_text t =
  let buffer = Buffer.create 256 in
  List.iter
    (fun (name, value) -> Buffer.add_string buffer (Printf.sprintf "%s %d\n" name value))
    (counters t);
  List.iter
    (fun ((name, labels), value) ->
      Buffer.add_string buffer
        (Printf.sprintf "%s%s %d\n" name (render_labels labels) value))
    (labeled_counters t);
  List.iter
    (fun (name, value) ->
      Buffer.add_string buffer (Printf.sprintf "%s %.6g\n" name value))
    (gauges t);
  List.iter
    (fun (name, s) ->
      Buffer.add_string buffer
        (Printf.sprintf
           "%s count=%d sum=%.6f max=%.6f p50=%.6f p95=%.6f p99=%.6f\n" name
           s.count s.sum s.max s.p50 s.p95 s.p99))
    (summaries t);
  Buffer.contents buffer

let to_json t =
  let counter_fields =
    List.map
      (fun (name, value) -> Printf.sprintf "%S:%d" name value)
      (counters t)
  in
  let gauge_fields =
    List.map
      (fun (name, value) -> Printf.sprintf "%S:%.6f" name value)
      (gauges t)
  in
  let histogram_fields =
    List.map
      (fun (name, s) ->
        Printf.sprintf
          "%S:{\"count\":%d,\"sum\":%.6f,\"max\":%.6f,\"p50\":%.6f,\"p95\":%.6f,\"p99\":%.6f}"
          name s.count s.sum s.max s.p50 s.p95 s.p99)
      (summaries t)
  in
  Printf.sprintf "{\"counters\":{%s},\"gauges\":{%s},\"histograms\":{%s}}"
    (String.concat "," counter_fields)
    (String.concat "," gauge_fields)
    (String.concat "," histogram_fields)

(* ------------------------------------------------------------------ *)
(* Prometheus text exposition                                          *)
(* ------------------------------------------------------------------ *)

(* Metric names are namespaced nf2_ and sanitized: every character
   outside [a-zA-Z0-9_:] becomes '_' (so "wal.flush_total" scrapes as
   nf2_wal_flush_total). *)
let prom_name name =
  let buffer = Buffer.create (String.length name + 4) in
  Buffer.add_string buffer "nf2_";
  String.iter
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' ->
        Buffer.add_char buffer c
      | _ -> Buffer.add_char buffer '_')
    name;
  Buffer.contents buffer

let prom_float v =
  if v = Float.infinity then "+Inf"
  else if v = Float.neg_infinity then "-Inf"
  else if Float.is_nan v then "NaN"
  else Printf.sprintf "%.12g" v

let to_prometheus t =
  let buffer = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buffer (s ^ "\n")) fmt in
  List.iter
    (fun (name, value) ->
      let pname = prom_name name in
      line "# TYPE %s counter" pname;
      line "%s %d" pname value)
    (counters t);
  (* Group labeled series under one TYPE comment per metric name. *)
  let last_labeled = ref "" in
  List.iter
    (fun ((name, labels), value) ->
      let pname = prom_name name in
      if pname <> !last_labeled then begin
        line "# TYPE %s counter" pname;
        last_labeled := pname
      end;
      line "%s%s %d" pname (render_labels labels) value)
    (labeled_counters t);
  List.iter
    (fun (name, value) ->
      let pname = prom_name name in
      line "# TYPE %s gauge" pname;
      line "%s %s" pname (prom_float value))
    (gauges t);
  let histograms =
    Hashtbl.fold (fun name h acc -> (name, h) :: acc) t.histograms []
    |> List.sort compare
  in
  List.iter
    (fun (name, h) ->
      let pname = prom_name name in
      line "# TYPE %s histogram" pname;
      let cumulative = ref 0 in
      Array.iteri
        (fun i n ->
          cumulative := !cumulative + n;
          line "%s_bucket{le=\"%s\"} %d" pname
            (prom_float (bucket_upper_seconds i))
            !cumulative)
        h.buckets;
      line "%s_bucket{le=\"+Inf\"} %d" pname h.h_count;
      line "%s_sum %s" pname (prom_float h.h_sum);
      line "%s_count %d" pname h.h_count)
    histograms;
  Buffer.contents buffer

(* A small exposition-format parser, enough to validate our own output
   (and any well-behaved exporter's): comment/blank lines skipped,
   sample lines are NAME[{k="v",...}] VALUE. Used by the round-trip
   property tests and `nfr_cli metrics` scrape validation. *)
type sample = {
  s_name : string;
  s_labels : (string * string) list;
  s_value : float;
}

let parse_prometheus text =
  let parse_line lineno line =
    let n = String.length line in
    let fail msg = Error (Printf.sprintf "line %d: %s (%s)" lineno msg line) in
    let is_name_char start c =
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '_' | ':' -> true
      | '0' .. '9' -> not start
      | _ -> false
    in
    let rec name_end i = if i < n && is_name_char false line.[i] then name_end (i + 1) else i in
    if n = 0 || not (is_name_char true line.[0]) then fail "expected a metric name"
    else begin
      let name_stop = name_end 1 in
      let name = String.sub line 0 name_stop in
      let labels = ref [] in
      let pos = ref name_stop in
      let ok = ref None in
      if !pos < n && line.[!pos] = '{' then begin
        Stdlib.incr pos;
        let continue = ref (!pos < n && line.[!pos] <> '}') in
        while !ok = None && !continue do
          (* key *)
          let key_start = !pos in
          let key_stop = name_end !pos in
          if key_stop = key_start || key_stop >= n || line.[key_stop] <> '=' then
            ok := Some (fail "bad label key")
          else begin
            let key = String.sub line key_start (key_stop - key_start) in
            pos := key_stop + 1;
            if !pos >= n || line.[!pos] <> '"' then ok := Some (fail "expected opening quote")
            else begin
              Stdlib.incr pos;
              let value = Buffer.create 16 in
              let in_string = ref true in
              while !ok = None && !in_string do
                if !pos >= n then ok := Some (fail "unterminated label value")
                else
                  match line.[!pos] with
                  | '"' -> in_string := false; Stdlib.incr pos
                  | '\\' ->
                    if !pos + 1 >= n then ok := Some (fail "dangling escape")
                    else begin
                      (match line.[!pos + 1] with
                      | 'n' -> Buffer.add_char value '\n'
                      | '\\' -> Buffer.add_char value '\\'
                      | '"' -> Buffer.add_char value '"'
                      | c -> Buffer.add_char value c);
                      pos := !pos + 2
                    end
                  | c -> Buffer.add_char value c; Stdlib.incr pos
              done;
              if !ok = None then begin
                labels := (key, Buffer.contents value) :: !labels;
                if !pos < n && line.[!pos] = ',' then Stdlib.incr pos
                else if !pos < n && line.[!pos] = '}' then continue := false
                else ok := Some (fail "expected , or } after label")
              end
            end
          end
        done;
        if !ok = None then begin
          if !pos < n && line.[!pos] = '}' then Stdlib.incr pos
          else ok := Some (fail "expected }")
        end
      end;
      match !ok with
      | Some err -> err
      | None ->
        let rest = String.trim (String.sub line !pos (n - !pos)) in
        if rest = "" then fail "missing sample value"
        else
          let value =
            match rest with
            | "+Inf" | "Inf" -> Some Float.infinity
            | "-Inf" -> Some Float.neg_infinity
            | "NaN" -> Some Float.nan
            | _ -> float_of_string_opt rest
          in
          (match value with
          | None -> fail "unparseable sample value"
          | Some v ->
            Ok (Some { s_name = name; s_labels = List.rev !labels; s_value = v }))
    end
  in
  let lines = String.split_on_char '\n' text in
  let rec walk lineno acc = function
    | [] -> Ok (List.rev acc)
    | line :: rest ->
      let trimmed = String.trim line in
      if trimmed = "" || trimmed.[0] = '#' then walk (lineno + 1) acc rest
      else (
        match parse_line lineno trimmed with
        | Error _ as err -> err
        | Ok None -> walk (lineno + 1) acc rest
        | Ok (Some sample) -> walk (lineno + 1) (sample :: acc) rest)
  in
  walk 1 [] lines

let reset t =
  Hashtbl.reset t.counters;
  Hashtbl.reset t.labeled;
  Hashtbl.reset t.gauges;
  Hashtbl.reset t.histograms
