(* Seeded inputs for the three workloads: the tables each one serves,
   the setup statements, and one closed-loop request stream per
   connection.

   Every table is an entity relation [key ->-> d1 | d2] (Fig. 1's R1)
   nested with the key last, so each key is one canonical NFR tuple
   whose two dependents are sets. Each connection owns the keys whose
   index has its parity and writes only those, so the two streams
   commute: the final state, and the answer to a point read of an owned
   key, do not depend on how the server interleaves the connections.
   That is what lets the benchmark check every point read exactly and
   the final state against [Workload.Trace.final_relation]. *)

open Relational
open Nfr_core
module Prng = Workload.Prng
module Zipf = Workload.Zipf
module Trace = Workload.Trace

type workload = Oltp_read | Oltp_write | Txn_batch

let workloads = [ Oltp_read; Oltp_write; Txn_batch ]

let name_of = function
  | Oltp_read -> "oltp_read"
  | Oltp_write -> "oltp_write"
  | Txn_batch -> "txn_batch"

let of_name name = List.find_opt (fun w -> name_of w = name) workloads

(* The number of closed-loop connections; one request in flight each. *)
let connections = 2

(* Zipf exponent of the hot keys and values. Below the YCSB default of
   0.99 so that a handful of keys do not carry most of the traffic. *)
let zipf_s = 0.8

(* The data, and which keys are hot, come from this fixed seed; the
   workload seed picks only the request stream. So runs with different
   seeds serve the same tables under the same hot set and differ only in
   the sequence of requests. *)
let data_seed = 1

type table = {
  name : string;
  relation : Relation.t;  (** initial flat contents *)
  key : Attribute.t;  (** also the B+-tree attribute *)
  order : Attribute.t list;  (** nest application order: d1, d2, key *)
  keys : string array;  (** every initial key, by generator index *)
  d1_prefix : string;
  d1_domain : int;
  d2_prefix : string;
  d2_domain : int;
}

type spec = {
  workload : workload;
  seed : int;
  tables : table list;
  ddl : string list;  (** run after the bulk load, before serving *)
}

let entity_table ~name ~relation ~entities ~d1:(d1_prefix, d1_domain)
    ~d2:(d2_prefix, d2_domain) =
  let key, d1, d2 =
    match Schema.attributes (Relation.schema relation) with
    | [ key; d1; d2 ] -> (key, d1, d2)
    | _ -> invalid_arg "Streams.entity_table: expected a degree-3 relation"
  in
  let prefix = String.lowercase_ascii (Attribute.name key) in
  {
    name;
    relation;
    key;
    order = [ d1; d2; key ];
    keys = Array.init entities (Printf.sprintf "%s%d" prefix);
    d1_prefix;
    d1_domain;
    d2_prefix;
    d2_domain;
  }

(* Domains match Workload.Scenarios, so fresh facts draw from the same
   value alphabets the bulk-loaded data uses. *)
let university ~name ~seed ~students =
  entity_table ~name
    ~relation:(Workload.Scenarios.university_entity ~seed ~students ())
    ~entities:students ~d1:("course", 30) ~d2:("club", 12)

let bibliography ~name ~seed ~papers =
  entity_table ~name
    ~relation:(Workload.Scenarios.bibliography ~seed ~papers ())
    ~entities:papers ~d1:("author", 40) ~d2:("keyword", 25)

(* Sizes. 2000 students put ~170 heap pages behind the 64-page buffer
   pool; the two transaction tables (~17 pages each) fit in theirs. *)
let oltp_students = 2000
let txn_entities = 200

let spec ?(scale = 1.0) workload ~seed =
  let size n = max 8 (int_of_float (float_of_int n *. scale)) in
  let data = data_seed in
  let tables, ddl =
    match workload with
    | Oltp_read ->
      ([ university ~name:"u" ~seed:data ~students:(size oltp_students) ], [ "analyze u" ])
    | Oltp_write ->
      ( [ university ~name:"u" ~seed:data ~students:(size oltp_students) ],
        [ "create view v as nest u by Student" ] )
    | Txn_batch ->
      ( [
          university ~name:"a" ~seed:data ~students:(size txn_entities);
          bibliography ~name:"b" ~seed:(data + 1) ~papers:(size txn_entities);
        ],
        [] )
  in
  { workload; seed; tables; ddl }

(* ------------------------------------------------------------------ *)
(* Requests                                                            *)
(* ------------------------------------------------------------------ *)

(* What a statement's reply must be. *)
type check =
  | Ack  (** an acknowledgement, no rows *)
  | Facts of Relation.t  (** rows whose expansion is exactly these facts *)
  | Each of (Schema.t -> Ntuple.t -> bool)  (** rows that all satisfy this *)

type stmt = Read | Write | Begin | Commit

type request = { sql : string; stmt : stmt; check : check }

(* One unit of closed-loop work. An autocommit write is its own
   (implicit) transaction; [Op_txn] is an explicit BEGIN .. COMMIT. *)
type kind = Op_read | Op_write | Op_txn

type op = {
  kind : kind;
  requests : request list;
  effects : (string * Trace.op) list;  (** (table, flat write), in order *)
}

let check_reply check reply =
  match (check, reply) with
  | Ack, `Msg _ -> true
  | Facts expected, `Rows (schema, ntuples) ->
    Relation.equal (Nfr.flatten (Nfr.of_ntuples schema ntuples)) expected
  | Each ok, `Rows (schema, ntuples) -> List.for_all (ok schema) ntuples
  | Ack, `Rows _ | (Facts _ | Each _), `Msg _ -> false

let quote value = "'" ^ value ^ "'"

(* ------------------------------------------------------------------ *)
(* Per-connection key space                                            *)
(* ------------------------------------------------------------------ *)

(* The live facts of the keys one connection owns, their initial fact
   counts, and its hot-key distribution: Zipf over the owned keys in a
   random order drawn from [layout]. *)
type keyspace = {
  tbl : table;
  schema : Schema.t;
  owned : string array;
  zipf : Zipf.t;
  facts : (string, (string * string) list) Hashtbl.t;
  initial : (string, int) Hashtbl.t;
}

let keyspace tbl layout ~conn =
  let schema = Relation.schema tbl.relation in
  let owned =
    Array.of_list
      (List.filteri (fun i _ -> i mod connections = conn) (Array.to_list tbl.keys))
  in
  Prng.shuffle layout owned;
  let facts = Hashtbl.create (Array.length owned) in
  let mine = Hashtbl.create (Array.length owned) in
  Array.iter (fun k -> Hashtbl.replace mine k ()) owned;
  Relation.iter
    (fun tuple ->
      match List.map Value.to_string_opt (Tuple.values tuple) with
      | [ Some k; Some d1; Some d2 ] when Hashtbl.mem mine k ->
        let prev = Option.value ~default:[] (Hashtbl.find_opt facts k) in
        Hashtbl.replace facts k ((d1, d2) :: prev)
      | _ -> ())
    tbl.relation;
  let initial = Hashtbl.create (Array.length owned) in
  Hashtbl.iter (fun k fs -> Hashtbl.replace initial k (List.length fs)) facts;
  {
    tbl;
    schema;
    owned;
    zipf = Zipf.create ~n:(Array.length owned) ~s:zipf_s;
    facts;
    initial;
  }

let hot ks rng = ks.owned.(Zipf.sample ks.zipf rng)
let facts_of ks key = Option.value ~default:[] (Hashtbl.find_opt ks.facts key)

let tuple ks key (d1, d2) =
  Tuple.make ks.schema (List.map Value.of_string [ key; d1; d2 ])

let key_facts ks key =
  Relation.of_tuples ks.schema (List.map (tuple ks key) (facts_of ks key))

let fresh_pair ks rng key =
  let live = facts_of ks key in
  let rec draw attempts =
    if attempts = 64 then None
    else
      let pair =
        ( Printf.sprintf "%s%d" ks.tbl.d1_prefix (Prng.int rng ks.tbl.d1_domain),
          Printf.sprintf "%s%d" ks.tbl.d2_prefix (Prng.int rng ks.tbl.d2_domain) )
      in
      if List.mem pair live then draw (attempts + 1) else Some pair
  in
  draw 0

let apply ks key = function
  | Trace.Insert t -> (
    match List.map Value.to_string_opt (Tuple.values t) with
    | [ _; Some d1; Some d2 ] -> Hashtbl.replace ks.facts key ((d1, d2) :: facts_of ks key)
    | _ -> assert false)
  | Trace.Delete t -> (
    match List.map Value.to_string_opt (Tuple.values t) with
    | [ _; Some d1; Some d2 ] ->
      Hashtbl.replace ks.facts key (List.filter (( <> ) (d1, d2)) (facts_of ks key))
    | _ -> assert false)

(* One flat write on a hot owned key: insert a fresh fact when the key
   holds fewer facts than it was loaded with, delete a live one when it
   holds more, and toss a coin when even. Inserts and deletes balance
   and every key's size stays put, so the state is stationary rather
   than a random walk whose drift would differ by seed. Returns the
   key, the request and its effect, already applied. *)
let write ks rng =
  let key = hot ks rng in
  let live = facts_of ks key in
  let n = List.length live in
  let target = Option.value ~default:0 (Hashtbl.find_opt ks.initial key) in
  let effect =
    if live = [] || n < target || (n = target && Prng.bool rng) then
      Option.map (fun pair -> Trace.Insert (tuple ks key pair)) (fresh_pair ks rng key)
    else Some (Trace.Delete (tuple ks key (List.nth live (Prng.int rng (List.length live)))))
  in
  match effect with
  | None -> None
  | Some effect ->
    apply ks key effect;
    Some
      ( key,
        { sql = Trace.nfql_statement ~table:ks.tbl.name effect; stmt = Write; check = Ack },
        (ks.tbl.name, effect) )

let rec write_exn ks rng =
  match write ks rng with Some w -> w | None -> write_exn ks rng

(* UPDATE one live fact's d2 to a fresh value: a delete plus an insert
   of the image in the flat model. *)
let update ks rng =
  let key = hot ks rng in
  match facts_of ks key with
  | [] -> None
  | live -> (
    let ((d1, d2) as victim) = List.nth live (Prng.int rng (List.length live)) in
    let d2' = Printf.sprintf "%s%d" ks.tbl.d2_prefix (Prng.int rng ks.tbl.d2_domain) in
    if List.mem (d1, d2') live then None
    else
      let attr i = Attribute.name (Schema.attribute_at ks.schema i) in
      let effects =
        [ Trace.Delete (tuple ks key victim); Trace.Insert (tuple ks key (d1, d2')) ]
      in
      List.iter (apply ks key) effects;
      let sql =
        Printf.sprintf "update %s set %s = %s where %s = %s and %s = %s and %s = %s"
          ks.tbl.name (attr 2) (quote d2') (attr 0) (quote key) (attr 1) (quote d1)
          (attr 2) (quote d2)
      in
      Some
        { kind = Op_write;
          requests = [ { sql; stmt = Write; check = Ack } ];
          effects = List.map (fun e -> (ks.tbl.name, e)) effects })

let point_read ks key =
  {
    sql =
      Printf.sprintf "select * from %s where %s = %s" ks.tbl.name
        (Attribute.name ks.tbl.key) (quote key);
    stmt = Read;
    check = Facts (key_facts ks key);
  }

let read_op request = { kind = Op_read; requests = [ request ]; effects = [] }

let write_op (_, request, effect) =
  { kind = Op_write; requests = [ request ]; effects = [ effect ] }

(* ------------------------------------------------------------------ *)
(* Streams                                                             *)
(* ------------------------------------------------------------------ *)

let component schema nt name =
  Ntuple.field schema nt (Attribute.make name)

(* A narrow B+-tree range: four consecutive keys in value order, the
   window's start Zipf-hot. Only the bounds can be checked, since the
   window spans both connections' keys. *)
let range_width = 4

let range_read tbl sorted start =
  let lo = sorted.(start) and hi = sorted.(start + range_width - 1) in
  let key = Attribute.name tbl.key in
  let within schema nt =
    List.for_all
      (fun v -> Value.compare v lo >= 0 && Value.compare v hi <= 0)
      (Vset.elements (component schema nt key))
  in
  {
    sql =
      Printf.sprintf "select * from %s where %s >= %s and %s <= %s" tbl.name key
        (quote (Value.to_string lo)) key (quote (Value.to_string hi));
    stmt = Read;
    check = Each within;
  }

(* CONTAINS on both set-valued attributes, each value Zipf-hot. *)
let contains_read tbl zipf1 zipf2 rng =
  let schema = Relation.schema tbl.relation in
  let name i = Attribute.name (Schema.attribute_at schema i) in
  let v1 = Printf.sprintf "%s%d" tbl.d1_prefix (Zipf.sample zipf1 rng) in
  let v2 = Printf.sprintf "%s%d" tbl.d2_prefix (Zipf.sample zipf2 rng) in
  let holds schema nt =
    Vset.mem (Value.of_string v1) (component schema nt (name 1))
    && Vset.mem (Value.of_string v2) (component schema nt (name 2))
  in
  {
    sql =
      Printf.sprintf "select * from %s where %s contains %s and %s contains %s"
        tbl.name (name 1) (quote v1) (name 2) (quote v2);
    stmt = Read;
    check = Each holds;
  }

(* Statements per transaction: half on each table, one read of the
   transaction's own writes, framed by BEGIN and COMMIT. *)
let txn_dml = 16

(* [stream spec ~conn] is connection [conn]'s infinite op generator.
   Equal (spec seed, conn) give equal streams. The hot-key order comes
   from [data_seed], the draws from the spec's seed. *)
let stream spec ~conn =
  let layout = Prng.create ((data_seed * 7919) + conn + 1) in
  let rng = Prng.create ((spec.seed * 7919) + conn + 1) in
  let spaces = List.map (fun tbl -> keyspace tbl layout ~conn) spec.tables in
  let ks = List.hd spaces in
  let rec retry gen = match gen () with Some op -> op | None -> retry gen in
  match spec.workload with
  | Oltp_read ->
    let tbl = ks.tbl in
    let sorted = Array.map Value.of_string tbl.keys in
    Array.sort Value.compare sorted;
    let starts = Array.init (Array.length sorted - range_width + 1) Fun.id in
    Prng.shuffle layout starts;
    let range_zipf = Zipf.create ~n:(Array.length starts) ~s:zipf_s in
    let zipf1 = Zipf.create ~n:tbl.d1_domain ~s:zipf_s in
    let zipf2 = Zipf.create ~n:tbl.d2_domain ~s:zipf_s in
    fun () ->
      let r = Prng.float rng in
      if r < 0.10 then write_op (write_exn ks rng)
      else if r < 0.60 then read_op (point_read ks (hot ks rng))
      else if r < 0.80 then
        read_op (range_read tbl sorted starts.(Zipf.sample range_zipf rng))
      else read_op (contains_read tbl zipf1 zipf2 rng)
  | Oltp_write ->
    fun () ->
      let r = Prng.float rng in
      if r < 0.60 then write_op (write_exn ks rng)
      else if r < 0.90 then retry (fun () -> update ks rng)
      else read_op (point_read ks (hot ks rng))
  | Txn_batch ->
    let ka, kb =
      match spaces with [ a; b ] -> (a, b) | _ -> invalid_arg "txn_batch: two tables"
    in
    fun () ->
      let writes =
        List.init txn_dml (fun i -> write_exn (if i mod 2 = 0 then ka else kb) rng)
      in
      (* The read checks the last key this transaction wrote in [a]. *)
      let last_a, _, _ = List.nth writes (txn_dml - 2) in
      let ack sql stmt = { sql; stmt; check = Ack } in
      {
        kind = Op_txn;
        requests =
          (ack "begin" Begin :: List.map (fun (_, r, _) -> r) writes)
          @ [ point_read ka last_a; ack "commit" Commit ];
        effects = List.map (fun (_, _, e) -> e) writes;
      }
