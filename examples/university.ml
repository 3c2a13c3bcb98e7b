(* The paper's Sec. 2 story, end to end: the entity relation R1 and the
   relationship relation R2 of Fig. 1, the deletion of (s1, c1, -),
   and the Fig. 2 results — driven both through the core API and
   through NFQL.

     dune exec examples/university.exe
*)

open Relational
open Nfr_core

let attr = Attribute.make

let sc_schema = Schema.strings [ "Student"; "Course"; "Club" ]
let st_schema = Schema.strings [ "Student"; "Course"; "Semester" ]

let r1 =
  Nfr.of_ntuples sc_schema
    [
      Ntuple.of_strings sc_schema [ [ "s1" ]; [ "c1"; "c2"; "c3" ]; [ "b1" ] ];
      Ntuple.of_strings sc_schema [ [ "s2" ]; [ "c1"; "c2"; "c3" ]; [ "b2" ] ];
      Ntuple.of_strings sc_schema [ [ "s3" ]; [ "c1"; "c2"; "c3" ]; [ "b1" ] ];
    ]

let r2 =
  Nfr.of_ntuples st_schema
    [
      Ntuple.of_strings st_schema [ [ "s1"; "s2"; "s3" ]; [ "c1"; "c2" ]; [ "t1" ] ];
      Ntuple.of_strings st_schema [ [ "s1"; "s3" ]; [ "c3" ]; [ "t1" ] ];
      Ntuple.of_strings st_schema [ [ "s2" ]; [ "c3" ]; [ "t2" ] ];
    ]

let () =
  Format.printf "Fig. 1 — R1 (entity relation; MVD Student ->-> Course | Club):@.%a@.@."
    Nfr.pp_table r1;
  Format.printf "Fig. 1 — R2 (relationship relation; no MVD):@.%a@.@." Nfr.pp_table r2;

  (* Verify the dependency structure the paper points out. *)
  let open Dependency in
  let mvd = Mvd.of_names [ "Student" ] [ "Course" ] in
  Format.printf "Student ->-> Course | Club holds in R1*: %b@."
    (Mvd.satisfied_by (Nfr.flatten r1) mvd);
  Format.printf "Student ->-> Course | Semester holds in R2*: %b@.@."
    (Mvd.satisfied_by (Nfr.flatten r2) mvd);

  (* Student s1 stops taking course c1. In R1 that is one value
     removed from one component. *)
  let r1_flat = Relation.remove (Nfr.flatten r1)
      (Tuple.make sc_schema
         [ Value.of_string "s1"; Value.of_string "c1"; Value.of_string "b1" ])
  in
  let r1_after = Nest.nest (Nfr.of_relation r1_flat) (attr "Course") in
  Format.printf "Fig. 2 — R1 after s1 drops c1 (one value removed):@.%a@.@."
    Nfr.pp_table r1_after;

  (* In R2 the paper splits the first tuple and re-adds two pieces;
     the Sec. 4 deletion algorithm does it while keeping the relation
     canonical for order (Student, Course, Semester). *)
  let order = [ attr "Student"; attr "Course"; attr "Semester" ] in
  let stats = Update.fresh_stats () in
  let r2_after =
    Update.delete ~stats ~order r2
      (Tuple.make st_schema
         [ Value.of_string "s1"; Value.of_string "c1"; Value.of_string "t1" ])
  in
  Format.printf
    "Fig. 2 — R2 after deleting (s1, c1, t1) via the Sec. 4 algorithm@.\
     (%d compositions, %d decompositions):@.%a@.@."
    stats.Update.compositions stats.Update.decompositions Nfr.pp_table r2_after;

  (* The same flow through NFQL. *)
  let db = Nfql.Physical.create () in
  ignore
    (Nfql.Physical.exec_string db
       "create table sc (Student string, Course string, Semester string);\n\
        insert into sc values ('s1','c1','t1'),('s2','c1','t1'),('s3','c1','t1'),\n\
        ('s1','c2','t1'),('s2','c2','t1'),('s3','c2','t1'),\n\
        ('s1','c3','t1'),('s3','c3','t1'),('s2','c3','t2');\n\
        delete from sc values ('s1','c1','t1');");
  (match Nfql.Physical.exec_string db "show sc" with
  | [ (Nfql.Eval.Rows rows, _) ] ->
    Format.printf "The same deletion through NFQL:@.%a@.@." Nfr.pp_table rows;
    assert (Nfr.equal rows r2_after)
  | _ -> assert false);

  (* Who takes course c3? Tuple-level containment query. *)
  (match
     Nfql.Physical.exec_string db "select * from sc where Course CONTAINS 'c3'"
   with
  | [ (Nfql.Eval.Rows rows, _) ] ->
    Format.printf "NFQL: select * from sc where Course CONTAINS 'c3':@.%a@."
      Nfr.pp_table rows
  | _ -> assert false)
