open Relational
open Nfr_core

type attr_stats = {
  a_attr : Attribute.t;
  a_class : Classify.cardinality;
  a_distinct : int;
  a_mean_posting : float;
  a_max_posting : int;
  a_fixed : bool;
}

type t = {
  s_rows : int;
  s_facts : int;
  s_attrs : attr_stats list;
}

let collect nfr =
  {
    s_rows = Nfr.cardinality nfr;
    s_facts = Nfr.expansion_size nfr;
    s_attrs =
      List.map
        (fun attribute ->
          let p = Classify.profile nfr attribute in
          {
            a_attr = attribute;
            a_class = p.Classify.p_class;
            a_distinct = p.Classify.p_distinct;
            a_mean_posting = p.Classify.p_mean_group;
            a_max_posting = p.Classify.p_max_group;
            a_fixed = p.Classify.p_fixed;
          })
        (Schema.attributes (Nfr.schema nfr));
  }

let find stats attribute =
  List.find_opt (fun a -> Attribute.equal a.a_attr attribute) stats.s_attrs

(* ANALYZE returns exactly this text, so the differential suite can
   compare it verbatim with the summary of the reference relation. *)
let summary name stats =
  let buffer = Buffer.create 256 in
  Buffer.add_string buffer
    (Printf.sprintf "analyzed %s: %d NFR tuple(s), %d fact(s)" name stats.s_rows
       stats.s_facts);
  List.iter
    (fun a ->
      Buffer.add_string buffer
        (Printf.sprintf
           "\n  %s: class %s, %d distinct value(s), postings mean %.2f max %d%s"
           (Attribute.name a.a_attr)
           (Classify.cardinality_name a.a_class)
           a.a_distinct a.a_mean_posting a.a_max_posting
           (if a.a_fixed then ", fixed" else "")))
    stats.s_attrs;
  Buffer.contents buffer
