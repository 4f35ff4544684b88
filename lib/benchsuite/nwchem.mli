(** The NWChem CCSD(T) loop-driven kernel excerpts (the
    nwchem-tce-triples-kernels of Table I): nine index-permutation variants
    each of three contraction forms writing the rank-6 triples tensor t3,
    trip count 16 per dimension.

    {v
s1: t3(h3,h2,h1,p6,p5,p4) += t1(p?,h?) * v2(h?,h?,p?,p?)    (outer product)
d1: t3(h3,h2,h1,p6,p5,p4) += t2(h7,p?,p?,h?) * v2(h?,h?,p?,h7)
d2: t3(h3,h2,h1,p6,p5,p4) += t2(p7,p?,h?,h?) * v2(p7,h?,p?,p?)
    v} *)

type family = S1 | D1 | D2

val family_name : family -> string

(** The nine (t1/t2 indices, v2 indices) signatures of a family. *)
val signatures : family -> (string list * string list) list

(** DSL text of kernel [index] (1..9) at trip count [n]. *)
val dsl : family -> index:int -> n:int -> string

(** e.g. ["d1_3"]. *)
val kernel_label : family -> int -> string

val benchmark : ?n:int -> family -> index:int -> Autotune.Tuner.benchmark

(** All nine kernels of a family. *)
val benchmarks : ?n:int -> family -> Autotune.Tuner.benchmark list

val families : family list
