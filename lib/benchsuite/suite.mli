(** The tensor-contraction computations of Table I, written in the OCTOPI
    DSL. Sizes are parameterized so tests validate kernels functionally at
    small extents while the benchmark harness evaluates the performance
    model at the paper's sizes. *)

(** Eqn.(1), the 3-d spectral-element contraction of Figure 2(a); [n] is
    every index extent (default 10). *)
val eqn1 : ?n:int -> unit -> Autotune.Tuner.benchmark

(** local_grad3 from Nekbone: the field gradient on [elems] spectral
    elements of polynomial order [p] (paper: 12), three contractions
    sharing the field u. *)
val lg3 : ?p:int -> ?elems:int -> unit -> Autotune.Tuner.benchmark

(** local_grad3t: the transposed gradient, three contractions accumulating
    into one output field. *)
val lg3t : ?p:int -> ?elems:int -> unit -> Autotune.Tuner.benchmark

(** The TCE example tensor (Baumgartner et al.): S = A*B*C*D over ten
    indices; strength reduction turns the O(n^10) nest into binary
    contractions. *)
val tce_ex : ?n:int -> unit -> Autotune.Tuner.benchmark

(** The four Table II benchmarks. *)
val all_individual :
  ?n:int -> ?p:int -> ?elems:int -> unit -> Autotune.Tuner.benchmark list
