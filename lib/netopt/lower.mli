(** Lowering a contraction tree into the existing pipeline: one OCTOPI
    statement per {!Tree.steps} step with fresh intermediate names, all
    extents explicit, output statement last. The emitted program is
    exactly what the cost model scored, and flows through variants -> TCR
    -> recipe -> SURF -> codegen unchanged. *)

(** The lowered program as DSL text - feed to
    {!Autotune.Tuner.benchmark_of_dsl}. [output_name] names the final
    statement's tensor; a [Leaf] tree emits one (possibly summing) copy
    statement. *)
val to_dsl : ?output_name:string -> Network.t -> Tree.t -> string

(** Contraction-order provenance for the tuning flight recorder:
    [meth] is the optimizer name ("greedy"/"treesa"). *)
val provenance :
  meth:string -> ?score:Tree.score_fn -> Network.t -> Tree.t -> Obs.Journal.network
