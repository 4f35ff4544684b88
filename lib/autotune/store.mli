(** Persistence of tuning results (the paper's Section VIII integration
    goal): the winning configuration is saved as a small text artifact -
    label, architecture, chosen variants and the concrete Figure 2(c)
    recipe - and reloaded later to re-emit identical CUDA without
    re-running the search. *)

exception Error of string

type saved = {
  label : string;
  arch_name : string;
  variant_ids : int list;
  gflops : float;
  recipe : string;
}

val of_result : Tuner.result -> saved
val render : saved -> string

(** [render (of_result r)]. *)
val save : Tuner.result -> string

val save_file : string -> Tuner.result -> unit

(** Raises {!Error} on malformed artifacts. *)
val parse : string -> saved

(** Reconstruct the tuned program (merged IR + per-kernel points) from a
    benchmark definition. Raises {!Error} on label or variant mismatch. *)
val restore : Tuner.benchmark -> saved -> Tcr.Ir.t * Tcr.Space.point list

(** Rebuild a full {!Tuner.result} from an artifact, re-measuring only the
    winning candidate (search fields are zeroed: nothing was searched).
    The cache-hit fast path of the tuning service. *)
val restore_result :
  ?reps:int -> arch:Gpusim.Arch.t -> Tuner.benchmark -> saved -> Tuner.result
