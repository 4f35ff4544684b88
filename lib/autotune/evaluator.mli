(** Empirical evaluation of one code variant on the simulated device, plus
    a model of what one evaluation costs the search
    (Section V quotes ~4 s per variant: compilation, then timed repetitions
    on the board, bounded by an Orio-style per-variant timeout). *)

type t = {
  arch : Gpusim.Arch.t;
  reps : int;  (** timed repetitions per evaluation *)
  mutable search_seconds : float;
      (** modeled empirical search cost, charged once per measurement *)
}

val create : ?reps:int -> Gpusim.Arch.t -> t

(** [variant_ids], the candidate's OCTOPI variant per statement, names
    the evaluation in the roofline profiler ({!Provenance.variant_name});
    the tuner always passes them. They are optional only so that callers
    which never profile, such as the end-to-end benchmark's mirror of the
    tuner, keep compiling unchanged; without them a profile sample
    carries the IR label. *)
val measure :
  ?variant_ids:int list -> t -> Tcr.Ir.t -> Tcr.Space.point list -> Gpusim.Gpu.report

(** The search objective: simulated kernel time of one evaluation
    (transfers are variant-independent and excluded). *)
val objective : ?variant_ids:int list -> t -> Tcr.Ir.t -> Tcr.Space.point list -> float

(** {!objective} over a batch of (variant ids, program, points) items:
    each becomes a pure thunk (safe to run in parallel domains) passed to
    [map], whose results must come back in input order. Results and cost
    accounting are bit-identical to calling {!objective} on each item. *)
val objective_batch :
  t ->
  map:((unit -> Gpusim.Gpu.report) list -> Gpusim.Gpu.report list) ->
  (int list * Tcr.Ir.t * Tcr.Space.point list) list ->
  float list
