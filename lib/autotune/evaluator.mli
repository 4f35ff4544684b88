(** Empirical evaluation of one code variant on the simulated device, with
    memoization, plus a model of what one evaluation costs the search
    (Section V quotes ~4 s per variant: compilation, then timed repetitions
    on the board, bounded by an Orio-style per-variant timeout). *)

type t = {
  arch : Gpusim.Arch.t;
  reps : int;  (** timed repetitions per evaluation *)
  cache : (string, Gpusim.Gpu.report) Hashtbl.t;
  mutable evaluations : int;  (** cache misses = real evaluations *)
  mutable search_seconds : float;  (** modeled empirical search cost *)
}

val create : ?reps:int -> Gpusim.Arch.t -> t

(** Memoization key of a (program, points) pair. *)
val key : Tcr.Ir.t -> Tcr.Space.point list -> string

val measure : t -> Tcr.Ir.t -> Tcr.Space.point list -> Gpusim.Gpu.report

(** The search objective: simulated kernel time of one evaluation
    (transfers are variant-independent and excluded). *)
val objective : t -> Tcr.Ir.t -> Tcr.Space.point list -> float

(** {!objective} over a batch: memoized pairs come from the cache, the
    rest become pure thunks (safe to run in parallel domains) passed to
    [map], whose results must come back in input order. Results and cost
    accounting are bit-identical to calling {!objective} on each item. *)
val objective_batch :
  t ->
  map:((unit -> Gpusim.Gpu.report) list -> Gpusim.Gpu.report list) ->
  (Tcr.Ir.t * Tcr.Space.point list) list ->
  float list
