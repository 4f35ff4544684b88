(** Layer 2 of the static verifier: legality of one search point for one
    TCR statement, before any kernel is lowered or measured.

    Errors: a reduction index mapped to a thread/block dimension - a
    reduction race (BAR020), the same index assigned to two decomposition
    slots (BAR021), a decomposition or unroll naming an index the
    statement does not iterate (BAR022), a block over the space's thread
    budget (BAR023), a reduction order that is not a permutation of the
    reduction loops (BAR024), an unroll factor that is non-positive or
    exceeds its loop's extent (BAR025). Lints: unrolling a mapped loop
    (BAR026, warning), non-dividing unroll factors (BAR027, info). *)

(** Every finding for one point, in a fixed order: decomposition (BAR022,
    BAR020, BAR021), threads, reduction order, then unrolls in the point's
    order. [~lints:false] (default [true]) computes errors only: no BAR026
    warning and no BAR027 info, so the result is exactly the error subset
    of the lints-on result. The tuner's gate runs this on every draw; a
    clean point formats nothing. *)
val check : ?lints:bool -> Tcr.Space.t -> Tcr.Space.point -> Diag.t list
