(** Layer 3 of the static verifier: resource analysis of an emitted kernel
    against a target architecture.

    Errors: a maximum linearized offset reaching past an array's allocated
    elements - the symbolic out-of-bounds proof (BAR030), register demand
    overflowing one SM's register file (BAR031), a block over the device's
    thread limit (BAR032), grid dimensions over the device's launch limits
    (BAR033) and non-positive launch dimensions (BAR034). The lint pass
    delegates to {!Access}: the exact BAR07x facts supersede the old
    heuristic BAR040-043 lints. *)

(** Errors always; [~lints:false] skips the warning-level analyses (the
    tuner's gate only needs the errors). *)
val check : ?lints:bool -> Gpusim.Arch.t -> Codegen.Kernel.t -> Diag.t list
