(** Interpreter for the kernel IR. {!walk} visits the points of the
    structure the CUDA emitter prints - including the scalar-replaced
    output - with the arithmetic left to its caller. {!run_kernel} is its
    float instance, checked by the test-suite against the einsum oracle;
    [Check.Semantic]'s kernel stage is its prime-field instance, so
    translation validation proves the interpreter that [Barracuda.run]
    executes. *)

type env = (string * Tensor.Dense.t) list

(** A kernel addressed an array outside its allocation. The message reads
    ["kernel K accesses T at linear offset O outside its N elements"]. *)
exception Out_of_bounds of string

(** The one walk over a kernel's iteration space: grid x block x parallel
    loops around each output element, then each reduction loop's points
    in order, which is the order the printed main loop and epilogue visit
    them (whether the printed unrolled text computes those points is a
    check of the CUDA itself, not of the walker). Every address comes from
    the kernel's {!Kernel.access} map, row-major over its own extents
    table, and is checked against [elements name], the allocated size of
    array [name]; an offset outside it raises {!Out_of_bounds}, and a
    missing extent or an index no level binds raises [Invalid_argument]
    (see {!Kernel.access}).

    [output off reduce] runs once per output element with the output's
    offset and must call [reduce] to run that element's reductions.
    [reduce] hands the element's points to [run offs steps len] in runs:
    point [t] of a run, for [t] from 0 to [len - 1] in order, reads factor
    [f] (in [k.op.factors] order) at [offs.(f) + t * steps.(f)]. The
    innermost reduction loop is one run of its extent; an element without
    reduction loops is one run of one point. Both arrays are the walker's
    own, kept from one run to the next: read them, never write them.

    A run is checked at its two ends (offsets are affine along it). When
    an end is out of bounds, [run] first gets the in-bounds prefix, if
    any, and the first failing point then raises {!Out_of_bounds} naming
    its first failing factor: the points run and the message are those of
    a check at every point. *)
val walk :
  Kernel.t ->
  elements:(string -> int) ->
  output:(int -> (unit -> unit) -> unit) ->
  run:(int array -> int array -> int -> unit) ->
  unit

(** Execute one kernel over its grid, accumulating into the output (which
    the generated CUDA also loads before accumulating). Raises
    [Invalid_argument] on unbound tensors or shape mismatches, and
    {!Out_of_bounds} on an access outside an array. *)
val run_kernel : Kernel.t -> env -> unit

(** Extend an input environment with zeroed temporaries and outputs. *)
val allocate_produced : Tcr.Ir.t -> env -> env

(** Lower each statement under its point and execute the kernels in order
    (data stays "device-resident" in the environment). Returns the extended
    environment; outputs are found under their names. *)
val run_program : ?scalar_replace:bool -> Tcr.Ir.t -> Tcr.Space.point list -> env -> env

(** Reference evaluation with the einsum oracle, accumulating when several
    statements target the same tensor. *)
val run_reference : Tcr.Ir.t -> env -> env
