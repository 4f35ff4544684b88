(** Interpreter for the kernel IR. {!walk} executes the same structure the
    CUDA emitter prints - including the unrolled main loop plus epilogue
    and the scalar-replaced output - with the arithmetic left to its
    caller. {!run_kernel} is its float instance, checked by the test-suite
    against the einsum oracle; [Check.Semantic]'s kernel stage is its
    prime-field instance, so translation validation proves the interpreter
    that [Barracuda.run] executes. *)

type env = (string * Tensor.Dense.t) list

(** A kernel addressed an array outside its allocation. The message reads
    ["kernel K accesses T at linear offset O outside its N elements"]. *)
exception Out_of_bounds of string

(** The one walk over a kernel's iteration space: grid x block x parallel
    loops around each output element, reduction loops as an unrolled main
    loop plus epilogue. Slots hold the decomposition indices first, then
    the thread loops. Every address is row-major over the kernel's own
    extents table and checked against [elements name], the allocated size
    of array [name]; an offset outside it raises {!Out_of_bounds}, and a
    missing extent or slot raises [Invalid_argument].

    [output off reduce] runs once per output element with the output's
    offset and must call [reduce] to run that element's reductions.
    [point offs] runs at each innermost point with the factors' offsets in
    [k.op.factors] order. The buffer is the walker's running offsets, kept
    from one point to the next: read it, never write it. *)
val walk :
  Kernel.t ->
  elements:(string -> int) ->
  output:(int -> (unit -> unit) -> unit) ->
  point:(int array -> unit) ->
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
