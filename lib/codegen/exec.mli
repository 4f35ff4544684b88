(** Interpreter for the kernel IR. {!plan} compiles a kernel's access map
    once into a loop plan over the structure the CUDA emitter prints -
    including the scalar-replaced output - and proves it inside the
    caller's allocation; the arithmetic is its caller's. {!run_kernel} is
    its float instance, checked by the test-suite against the einsum
    oracle; [Check.Semantic]'s kernel stage is its prime-field instance,
    so translation validation proves the interpreter that [Barracuda.run]
    executes. *)

type env = (string * Tensor.Dense.t) list

(** A kernel addressed an array outside its allocation. The message reads
    ["kernel K accesses T at linear offset O outside its N elements"]. *)
exception Out_of_bounds of string

(** A kernel's loop plan: an odometer over [extents], outermost first -
    by, bx, ty and tx, the parallel loops, then every reduction loop but
    the innermost - and at each of its positions one run over the
    innermost reduction loop, in the order the printed main loop and
    epilogue visit its points (whether the printed unrolled text computes
    those points is a check of the CUDA itself, not of the plan). A run
    has [run] points: the innermost reduction loop's extent, 1 without a
    reduction loop, and 0 when a reduction loop's extent is 0 or less
    (the odometer then keeps only the element levels). The first
    [element_levels] levels choose the output element, so each element's
    runs are consecutive.

    Every offset starts at 0. Stepping level [l] moves the output's
    offset by [out_deltas.(l)] and factor [f]'s (in [k.op.factors] order)
    by [deltas.(l).(f)], and point [t] of a run reads factor [f] at its
    offset plus [t * steps.(f)]. The strides behind them are the
    {!Kernel.access} map's, row-major over the kernel's own extents
    table. A slot that two levels bind carries its stride on the inner
    one, so the last write wins, as in the printed code (tx = bx), and the
    output's offset is its element's: no reduction loop moves it. *)
type plan = {
  extents : int array;
  element_levels : int;
  out_deltas : int array;
  deltas : int array array;
  run : int;
  steps : int array;
}

(** Compile [k]'s plan and prove its box: each reference's smallest and
    largest offset over the levels that move it, from the plan's own
    extents and strides, must lie in [\[0, elements name)], where
    [elements name] is the allocated size of array [name]. A proven plan
    runs with no further check. Otherwise [plan] raises {!Out_of_bounds}
    before any arithmetic, naming the first failing point in visit order
    (an element's output before its factors, and at a point its first
    failing factor): the message of a check at every point. A missing
    extent or an index no level binds raises [Invalid_argument] (see
    {!Kernel.access}). *)
val plan : Kernel.t -> elements:(string -> int) -> plan

(** A position of the plan's odometer: its [index] per level, the output
    offset [out] and the factors' [offsets] at the current run's first
    point, and [level], the level that stepped last: 0 at the start, and
    -1 once the walk is over (at once when a level of extent 0 or less
    leaves it nothing to visit). *)
type cursor = { index : int array; mutable level : int; mutable out : int; offsets : int array }

val start : plan -> cursor

(** Step to the next run: the innermost level short of its last value
    advances and every level inside it wraps to 0. A new element begins
    when [c.level] falls below [element_levels]. Both instances, and any
    trace of the plan, walk it as:
    {[
      let c = start p in
      while c.level >= 0 do
        (* an element begins at output offset c.out *)
        let element = ref true in
        while !element do
          (* a run of p.run points from c.offsets *)
          step p c;
          element := c.level >= p.element_levels
        done
        (* the element ends *)
      done
    ]} *)
val step : plan -> cursor -> unit

(** Execute one kernel over its grid, accumulating into the output (which
    the generated CUDA also loads before accumulating). Each element keeps
    a private accumulator - loaded from the output when scalar-replaced,
    else started at 0 and added to the stored value at the end - and is
    stored once; each product starts from 1.0 and takes the factors in
    order, and the points accumulate in order. Raises [Invalid_argument]
    on unbound tensors or shape mismatches, and {!Out_of_bounds} from
    {!plan}, before anything is written. *)
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
