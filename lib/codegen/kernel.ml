(* GPU kernel intermediate form: one TCR statement lowered under a search
   point (thread/block decomposition + unroll factors), the common output of
   the CUDA-CHiLL-style transformations.

   [lower] builds every kernel the pipeline runs. The CUDA printer, the
   simulator's timing model and Exec's interpreter (behind both float
   execution and translation validation) consume this exact structure, so
   the code we "time" and prove is the code we emit. *)

type loop = {
  index : string;
  extent : int;
  unroll : int;       (* 1 = no unrolling *)
  parallel : bool;    (* output (parallel) index, vs. reduction *)
}

type t = {
  name : string;
  op : Tcr.Ir.op;
  extents : (string * int) list;
  decomp : Tcr.Space.decomposition;
  grid : int * int;          (* blocks in x, y *)
  block : int * int;         (* threads in x, y *)
  thread_loops : loop list;  (* serial loops inside a thread, outermost first *)
  scalar_replaced : bool;    (* output accumulated in a register *)
  arrays : (string * string list) list;  (* every array referenced, with dims *)
}

let extent k i =
  match List.assoc_opt i k.extents with
  | Some e -> e
  | None -> invalid_arg (Printf.sprintf "Kernel.extent: unknown index %s" i)

(* Indices handled by the hardware decomposition. *)
let mapped_indices k =
  let d = k.decomp in
  d.tx :: d.bx :: (Option.to_list d.ty @ Option.to_list d.by)

let serial_indices k = List.map (fun l -> l.index) k.thread_loops

let reduction_loops k = List.filter (fun l -> not l.parallel) k.thread_loops

(* Iterations of the serial loop nest executed by each thread. *)
let serial_iterations k =
  List.fold_left (fun acc l -> acc * l.extent) 1 k.thread_loops

let threads_per_block k = fst k.block * snd k.block
let num_blocks k = fst k.grid * snd k.grid
let total_threads k = threads_per_block k * num_blocks k

(* Flops executed by the kernel: per innermost point, one multiply per extra
   factor and one accumulate add. *)
let flops k =
  total_threads k * serial_iterations k * List.length k.op.factors

(* ------------------------------------------------------------------ *)
(* Lowering *)

(* Lower [op] of [ir] under [point]. Serial loops are ordered with the
   unmapped parallel loops outermost (each computes a distinct output
   element) and reduction loops innermost, both following the op's loop
   order; unroll factors attach to their loops. [scalar_replace] (on by
   default, as in Section IV) accumulates the output in a register; turning
   it off exists for the ablation study. *)
let lower ?(scalar_replace = true) ~name (ir : Tcr.Ir.t) (op : Tcr.Ir.op)
    (point : Tcr.Space.point) =
  let d = point.decomp in
  let mapped = d.tx :: d.bx :: (Option.to_list d.ty @ Option.to_list d.by) in
  List.iter
    (fun i ->
      if not (List.mem i op.out_indices) then
        invalid_arg
          (Printf.sprintf "Kernel.lower: decomposition index %s is not parallel" i))
    mapped;
  let ext i = Tcr.Ir.extent ir i in
  (* the serial schedule (unmapped parallel loops outermost, reduction
     loops innermost, permuted by the point's red_order) is shared with
     the recipe-stage semantic evaluator via Space.serial_schedule *)
  let parallel_serial, reductions = Tcr.Space.serial_schedule op point in
  let order = parallel_serial @ reductions in
  let thread_loops =
    List.map
      (fun i ->
        {
          index = i;
          extent = ext i;
          unroll = (match List.assoc_opt i point.unrolls with Some u -> max 1 u | None -> 1);
          parallel = List.mem i op.out_indices;
        })
      order
  in
  let arrays =
    let refs = (op.out, op.out_indices) :: op.factors in
    List.fold_left
      (fun acc (name, dims) -> if List.mem_assoc name acc then acc else acc @ [ (name, dims) ])
      [] refs
  in
  {
    name;
    op;
    extents = ir.extents;
    decomp = d;
    grid = (ext d.bx, match d.by with None -> 1 | Some i -> ext i);
    block = (ext d.tx, match d.ty with None -> 1 | Some i -> ext i);
    thread_loops;
    scalar_replaced = scalar_replace;
    arrays;
  }

(* Lower every op of a program under per-op points. Kernels are named
   <label>_GPU_<n> as in Figure 2(d). *)
let lower_program ?scalar_replace (ir : Tcr.Ir.t) (points : Tcr.Space.point list) =
  if List.length points <> List.length ir.ops then
    invalid_arg "Kernel.lower_program: one point per op required";
  Obs.Trace.with_span ~cat:"codegen"
    ~attrs:(fun () ->
      [ ("label", ir.label); ("kernels", string_of_int (List.length ir.ops)) ])
    "codegen.lower"
  @@ fun _ ->
  List.mapi
    (fun i (op, point) ->
      lower ?scalar_replace ~name:(Printf.sprintf "%s_GPU_%d" ir.label (i + 1)) ir op point)
    (List.combine ir.ops points)
