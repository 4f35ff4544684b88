(* GPU kernel intermediate form: one TCR statement lowered under a search
   point (thread/block decomposition + unroll factors), the common output of
   the CUDA-CHiLL-style transformations.

   [lower] builds every kernel the pipeline runs. The CUDA printer, the
   simulator's timing model, the bounds proof and Exec's interpreter
   (behind both float execution and translation validation) consume this
   exact structure and read its addresses from one [access] map, so the
   code we "time" and prove is the code we emit. *)

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

let rec extent_in i = function
  | [] -> raise Not_found
  | (j, e) :: rest -> if String.equal i j then e else extent_in i rest

let extent k i =
  try extent_in i k.extents
  with Not_found -> invalid_arg (Printf.sprintf "kernel %s has no extent for index %s" k.name i)

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
(* The access map: the one definition of a kernel's addresses. *)

let rec loop_range i r = function
  | [] -> r
  | l :: rest -> loop_range i (if String.equal l.index i then Int.max r l.extent else r) rest

let drives level i = match level with Some j -> String.equal j i | None -> false

(* The largest extent any level drives [i] through, at least 1;
   allocation-free, for the gate's bounds proof. *)
let range k i =
  let d = k.decomp in
  let r = if String.equal d.tx i then Int.max 1 (fst k.block) else 1 in
  let r = if drives d.ty i then Int.max r (snd k.block) else r in
  let r = if String.equal d.bx i then Int.max r (fst k.grid) else r in
  let r = if drives d.by i then Int.max r (snd k.grid) else r in
  loop_range i r k.thread_loops

type slot = { index : string; var : string; range : int }
type reference = { name : string; dims : string list; terms : (int * int) list; elements : int }
type access = { slots : slot array; out : reference; factors : reference list }

let rec find_slot slots i s =
  if s = Array.length slots then raise Not_found
  else if String.equal slots.(s).index i then s
  else find_slot slots i (s + 1)

let slot a i = find_slot a.slots i 0

let rec bound_in i = function [] -> false | s :: rest -> String.equal s.index i || bound_in i rest

(* Product of the extents of [dims], checked in order. *)
let rec elements k = function [] -> 1 | i :: inner -> let e = extent k i in e * elements k inner

(* Slots in first-binding order - tx, ty, bx, by, then the thread loops -
   so each is named after its first binding. References are built output
   first, each one's extents before its bindings. The gate never builds
   the map, but gpusim builds one per kernel report, so nothing here
   allocates beyond the map itself. *)
let access k =
  let d = k.decomp in
  let bind var i slots =
    if bound_in i slots then slots else { index = i; var; range = range k i } :: slots
  in
  let bind_opt var i slots = match i with Some i -> bind var i slots | None -> slots in
  let slots = bind_opt "by" d.by (bind "bx" d.bx (bind_opt "ty" d.ty (bind "tx" d.tx []))) in
  let slots = List.fold_left (fun slots (l : loop) -> bind l.index l.index slots) slots k.thread_loops in
  let slots = Array.of_list (List.rev slots) in
  (* row-major: a dimension's stride is the product of the extents inside it *)
  let rec terms = function
    | [] -> []
    | i :: inner ->
      let s =
        try find_slot slots i 0
        with Not_found -> invalid_arg (Printf.sprintf "kernel %s: index %s has no slot" k.name i)
      in
      (s, elements k inner) :: terms inner
  in
  let reference (name, dims) =
    let elements = elements k dims in
    { name; dims; terms = terms dims; elements }
  in
  let out = reference (k.op.out, k.op.out_indices) in
  { slots; out; factors = List.map reference k.op.factors }

type bound = Within | Past of int * int | No_extent of string list

(* Horner's rule over the dims, outermost first, gives the largest offset
   [sum_d stride_d * (range_d - 1)] alongside the element count without
   materializing strides or extents. *)
let rec horner k dims size offset = function
  | i :: inner -> (
    match extent_in i k.extents with
    | e -> horner k dims (size * e) ((offset * e) + range k i - 1) inner
    | exception Not_found ->
      No_extent (List.filter (fun i -> not (List.mem_assoc i k.extents)) dims))
  | [] -> if offset >= size then Past (offset, size) else Within

let bound k dims = horner k dims 1 0 dims

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
  let require_parallel i =
    if not (Tcr.Ir.mem_index i op.out_indices) then
      invalid_arg
        (Printf.sprintf "Kernel.lower: decomposition index %s is not parallel" i)
  in
  require_parallel d.tx;
  require_parallel d.bx;
  Option.iter require_parallel d.ty;
  Option.iter require_parallel d.by;
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
          unroll =
            (match Tcr.Ir.assoc_index i point.unrolls with
            | Some u -> Int.max 1 u
            | None -> 1);
          parallel = Tcr.Ir.mem_index i op.out_indices;
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
