(* The autotuning search space of one TCR statement and of a whole program.

   A [point] fixes the thread/block decomposition and the unroll factor of
   each unrollable loop. Spaces are enumerable (for exhaustive search and
   for the SURF configuration pool), countable, and samplable. *)

type decomposition = {
  tx : string;
  ty : string option;  (* None = 1-dimensional thread block *)
  bx : string;
  by : string option;  (* None = 1-dimensional grid *)
}

type point = {
  decomp : decomposition;
  unrolls : (string * int) list;
  red_order : string list;  (* permutation of the reduction loops; [] = default *)
}

type t = {
  ir : Ir.t;
  op_index : int;
  op : Ir.op;
  candidates : Decision.candidates;
  max_threads_per_block : int;
  decomps : decomposition array;  (* every valid decomposition, built once by [make] *)
  indices : string list;  (* Ir.iteration_indices op, derived once by [make] *)
}

let default_max_threads = 1024

(* Saturating multiply for space counts: network-lowered programs have
   dozens of statements whose cross product overflows 63-bit ints, and a
   silently wrapped count can masquerade as a small space. *)
let sat_mul a b =
  if a = 0 || b = 0 then 0
  else if a > max_int / b then max_int
  else a * b

let mapped_indices d =
  d.tx :: d.bx :: (Option.to_list d.ty @ Option.to_list d.by)

(* Validity: choices pairwise distinct; block fits the thread limit. *)
let decomposition_valid t d =
  let chosen = mapped_indices d in
  let distinct = List.sort_uniq compare chosen in
  List.length distinct = List.length chosen
  &&
  let threads =
    Ir.extent t.ir d.tx
    * match d.ty with None -> 1 | Some ty -> Ir.extent t.ir ty
  in
  threads <= t.max_threads_per_block

let lift = function "1" -> None | i -> Some i

let make ?(max_threads_per_block = default_max_threads) (ir : Ir.t) op_index =
  let op = List.nth ir.ops op_index in
  let c = Decision.derive ir op in
  let t =
    {
      ir;
      op_index;
      op;
      candidates = c;
      max_threads_per_block;
      decomps = [||];
      indices = Ir.iteration_indices op;
    }
  in
  let decomps =
    List.concat_map
      (fun tx ->
        List.concat_map
          (fun ty ->
            List.concat_map
              (fun bx ->
                List.filter_map
                  (fun by ->
                    let d = { tx; ty = lift ty; bx; by = lift by } in
                    if decomposition_valid t d then Some d else None)
                  c.by)
              c.bx)
          c.ty)
      c.tx
  in
  { t with decomps = Array.of_list decomps }

let decompositions t = Array.to_list t.decomps

let unroll_combos t =
  Util.Combinat.cartesian (List.map snd t.candidates.unroll_loops)
  |> List.map (fun factors -> List.combine (List.map fst t.candidates.unroll_loops) factors)

let red_orders t =
  match t.candidates.red_orders with [] -> [ [] ] | orders -> orders

let count t =
  Array.length t.decomps * List.length (unroll_combos t) * List.length (red_orders t)

let enumerate t =
  let ds = decompositions t in
  let us = unroll_combos t in
  let rs = red_orders t in
  List.concat_map
    (fun decomp ->
      List.concat_map
        (fun unrolls -> List.map (fun red_order -> { decomp; unrolls; red_order }) rs)
        us)
    ds

let sample rng t =
  let decomp = Util.Rng.pick rng t.decomps in
  let unrolls =
    List.map (fun (l, fs) -> (l, Util.Rng.pick_list rng fs)) t.candidates.unroll_loops
  in
  let red_order = Util.Rng.pick_list rng (red_orders t) in
  { decomp; unrolls; red_order }

(* The serial schedule of [op] under [point]: the loop indices one thread
   executes, split into the unmapped parallel loops (outermost, each
   computing a distinct output element) and the reduction loops (innermost,
   permuted by the point's red_order when one is given). Both the kernel
   lowering and the recipe-stage semantic evaluator derive their iteration
   schedule from this one definition, so "what the recipe means" cannot
   drift from "what the lowering does" silently. *)
let serial_schedule (op : Ir.op) (point : point) =
  let mapped = mapped_indices point.decomp in
  let serial = List.filter (fun i -> not (Ir.mem_index i mapped)) op.loop_order in
  let parallel_serial, reductions =
    List.partition (fun i -> Ir.mem_index i op.out_indices) serial
  in
  let reductions =
    match point.red_order with
    | [] -> reductions
    | order ->
      if not (Ir.is_permutation order reductions) then
        invalid_arg "Space.serial_schedule: red_order is not a permutation of the reductions";
      order
  in
  (parallel_serial, reductions)

(* "tx=j ty=1 bx=i by=1 uk=4 ul=2 ro=m.l": built in one buffer, since the
   pool keys every draw by it. *)
let point_key point =
  let d = point.decomp in
  let b = Buffer.create 64 in
  let add = Buffer.add_string b in
  add "tx=";
  add d.tx;
  add " ty=";
  add (Option.value d.ty ~default:"1");
  add " bx=";
  add d.bx;
  add " by=";
  add (Option.value d.by ~default:"1");
  add " ";
  List.iteri
    (fun n (l, f) ->
      if n > 0 then add " ";
      add "u";
      add l;
      add "=";
      add (string_of_int f))
    point.unrolls;
  (match point.red_order with
  | [] | [ _ ] -> ()
  | o ->
    add " ro=";
    add (String.concat "." o));
  Buffer.contents b

(* Feature description of a point, consumed by SURF's binarizer: the
   decomposition parameters are categorical, the unroll factors numeric. *)
type feature_value = Cat of string | Num of float

let features t point =
  let d = point.decomp in
  [
    ("tx", Cat d.tx);
    ("ty", Cat (Option.value d.ty ~default:"1"));
    ("bx", Cat d.bx);
    ("by", Cat (Option.value d.by ~default:"1"));
  ]
  @ List.map (fun (l, f) -> ("unroll_" ^ l, Num (float_of_int f))) point.unrolls
  @ (match point.red_order with
    | [] | [ _ ] -> []
    | o -> [ ("red_order", Cat (String.concat "." o)) ])
  |> fun fs -> ignore t; fs

(* ------------------------------------------------------------------ *)
(* Whole-program space: one sub-space per op, tuned independently (the
   paper generates one kernel per statement, each individually optimized,
   with data resident on the GPU in between). *)

type program_space = { ir : Ir.t; op_spaces : t list }

let of_ir ?max_threads_per_block ir =
  Obs.Trace.with_span ~cat:"tcr" "tcr.space" @@ fun span ->
  let ps =
    {
      ir;
      op_spaces = List.mapi (fun i _ -> make ?max_threads_per_block ir i) ir.Ir.ops;
    }
  in
  (* counting enumerates each op's decompositions: only pay when tracing *)
  if Obs.Trace.enabled () then
    Obs.Trace.add_attrs span
      [
        ("label", ir.Ir.label);
        ("ops", string_of_int (List.length ps.op_spaces));
        ( "program_count",
          string_of_int (List.fold_left (fun acc s -> sat_mul acc (count s)) 1 ps.op_spaces) );
      ];
  ps

(* Size of the cross-product space (what the paper reports: e.g. 512,000
   tensor-code variants for Lg3t). Multiplication saturates at [max_int]:
   network-lowered programs have dozens of statements whose cross product
   overflows 63-bit ints, and a silently wrapped count can masquerade as a
   small space and trigger full enumeration. *)
let program_count ps =
  List.fold_left (fun acc s -> sat_mul acc (count s)) 1 ps.op_spaces
