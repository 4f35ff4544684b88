(* The GPU decision algorithm (Section IV): derive, for one TCR statement,
   the candidate thread/block decompositions and unroll factors that form
   the autotuning search space.

   Rules reproduced from the paper:
   - ThreadX candidates: parallel loops that access some tensor of the
     statement with unit stride (adjacent threads touch adjacent memory, so
     global loads coalesce).
   - ThreadY / BlockX / BlockY candidates: parallel loop indices taken from
     the contiguous tensors innermost-to-outermost; if the contiguous
     tensors provide fewer than four parallel loops, continue with the
     non-contiguous tensors outermost-to-innermost. ThreadY and BlockY may
     also be "1" (one-dimensional thread block / grid).
   - A PERMUTE group selects one value per parameter, all distinct.
   - Inner (serial) loops are unroll candidates with small factors.
   - Scalar replacement of the output is always applied. *)

type candidates = {
  tx : string list;
  ty : string list;  (* includes "1" *)
  bx : string list;
  by : string list;  (* includes "1" *)
  unroll_loops : (string * int list) list;  (* innermost serial loops *)
  red_orders : string list list;  (* loop-permutation candidates *)
}

(* The literal "1" used for one-dimensional choices. *)
let one = "1"

(* Parallel loops are the output indices: loops carrying a dependence are
   exactly those whose index appears only on the right-hand side. *)
let parallel_indices (op : Ir.op) = op.out_indices

let position loop_order i =
  let rec go pos = function
    | [] -> max_int
    | x :: rest -> if x = i then pos else go (pos + 1) rest
  in
  go 0 loop_order

(* Ordered pool of decomposition candidates per the two selection rules. *)
let decomposition_pool (op : Ir.op) =
  let parallel = parallel_indices op in
  let refs = (op.out, op.out_indices) :: op.factors in
  let contiguous_refs, other_refs =
    List.partition (fun (_, idx) -> Access.contiguous ~loop_order:op.loop_order idx) refs
  in
  let indices_of refs = List.sort_uniq compare (List.concat_map snd refs) in
  let inner_to_outer =
    List.sort
      (fun a b -> compare (position op.loop_order b) (position op.loop_order a))
  in
  let outer_to_inner =
    List.sort
      (fun a b -> compare (position op.loop_order a) (position op.loop_order b))
  in
  let from_contig =
    inner_to_outer (List.filter (fun i -> List.mem i parallel) (indices_of contiguous_refs))
  in
  let from_other =
    outer_to_inner
      (List.filter
         (fun i -> List.mem i parallel && not (List.mem i from_contig))
         (indices_of other_refs))
  in
  let pool = from_contig @ if List.length from_contig < 4 then from_other else [] in
  pool

(* At most [max_unrollable] inner loops receive unroll parameters, each
   capped at [min extent max_unroll_factor]. *)
let max_unrollable = 2
let max_unroll_factor = 10

(* Reduction loops can be permuted inside the kernel ("different loop
   orders, which can be realized using loop permutation", Section IV). All
   orders are candidates when there are few reduction loops; beyond that,
   rotations only, to keep the parameter categorical and small. *)
let max_permuted_reductions = 3

let reduction_orders (op : Ir.op) =
  let reductions = List.filter (fun i -> not (List.mem i op.out_indices)) op.loop_order in
  match reductions with
  | [] | [ _ ] -> [ reductions ]
  | _ when List.length reductions <= max_permuted_reductions ->
    Util.Combinat.permutations reductions
  | _ ->
    let n = List.length reductions in
    List.init n (fun r ->
        List.mapi (fun i _ -> List.nth reductions ((i + r) mod n)) reductions)

let derive ?unroll_factors (t : Ir.t) (op : Ir.op) =
  Obs.Trace.with_span ~cat:"tcr" "tcr.decision" @@ fun span ->
  let parallel = parallel_indices op in
  let tx =
    List.filter (fun i -> List.mem i parallel) (Access.unit_stride_indices op)
  in
  let tx = if tx = [] then [ List.hd (List.rev op.loop_order) ] else tx in
  let pool = decomposition_pool op in
  let pool = if pool = [] then parallel else pool in
  let serial_loops =
    (* loops that can remain inside the thread under some decomposition:
       reduction loops plus parallel loops beyond the four mapped ones;
       unroll candidates are the innermost such loops *)
    let reductions = Ir.reduction_indices op in
    let extras =
      List.filter (fun i -> not (List.mem i (tx @ pool))) parallel
    in
    let inner_first =
      List.sort
        (fun a b -> compare (position op.loop_order b) (position op.loop_order a))
        (List.sort_uniq compare (reductions @ extras))
    in
    List.filteri (fun i _ -> i < max_unrollable) inner_first
  in
  let factors_for loop =
    match unroll_factors with
    | Some fs -> fs
    | None ->
      let e = Ir.extent t loop in
      List.init (min e max_unroll_factor) (fun i -> i + 1)
  in
  let c =
    {
      tx;
      ty = pool @ [ one ];
      bx = pool;
      by = pool @ [ one ];
      unroll_loops = List.map (fun l -> (l, factors_for l)) serial_loops;
      red_orders = reduction_orders op;
    }
  in
  Obs.Trace.add_attrs span
    [
      ("out", op.out);
      ("tx", string_of_int (List.length c.tx));
      ("pool", string_of_int (List.length pool));
      ("unroll_loops", string_of_int (List.length c.unroll_loops));
      ("red_orders", string_of_int (List.length c.red_orders));
    ];
  c
