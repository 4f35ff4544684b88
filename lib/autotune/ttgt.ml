(* The TTGT (Transpose-Transpose-GEMM-Transpose) baseline: evaluating each
   binary contraction by reshaping its operands into matrices and calling a
   vendor GEMM, the strategy of the large-tensor frameworks the paper
   contrasts itself with (TCE, libtensor, Cyclops; Section VII).

   For each TCR statement the indices partition into
   - B: output indices present in both factors (batched GEMM dimension),
   - M: output indices from the first factor,
   - N: output indices from the second factor,
   - K: the contracted indices,
   and each operand needs an explicit transpose whenever its natural layout
   does not already group as (B, M, K) / (B, K, N) / (B, M, N) in order.

   On the paper's small-tensor workloads this path loses badly - tiny
   M x N grids leave the chip idle and the transposes cost as much as the
   math - which is precisely the motivation for Barracuda's direct
   kernels. *)

type op_mapping = {
  op : Tcr.Ir.op;
  b_indices : string list;
  m_indices : string list;
  n_indices : string list;
  k_indices : string list;
  transposes : string list;  (* names of tensors needing an explicit copy *)
  gemm : Gpusim.Gemm.analysis;
  time_s : float;
}

let product extents l =
  List.fold_left (fun acc i -> acc * List.assoc i extents) 1 l

(* A tensor is usable without a transpose when its indices appear as the
   concatenation of the required groups in order (each group's internal
   order free but fixed by the group list we pass). We require the stronger
   property that the reference's index sequence is [groups] flattened up to
   within-group order, checked by group membership monotonicity. *)
let needs_transpose (dims : string list) (groups : string list list) =
  let group_of i =
    let rec find gi = function
      | [] -> -1
      | g :: rest -> if List.mem i g then gi else find (gi + 1) rest
    in
    find 0 groups
  in
  let ranks = List.map group_of dims in
  let rec monotone = function
    | a :: (b :: _ as rest) -> a <= b && monotone rest
    | _ -> true
  in
  not (monotone ranks)

let map_op (arch : Gpusim.Arch.t) (ir : Tcr.Ir.t) (op : Tcr.Ir.op) =
  match op.factors with
  | [ (f1, d1); (f2, d2) ] ->
    let k_indices = Tcr.Ir.reduction_indices op in
    let in1 i = List.mem i d1 and in2 i = List.mem i d2 in
    let b_indices = List.filter (fun i -> in1 i && in2 i) op.out_indices in
    let m_indices =
      List.filter (fun i -> in1 i && not (List.mem i b_indices)) op.out_indices
    in
    let n_indices =
      List.filter (fun i -> in2 i && not (List.mem i b_indices)) op.out_indices
    in
    let extents = ir.extents in
    let m = max 1 (product extents m_indices) in
    let n = max 1 (product extents n_indices) in
    let k = max 1 (product extents k_indices) in
    let batch = max 1 (product extents b_indices) in
    let transposes =
      List.filter_map
        (fun (name, dims, groups) ->
          if needs_transpose dims groups then Some name else None)
        [
          (f1, d1, [ b_indices; m_indices; k_indices ]);
          (f2, d2, [ b_indices; k_indices; n_indices ]);
          (op.out, op.out_indices, [ b_indices; m_indices; n_indices ]);
        ]
    in
    let t_transpose =
      List.fold_left
        (fun acc name ->
          acc +. Gpusim.Gemm.transpose_time arch ~bytes:(Tcr.Ir.var_bytes ir name))
        0.0 transposes
    in
    let gemm = Gpusim.Gemm.analyze arch ~m ~n ~k ~batch in
    {
      op;
      b_indices;
      m_indices;
      n_indices;
      k_indices;
      transposes;
      gemm;
      time_s = t_transpose +. gemm.time_s;
    }
  | [ (name, _) ] ->
    (* unary reduction/copy: a bandwidth-bound library kernel *)
    let bytes = Tcr.Ir.var_bytes ir name + Tcr.Ir.var_bytes ir op.out in
    let t =
      (arch.kernel_launch_us *. 1e-6)
      +. (float_of_int bytes /. (arch.mem_bw_gbs *. 1e9 *. arch.bw_efficiency))
    in
    let gemm = Gpusim.Gemm.analyze arch ~m:1 ~n:1 ~k:1 ~batch:1 in
    {
      op;
      b_indices = [];
      m_indices = op.out_indices;
      n_indices = [];
      k_indices = Tcr.Ir.reduction_indices op;
      transposes = [];
      gemm;
      time_s = t;
    }
  | _ ->
    invalid_arg
      "Ttgt.map_op: TTGT applies to binary contractions; run strength reduction first"

type report = {
  ir : Tcr.Ir.t;
  mappings : op_mapping list;
  kernel_time_s : float;
  flops : int;  (* the contraction flops, excluding transpose overhead *)
}

let analyze (arch : Gpusim.Arch.t) (ir : Tcr.Ir.t) =
  let mappings = List.map (map_op arch ir) ir.ops in
  {
    ir;
    mappings;
    kernel_time_s = List.fold_left (fun acc m -> acc +. m.time_s) 0.0 mappings;
    flops = Tcr.Ir.flops ir;
  }

(* TTGT time of the CPU-best variant of a benchmark (libraries also pick
   the cheapest factorization). *)
let best_time (arch : Gpusim.Arch.t) (b : Tuner.benchmark) =
  List.fold_left
    (fun acc (c : Tuner.variant_choice) -> min acc (analyze arch c.v_ir).kernel_time_s)
    infinity (Tuner.variant_choices b)
