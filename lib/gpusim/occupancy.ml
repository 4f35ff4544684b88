(* Occupancy calculator: how many blocks and warps an SM sustains given the
   block size and register demand, following the CUDA occupancy rules. *)

type t = {
  blocks_per_sm : int;
  warps_per_sm : int;
  occupancy : float;          (* active warps / max warps *)
  regs_per_thread : int;
  limited_by : string;        (* "threads" | "blocks" | "registers" *)
}

(* Register demand of the generated thread program: a base set (pointers,
   indices, the output scalar) plus address/value registers per factor and
   extra live values introduced by unrolling. *)
let regs_per_thread (k : Codegen.Kernel.t) =
  let base = 14 in
  let per_factor = 4 in
  let unroll_extra =
    List.fold_left
      (fun acc (l : Codegen.Kernel.loop) -> acc + (2 * (Int.max 1 l.unroll - 1)))
      0 k.thread_loops
  in
  base + (per_factor * List.length k.op.factors) + unroll_extra

let analyze (arch : Arch.t) (k : Codegen.Kernel.t) =
  let tpb = Codegen.Kernel.threads_per_block k in
  let regs = regs_per_thread k in
  let by_threads = arch.max_threads_per_sm / max 1 tpb in
  let by_blocks = arch.max_blocks_per_sm in
  let by_regs = arch.regs_per_sm / max 1 (regs * tpb) in
  let blocks_per_sm = max 1 (min by_threads (min by_blocks by_regs)) in
  let blocks_per_sm = if by_regs = 0 then 1 else blocks_per_sm in
  let warps_per_block = (tpb + arch.warp_size - 1) / arch.warp_size in
  let warps_per_sm = blocks_per_sm * warps_per_block in
  let max_warps = arch.max_threads_per_sm / arch.warp_size in
  let limited_by =
    if by_regs <= by_threads && by_regs <= by_blocks then "registers"
    else if by_threads <= by_blocks then "threads"
    else "blocks"
  in
  {
    blocks_per_sm;
    warps_per_sm = min warps_per_sm max_warps;
    occupancy = min 1.0 (float_of_int (warps_per_sm * arch.warp_size) /. float_of_int arch.max_threads_per_sm);
    regs_per_thread = regs;
    limited_by;
  }
