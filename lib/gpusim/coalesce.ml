(* Global-memory coalescing analysis.

   For every array reference of a kernel we compute how many 128-byte
   transactions one warp's load generates, by evaluating the (affine)
   address function for each of the 32 lanes and counting distinct
   segments - the same rule the hardware's load-store unit applies.

   Lanes are ordered x-fastest: lane = ty * blockDim.x + tx. *)

let segment_bytes = 128
let element_bytes = 8

type ref_analysis = {
  name : string;
  dims : string list;
  transactions_per_warp : float;  (* averaged over the warps of a block *)
  loads_per_thread : int;         (* executions of the load per thread *)
  footprint_per_block : int;      (* distinct bytes touched by one block *)
  tensor_bytes : int;             (* whole-array size *)
}

let stride_of (k : Codegen.Kernel.t) dims index =
  let strides =
    Tensor.Shape.strides (Array.of_list (List.map (Codegen.Kernel.extent k) dims))
  in
  let rec go pos = function
    | [] -> 0
    | d :: rest -> if d = index then strides.(pos) else go (pos + 1) rest
  in
  go 0 dims

let seg_elems = segment_bytes / element_bytes (* 16 elements per segment *)

(* Element offsets of the lanes of the warp starting at [lane_base] within
   the block (the warp may be partial), relative to the warp's base address:
   only the thread-mapped indices vary across lanes, so the offsets are
   tx * stride_tx + ty * stride_ty with lanes x-fastest. *)
let lane_deltas (k : Codegen.Kernel.t) dims ~lane_base =
  let tx_e, _ = k.block in
  let d = k.decomp in
  let s_tx = stride_of k dims d.tx in
  let s_ty = match d.ty with None -> 0 | Some i -> stride_of k dims i in
  let tpb = Codegen.Kernel.threads_per_block k in
  let lanes = min 32 (tpb - lane_base) in
  List.init lanes (fun l ->
      let lane = lane_base + l in
      let tx = lane mod tx_e and ty = lane / tx_e in
      (tx * s_tx) + (ty * s_ty))

(* Transactions for one warp whose first lane sits at [lane_base] within the
   block, all serial/block indices fixed at zero (affine => representative,
   up to boundary effects that average out). *)
let warp_transactions (k : Codegen.Kernel.t) dims ~lane_base =
  let segments = Hashtbl.create 8 in
  List.iter
    (fun delta -> Hashtbl.replace segments (delta / seg_elems) ())
    (lane_deltas k dims ~lane_base);
  Hashtbl.length segments

(* Average transactions per warp-wide load across the block's warps. *)
let transactions_per_warp (k : Codegen.Kernel.t) dims =
  let tpb = Codegen.Kernel.threads_per_block k in
  let nwarps = (tpb + 31) / 32 in
  let total = ref 0 in
  for w = 0 to nwarps - 1 do
    total := !total + warp_transactions k dims ~lane_base:(w * 32)
  done;
  float_of_int !total /. float_of_int nwarps

(* ------------------------------------------------------------------ *)
(* Exact grid-average transactions.

   The representative model above pins every non-lane index at zero. The
   exact count observes that for affine addresses the transaction count of
   a warp depends only on the warp's base address modulo the segment size
   (base = 16q + r => floor((base + delta)/16) = q + floor((r + delta)/16)),
   so averaging over the whole grid and serial iteration space reduces to
   the distribution of the base residue in Z_16 - computed exactly by
   convolving the per-index residue distributions, since the block and
   serial indices sweep their full ranges independently. *)

(* Distribution over Z_m of the warp-base offset of a reference: the sum of
   stride * v, v uniform over the extent, across every non-lane index of
   the reference (block indices and serial loops), convolved in Z_m. *)
let base_residue_dist (k : Codegen.Kernel.t) dims ~m =
  let d = k.decomp in
  let contributions =
    List.filter_map
      (fun dim ->
        if dim = d.tx || Some dim = d.ty then None
        else Some (stride_of k dims dim mod m, Codegen.Kernel.extent k dim))
      dims
  in
  let dist = Array.make m 0.0 in
  dist.(0) <- 1.0;
  List.iter
    (fun (s, e) ->
      if s <> 0 then begin
        let next = Array.make m 0.0 in
        let p = 1.0 /. float_of_int e in
        for v = 0 to e - 1 do
          let r = s * v mod m in
          for b = 0 to m - 1 do
            next.((b + r) mod m) <- next.((b + r) mod m) +. (dist.(b) *. p)
          done
        done;
        Array.blit next 0 dist 0 m
      end)
    contributions;
  dist

(* Exact average 128-byte transactions per warp-wide load of the reference,
   over every warp of every block and every serial iteration. *)
let exact_transactions_per_warp (k : Codegen.Kernel.t) dims =
  let tpb = Codegen.Kernel.threads_per_block k in
  let nwarps = (tpb + 31) / 32 in
  let dist = base_residue_dist k dims ~m:seg_elems in
  let total = ref 0.0 in
  for w = 0 to nwarps - 1 do
    let deltas = lane_deltas k dims ~lane_base:(w * 32) in
    for r = 0 to seg_elems - 1 do
      if dist.(r) > 0.0 then begin
        let segs = Hashtbl.create 8 in
        List.iter (fun delta -> Hashtbl.replace segs ((r + delta) / seg_elems) ()) deltas;
        total := !total +. (dist.(r) *. float_of_int (Hashtbl.length segs))
      end
    done
  done;
  !total /. float_of_int nwarps

(* Loads per thread: a load executes once per iteration of every serial loop
   outside or at the innermost loop its address depends on (the compiler
   hoists it above deeper, independent loops). *)
let loads_per_thread (k : Codegen.Kernel.t) dims =
  let loops = k.thread_loops in
  let depth_max =
    List.fold_left
      (fun acc (i, (l : Codegen.Kernel.loop)) -> if List.mem l.index dims then i else acc)
      (-1)
      (List.mapi (fun i l -> (i, l)) loops)
  in
  List.fold_left ( * ) 1
    (List.filteri (fun i _ -> i <= depth_max) (List.map (fun (l : Codegen.Kernel.loop) -> l.extent) loops))

(* Distinct elements one block touches: product over the reference's
   dimensions of the extent if the dimension varies within the block
   (thread or serial index), else 1 (fixed by the block index). *)
let footprint_per_block (k : Codegen.Kernel.t) dims =
  let d = k.decomp in
  let within_block i =
    i = d.tx
    || Some i = d.ty
    || List.exists (fun (l : Codegen.Kernel.loop) -> l.index = i) k.thread_loops
  in
  element_bytes
  * List.fold_left
      (fun acc i -> acc * if within_block i then Codegen.Kernel.extent k i else 1)
      1 dims

let tensor_bytes (k : Codegen.Kernel.t) dims =
  element_bytes
  * List.fold_left (fun acc i -> acc * Codegen.Kernel.extent k i) 1 dims

let analyze_ref (k : Codegen.Kernel.t) (name, dims) =
  {
    name;
    dims;
    transactions_per_warp = transactions_per_warp k dims;
    loads_per_thread = loads_per_thread k dims;
    footprint_per_block = footprint_per_block k dims;
    tensor_bytes = tensor_bytes k dims;
  }

(* All references of the kernel: factors as loads; the scalar-replaced
   output contributes one load and one store per output element. *)
let analyze (k : Codegen.Kernel.t) = List.map (analyze_ref k) k.op.factors

let analyze_output (k : Codegen.Kernel.t) =
  let r = analyze_ref k (k.op.out, k.op.out_indices) in
  if k.scalar_replaced then r
  else
    (* without scalar replacement the output is read and written once per
       innermost iteration, not once per element *)
    let total =
      List.fold_left (fun acc (l : Codegen.Kernel.loop) -> acc * l.extent) 1 k.thread_loops
    in
    { r with loads_per_thread = total }
