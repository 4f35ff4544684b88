(* Global-memory coalescing analysis.

   For every array reference of a kernel we compute how many 128-byte
   transactions one warp's load generates, by evaluating the (affine)
   address function for each of the 32 lanes and counting distinct
   segments - the same rule the hardware's load-store unit applies. The
   addresses are the terms of the kernel's access map (Kernel.access),
   which the caller builds once per kernel.

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

let seg_elems = segment_bytes / element_bytes (* 16 elements per segment *)

(* The slots of the block's lanes: tx's and ty's (-1 without ty). *)
let lane_slots (k : Codegen.Kernel.t) a =
  let slot = Codegen.Kernel.slot a in
  (slot k.decomp.tx, match k.decomp.ty with Some i -> slot i | None -> -1)

(* A reference's stride at slot [s]: its term there, 0 where it has none. *)
let rec stride_at s = function
  | [] -> 0
  | (slot, stride) :: terms -> if slot = s then stride else stride_at s terms

(* The reference's strides along the lanes: at tx's and ty's slots. *)
let lane_strides k a (r : Codegen.Kernel.reference) =
  let tx, ty = lane_slots k a in
  (stride_at tx r.terms, stride_at ty r.terms)

(* Element offsets of the lanes of the warp starting at [lane_base] within
   the block (the warp may be partial), relative to the warp's base address,
   sorted into [deltas]; returns the lane count. Only the thread-mapped
   indices vary across lanes, so the offsets are tx * s_tx + ty * s_ty with
   lanes x-fastest - already sorted whenever s_ty covers a row of tx, so
   the insertion sort is one pass. *)
let lane_deltas (k : Codegen.Kernel.t) (s_tx, s_ty) ~lane_base deltas =
  let tx_e, _ = k.block in
  let tpb = Codegen.Kernel.threads_per_block k in
  let lanes = min 32 (tpb - lane_base) in
  for l = 0 to lanes - 1 do
    let lane = lane_base + l in
    let tx = lane mod tx_e and ty = lane / tx_e in
    let delta = (tx * s_tx) + (ty * s_ty) in
    let j = ref (l - 1) in
    while !j >= 0 && deltas.(!j) > delta do
      deltas.(!j + 1) <- deltas.(!j);
      decr j
    done;
    deltas.(!j + 1) <- delta
  done;
  lanes

(* Distinct segments [(r + delta) / seg_elems] over the first [lanes]
   sorted deltas: the map is monotone, so equal segments are adjacent. *)
let segments deltas lanes r =
  let count = ref 0 and last = ref 0 in
  for l = 0 to lanes - 1 do
    let s = (r + deltas.(l)) / seg_elems in
    if l = 0 || s <> !last then incr count;
    last := s
  done;
  !count

(* Average transactions per warp-wide load across the block's warps, each
   warp with all serial/block indices fixed at zero (affine =>
   representative, up to boundary effects that average out). *)
let transactions_per_warp (k : Codegen.Kernel.t) a r =
  let nwarps = (Codegen.Kernel.threads_per_block k + 31) / 32 in
  let strides = lane_strides k a r in
  let deltas = Array.make 32 0 in
  let total = ref 0 in
  for w = 0 to nwarps - 1 do
    let lanes = lane_deltas k strides ~lane_base:(w * 32) deltas in
    total := !total + segments deltas lanes 0
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
   stride * v, v uniform over the slot's range, across every non-lane term
   of the reference (block indices and serial loops), convolved in Z_m. *)
let base_residue_dist k (a : Codegen.Kernel.access) (r : Codegen.Kernel.reference) ~m =
  let tx, ty = lane_slots k a in
  let dist = Array.make m 0.0 in
  dist.(0) <- 1.0;
  List.iter
    (fun (slot, stride) ->
      let s = stride mod m and e = a.slots.(slot).range in
      if slot <> tx && slot <> ty && s <> 0 then begin
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
    r.terms;
  dist

(* Exact average 128-byte transactions per warp-wide load of the reference,
   over every warp of every block and every serial iteration. *)
let exact_transactions_per_warp (k : Codegen.Kernel.t) a r =
  let nwarps = (Codegen.Kernel.threads_per_block k + 31) / 32 in
  let dist = base_residue_dist k a r ~m:seg_elems in
  let strides = lane_strides k a r in
  let deltas = Array.make 32 0 in
  let total = ref 0.0 in
  for w = 0 to nwarps - 1 do
    let lanes = lane_deltas k strides ~lane_base:(w * 32) deltas in
    for r = 0 to seg_elems - 1 do
      if dist.(r) > 0.0 then
        total := !total +. (dist.(r) *. float_of_int (segments deltas lanes r))
    done
  done;
  !total /. float_of_int nwarps

(* Loads per thread: a load executes once per iteration of every serial loop
   outside or at the innermost loop its address depends on (the compiler
   hoists it above deeper, independent loops). *)
let rec loads_per_thread a terms loads iterations = function
  | [] -> loads
  | (l : Codegen.Kernel.loop) :: rest ->
    let iterations = iterations * l.extent in
    let used = List.mem_assoc (Codegen.Kernel.slot a l.index) terms in
    loads_per_thread a terms (if used then iterations else loads) iterations rest

let rec loop_bound a s = function
  | [] -> false
  | (l : Codegen.Kernel.loop) :: rest -> Codegen.Kernel.slot a l.index = s || loop_bound a s rest

(* Distinct elements one block touches: product over the reference's
   terms of the slot's range if it varies within the block (a thread or
   serial index), else 1 (fixed by the block index). *)
let footprint_per_block (k : Codegen.Kernel.t) (a : Codegen.Kernel.access) r =
  let tx, ty = lane_slots k a in
  let rec product = function
    | [] -> 1
    | (s, _) :: terms ->
      let within_block = s = tx || s = ty || loop_bound a s k.thread_loops in
      (if within_block then a.slots.(s).range else 1) * product terms
  in
  element_bytes * product r.Codegen.Kernel.terms

let analyze_ref (k : Codegen.Kernel.t) a (r : Codegen.Kernel.reference) =
  {
    name = r.name;
    dims = r.dims;
    transactions_per_warp = transactions_per_warp k a r;
    loads_per_thread = loads_per_thread a r.terms 1 1 k.thread_loops;
    footprint_per_block = footprint_per_block k a r;
    tensor_bytes = element_bytes * r.elements;
  }

(* All references of the kernel: factors as loads; the scalar-replaced
   output contributes one load and one store per output element. *)
let analyze k (a : Codegen.Kernel.access) = List.map (analyze_ref k a) a.factors

let analyze_output (k : Codegen.Kernel.t) (a : Codegen.Kernel.access) =
  let r = analyze_ref k a a.out in
  if k.scalar_replaced then r
  else
    (* without scalar replacement the output is read and written once per
       innermost iteration, not once per element *)
    { r with loads_per_thread = Codegen.Kernel.serial_iterations k }
