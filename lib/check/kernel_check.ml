(* Layer 3: resource analysis of an emitted kernel against a target
   architecture.

   The central proof is out-of-bounds freedom: for every array the kernel
   references, the maximum linearized offset any thread can form -
   [sum over dims of stride * (iteration range - 1)], with each index's
   range read off the kernel's own grid/block/loop structure - must stay
   below the allocated element count. Alongside it: the register file must
   hold at least one block, and grid/block dimensions must respect the
   device limits. Quality lints (uncoalesced loads, low occupancy, partial
   warps, an undersized grid) are warnings: legal, but worth flagging. *)

let rec loop_range i r = function
  | [] -> r
  | (l : Codegen.Kernel.loop) :: rest ->
    loop_range i (if String.equal l.index i then Int.max r l.extent else r) rest

let drives slot i = match slot with Some j -> String.equal j i | None -> false

(* Iteration range of index [i] as the kernel actually drives it: the
   block/grid dimension when mapped, the loop extent when serial, the
   maximum of both in malformed kernels, 1 when never driven. *)
let index_range (k : Codegen.Kernel.t) i =
  let d = k.decomp in
  let r = if String.equal d.tx i then Int.max 1 (fst k.block) else 1 in
  let r = if drives d.ty i then Int.max r (snd k.block) else r in
  let r = if String.equal d.bx i then Int.max r (fst k.grid) else r in
  let r = if drives d.by i then Int.max r (snd k.grid) else r in
  loop_range i r k.thread_loops

(* BAR030 when some dimension of [name] has no extent: one finding per
   such dimension, in order. *)
let missing_extents (k : Codegen.Kernel.t) name dims =
  List.filter_map
    (fun i ->
      match Tcr.Ir.assoc_index i k.extents with
      | Some _ -> None
      | None ->
        Some
          (Diag.error Diag.Kernel ~code:"BAR030" ~site:k.name
             "cannot bound offsets of %s: dimension %s has no extent" name i))
    dims

(* BAR030: symbolic in-bounds proof of array [name]. Row-major, so Horner's
   rule over the dims, outermost first, gives the maximum offset
   [sum_d stride_d * (range_d - 1)] alongside the element count without
   materializing strides or extents. *)
let rec bound (k : Codegen.Kernel.t) name dims size offset = function
  | i :: inner -> (
    match Tcr.Ir.assoc_index i k.extents with
    | Some e -> bound k name dims (size * e) ((offset * e) + index_range k i - 1) inner
    | None -> missing_extents k name dims)
  | [] ->
    if offset >= size then
      [
        Diag.error Diag.Kernel ~code:"BAR030" ~site:k.name
          "out of bounds: max linearized offset %d of %s reaches past its %d elements"
          offset name size;
      ]
    else []

let check_bounds (k : Codegen.Kernel.t) =
  List.concat_map (fun (name, dims) -> bound k name dims 1 0 dims) k.arrays

(* BAR031: at least one block must fit the SM's register file. *)
let check_registers (arch : Gpusim.Arch.t) (k : Codegen.Kernel.t) =
  let regs = Gpusim.Occupancy.regs_per_thread k in
  let tpb = Codegen.Kernel.threads_per_block k in
  if regs * tpb > arch.regs_per_sm then
    [
      Diag.error Diag.Kernel ~code:"BAR031" ~site:k.name
        "register demand %d regs/thread x %d threads = %d exceeds the %d-register \
         file of one %s SM"
        regs tpb (regs * tpb) arch.regs_per_sm arch.codename;
    ]
  else []

(* Fermi's grid.x is 16-bit; Kepler onwards it is 31-bit. grid.y stays
   16-bit on every simulated device. *)
let max_grid_x (arch : Gpusim.Arch.t) =
  if arch.codename = "Fermi" then 65535 else 0x7FFFFFFF

let max_grid_y _arch = 65535

(* BAR032/BAR033/BAR034: launch-dimension limits. *)
let check_dims (arch : Gpusim.Arch.t) (k : Codegen.Kernel.t) =
  let gx, gy = k.grid and bx, by = k.block in
  let nonpos =
    if gx >= 1 && gy >= 1 && bx >= 1 && by >= 1 then []
    else
      List.filter_map
        (fun (what, v) ->
          if v < 1 then
            Some
              (Diag.error Diag.Kernel ~code:"BAR034" ~site:k.name
                 "%s dimension %d is not positive" what v)
          else None)
        [ ("grid x", gx); ("grid y", gy); ("block x", bx); ("block y", by) ]
  in
  let tpb = Codegen.Kernel.threads_per_block k in
  let block =
    if tpb > arch.max_threads_per_block then
      [
        Diag.error Diag.Kernel ~code:"BAR032" ~site:k.name
          "block of %dx%d = %d threads exceeds %s's limit of %d" bx by tpb arch.name
          arch.max_threads_per_block;
      ]
    else []
  in
  let grid =
    (if gx > max_grid_x arch then
       [
         Diag.error Diag.Kernel ~code:"BAR033" ~site:k.name
           "grid x dimension %d exceeds %s's limit of %d" gx arch.name (max_grid_x arch);
       ]
     else [])
    @
    if gy > max_grid_y arch then
      [
        Diag.error Diag.Kernel ~code:"BAR033" ~site:k.name
          "grid y dimension %d exceeds %s's limit of %d" gy arch.name (max_grid_y arch);
      ]
    else []
  in
  nonpos @ block @ grid

(* Errors always; [~lints:false] skips the warning-level analyses (the
   tuner's gate only needs the errors). The old heuristic BAR040-043 lints
   are superseded by the exact BAR07x facts of [Access]. *)
let check ?(lints = true) (arch : Gpusim.Arch.t) (k : Codegen.Kernel.t) =
  check_bounds k @ check_registers arch k @ check_dims arch k
  @ (if lints then Access.lints arch k else [])
