(* Symbolic access analysis: exact affine facts about a kernel's memory
   behaviour, replacing the heuristic BAR04x lints with proven quantities.

   Every address in the kernel IR is affine in the thread/block/serial
   indices, so global coalescing has a closed form: the 128-byte
   transactions of a warp-wide load depend only on the warp's base address
   modulo the segment size, so the exact average over the whole grid and
   serial iteration space is a finite sum over the base-residue
   distribution (Gpusim.Coalesce).

   Codes: BAR070 uncoalesced global loads (warning, exact grid average),
   BAR073 low occupancy (warning), BAR074 partial warp (warning), BAR075
   idle SMs (warning), BAR076 representative-warp coalescing model diverges
   from the exact count (info). BAR071, BAR072 and BAR077 are retired and
   stay reserved: they covered shared-memory tiles, which no lowering
   produces. *)

(* A warp at or beyond half the fully-diverged cost (32) is uncoalesced. *)
let uncoalesced_threshold = 16.0

let low_occupancy_threshold = 0.25

(* Model-vs-exact coalescing gap worth surfacing (transactions/warp). *)
let model_divergence_threshold = 0.5

type ref_summary = {
  name : string;
  exact_transactions : float;     (* grid-average transactions per warp *)
  model_transactions : float;     (* representative-warp model *)
}

(* Global references of the compute loops, from the kernel's access map:
   the output, then every factor. *)
let summarize_refs (k : Codegen.Kernel.t) =
  let a = Codegen.Kernel.access k in
  List.map
    (fun (r : Codegen.Kernel.reference) ->
      {
        name = r.name;
        exact_transactions = Gpusim.Coalesce.exact_transactions_per_warp k a r;
        model_transactions = Gpusim.Coalesce.transactions_per_warp k a r;
      })
    (a.out :: a.factors)

(* ------------------------------------------------------------------ *)
(* Lints: exact-quantity warnings and infos. *)

let lints (arch : Gpusim.Arch.t) (k : Codegen.Kernel.t) =
  let refs = summarize_refs k in
  let coalescing =
    List.filter_map
      (fun r ->
        if r.exact_transactions >= uncoalesced_threshold then
          Some
            (Diag.warning Diag.Kernel ~code:"BAR070" ~site:k.name
               "loads of %s average %.2f transactions per warp over the whole grid \
                (uncoalesced)"
               r.name r.exact_transactions)
        else None)
      refs
  in
  let occ = Gpusim.Occupancy.analyze arch k in
  let occupancy =
    if occ.occupancy < low_occupancy_threshold then
      [
        Diag.warning Diag.Kernel ~code:"BAR073" ~site:k.name
          "occupancy %.2f (%s-limited) is below %.2f" occ.occupancy occ.limited_by
          low_occupancy_threshold;
      ]
    else []
  in
  let tpb = Codegen.Kernel.threads_per_block k in
  let partial_warp =
    if tpb < arch.warp_size then
      [
        Diag.warning Diag.Kernel ~code:"BAR074" ~site:k.name
          "block of %d threads does not fill a %d-lane warp" tpb arch.warp_size;
      ]
    else []
  in
  let blocks = Codegen.Kernel.num_blocks k in
  let grid_cover =
    if blocks < arch.sm_count then
      [
        Diag.warning Diag.Kernel ~code:"BAR075" ~site:k.name
          "grid of %d block%s leaves %d of %d SMs idle" blocks
          (if blocks = 1 then "" else "s")
          (arch.sm_count - blocks) arch.sm_count;
      ]
    else []
  in
  let model_divergence =
    List.filter_map
      (fun r ->
        if Float.abs (r.model_transactions -. r.exact_transactions)
           > model_divergence_threshold
        then
          Some
            (Diag.info Diag.Kernel ~code:"BAR076" ~site:k.name
               "representative-warp model gives %.2f transactions/warp for %s; exact \
                grid average is %.2f"
               r.model_transactions r.name r.exact_transactions)
        else None)
      refs
  in
  coalescing @ occupancy @ partial_warp @ grid_cover @ model_divergence
