(* Search-space pruning - the extension the paper's conclusion proposes
   ("we plan to extend this work to further prune the autotuning search
   space once we develop a better understanding of where pruning does not
   impact quality of results").

   A [policy] is a set of static filters over search points, each derived
   from a GPU performance heuristic the decision algorithm already has the
   analysis for:
   - blocks should be wide enough to fill warps and narrow enough to allow
     multiple blocks per SM;
   - the grid should cover the SMs;
   - the output store should coalesce (ThreadX unit-stride on the output);
   - unroll factors that do not divide the loop extent leave epilogues. *)

type policy = {
  min_threads_per_block : int;
  max_threads_per_block : int;
  min_blocks : int;
  require_coalesced_output : bool;
  dividing_unrolls_only : bool;
}

let default =
  {
    min_threads_per_block = 32;
    max_threads_per_block = 512;
    min_blocks = 8;
    require_coalesced_output = true;
    dividing_unrolls_only = true;
  }

let threads_per_block (s : Space.t) (d : Space.decomposition) =
  Ir.extent s.ir d.tx * match d.ty with None -> 1 | Some i -> Ir.extent s.ir i

let num_blocks (s : Space.t) (d : Space.decomposition) =
  Ir.extent s.ir d.bx * match d.by with None -> 1 | Some i -> Ir.extent s.ir i

(* ThreadX must be the innermost dimension of the output reference. *)
let output_coalesced (s : Space.t) (d : Space.decomposition) =
  match List.rev s.op.out_indices with
  | innermost :: _ -> d.tx = innermost
  | [] -> true

let point_ok policy (s : Space.t) (p : Space.point) =
  let d = p.decomp in
  let tpb = threads_per_block s d in
  tpb >= policy.min_threads_per_block
  && tpb <= policy.max_threads_per_block
  && num_blocks s d >= policy.min_blocks
  && ((not policy.require_coalesced_output) || output_coalesced s d)
  && ((not policy.dividing_unrolls_only)
     || List.for_all (fun (loop, u) -> u = 1 || Ir.extent s.ir loop mod u = 0) p.unrolls)

(* Pruned view of one op's space. *)
let enumerate policy s = List.filter (point_ok policy s) (Space.enumerate s)

let count policy s = List.length (enumerate policy s)

(* Fraction of the space a policy removes; the ablation benchmark reports
   this together with the best-found quality. *)
let pruned_fraction policy s =
  let total = Space.count s in
  if total = 0 then 0.0
  else 1.0 -. (float_of_int (count policy s) /. float_of_int total)
