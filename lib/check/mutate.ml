(* Mutation self-test harness for the semantic validator: three named
   kernel mutations, each a realistic lowering bug, each caught by the
   kernel stage as BAR063. Permuting loop orders is deliberately NOT here:
   sums commute, so reordering is semantically harmless - the validator
   must accept it, and the mutations must be genuine bugs.

   - swap-index: swap two dims of a factor reference (a transposed access
     pattern).
   - corrupt-stride: bump one entry of the kernel's own extents table, so
     every stride computed from it is wrong - caught either as wrong
     values or as a bounds violation, both kernel-stage divergence.
   - drop-accumulation: truncate the innermost reduction loop to a single
     iteration (the classic lost "+=" bug - visible even though outputs
     start at zero, because the partial sum differs from the full one). *)

type t =
  | Swap_factor_indices
  | Corrupt_stride
  | Drop_accumulation

let all = [ Swap_factor_indices; Corrupt_stride; Drop_accumulation ]

let name = function
  | Swap_factor_indices -> "swap-index"
  | Corrupt_stride -> "corrupt-stride"
  | Drop_accumulation -> "drop-accumulation"

let of_name s = List.find_opt (fun m -> name m = s) all

(* Apply a mutation to one kernel. Kernels without the required structure
   (e.g. no multi-dim factor to swap, no reduction loop to truncate) are
   returned unchanged - [applied] reports whether anything changed so
   harnesses can skip vacuous cases. *)
let apply m (k : Codegen.Kernel.t) =
  match m with
  | Swap_factor_indices ->
    let swapped = ref false in
    let factors =
      List.map
        (fun (fname, dims) ->
          match dims with
          | a :: b :: rest when not !swapped ->
            swapped := true;
            (fname, b :: a :: rest)
          | _ -> (fname, dims))
        k.op.factors
    in
    ({ k with op = { k.op with factors } }, !swapped)
  | Corrupt_stride -> (
    (* bump the extent of an index that sits at position >= 1 of some
       reference: the strides of every dim before it are products of the
       trailing extents, so the bump genuinely corrupts an address *)
    let refs = (k.op.out, k.op.out_indices) :: k.op.factors in
    let candidate =
      List.fold_left
        (fun acc (_, dims) ->
          match (acc, dims) with
          | Some _, _ -> acc
          | None, _ :: (second :: _) -> Some second
          | None, _ -> None)
        None refs
    in
    match candidate with
    | None -> (k, false)
    | Some i ->
      let extents =
        List.map
          (fun (j, e) -> if j = i then (j, e + 1) else (j, e))
          k.extents
      in
      ({ k with extents }, true))
  | Drop_accumulation -> (
    match
      List.rev k.thread_loops
      |> List.find_opt (fun (l : Codegen.Kernel.loop) -> (not l.parallel) && l.extent > 1)
    with
    | None -> (k, false)
    | Some victim ->
      let thread_loops =
        List.map
          (fun (l : Codegen.Kernel.loop) ->
            if l == victim then { l with extent = 1; unroll = 1 } else l)
          k.thread_loops
      in
      ({ k with thread_loops }, true))
