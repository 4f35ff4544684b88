(* Memory access-pattern analysis for tensor references (Section IV).

   A tensor reference is *contiguous* w.r.t. a loop order when its index
   list appears in the same relative order as the loops, i.e. the innermost
   loops touch the fastest-varying (row-major) dimensions: such references
   achieve global-memory coalescing when the innermost parallel loop becomes
   ThreadX. *)

(* Position of each index of [ref_indices] within [loop_order]. *)
let positions loop_order ref_indices =
  List.map
    (fun i ->
      let rec find pos = function
        | [] -> invalid_arg (Printf.sprintf "Access.positions: %s not in loop order" i)
        | x :: rest -> if x = i then pos else find (pos + 1) rest
      in
      find 0 loop_order)
    ref_indices

let rec is_sorted = function
  | a :: (b :: _ as rest) -> a <= b && is_sorted rest
  | _ -> true

(* [contiguous ~loop_order indices]: the reference's dimensions appear in
   loop order, so consecutive iterations of inner loops walk memory in
   order. *)
let contiguous ~loop_order ref_indices =
  match ref_indices with
  | [] | [ _ ] -> true
  | _ -> is_sorted (positions loop_order ref_indices)

(* Loop indices that access some factor (or the output) of [op] with unit
   stride: the candidates for coalesced ThreadX mapping. *)
let unit_stride_indices (op : Ir.op) =
  let refs = (op.out, op.out_indices) :: op.factors in
  refs
  |> List.filter_map (fun (_, indices) ->
         match List.rev indices with
         | [] -> None
         | last :: _ -> Some last)
  |> List.sort_uniq compare
