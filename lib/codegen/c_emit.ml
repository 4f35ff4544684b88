(* Sequential C and OpenACC emitters.

   The sequential emitter prints one loop nest per TCR statement using the
   fusion-aware loop orders, the form the paper's CPU baseline compiles.
   The OpenACC emitters decorate the same nests with directives: the
   *naive* variant only marks parallelism (no decomposition guidance); the
   *optimized* variant adds gang/vector clauses mirroring the Barracuda
   decomposition plus scalar replacement of the output (Section VI-B). *)

type mode =
  | Sequential
  | Openmp  (* outermost parallel loop per statement, as the paper's CPU baseline *)
  | Acc_naive
  | Acc_optimized of Tcr.Space.decomposition list  (* one per op *)

let offset_expr (ir : Tcr.Ir.t) (dims : string list) =
  let strides = Tensor.Shape.strides (Array.of_list (List.map (Tcr.Ir.extent ir) dims)) in
  List.mapi
    (fun pos idx ->
      if strides.(pos) = 1 then idx else Printf.sprintf "%s * %d" idx strides.(pos))
    dims
  |> String.concat " + "

let rhs_expr (ir : Tcr.Ir.t) (op : Tcr.Ir.op) =
  String.concat " * "
    (List.map
       (fun (name, dims) -> Printf.sprintf "%s[%s]" name (offset_expr ir dims))
       op.factors)

let out_expr (ir : Tcr.Ir.t) (op : Tcr.Ir.op) =
  Printf.sprintf "%s[%s]" op.out (offset_expr ir op.out_indices)

(* Emit one statement's loop nest. [decomp] (OpenACC optimized) brings the
   mapped indices outermost and scalar-replaces the output. *)
let emit_op b (ir : Tcr.Ir.t) ~mode (op : Tcr.Ir.op) =
  let line indent s = Buffer.add_string b (String.make indent ' ' ^ s ^ "\n") in
  let decomp =
    match mode with
    | Acc_optimized ds ->
      let pos =
        let rec find i = function
          | [] -> None
          | o :: rest -> if o == op then Some i else find (i + 1) rest
        in
        find 0 ir.ops
      in
      Option.bind pos (List.nth_opt ds)
    | _ -> None
  in
  (match mode with
  | Sequential -> ()
  | Openmp -> line 2 "#pragma omp parallel for"
  | Acc_naive -> line 2 "#pragma acc kernels loop"
  | Acc_optimized _ -> (
    match decomp with
    | None -> line 2 "#pragma acc kernels loop"
    | Some d ->
      let extent_prod l = List.fold_left (fun acc i -> acc * Tcr.Ir.extent ir i) 1 l in
      let gangs = extent_prod (d.bx :: Option.to_list d.by) in
      let vectors = extent_prod (d.tx :: Option.to_list d.ty) in
      line 2
        (Printf.sprintf "#pragma acc parallel loop gang(%d) vector_length(%d) collapse(%d)"
           gangs vectors (List.length op.out_indices))));
  let loop_order =
    match decomp with
    | Some d ->
      let mapped = Option.to_list d.by @ [ d.bx ] @ Option.to_list d.ty @ [ d.tx ] in
      mapped @ List.filter (fun i -> not (List.mem i mapped)) op.loop_order
    | None -> op.loop_order
  in
  let scalar_replace = decomp <> None in
  let is_reduction i = not (List.mem i op.out_indices) in
  let rec nest indent replaced = function
    | [] ->
      if replaced then line indent (Printf.sprintf "nv = nv + %s;" (rhs_expr ir op))
      else
        line indent
          (Printf.sprintf "%s = %s + %s;" (out_expr ir op) (out_expr ir op) (rhs_expr ir op))
    | i :: rest ->
      let all_reductions = List.for_all is_reduction (i :: rest) in
      if scalar_replace && all_reductions && not replaced then begin
        line indent (Printf.sprintf "double nv = %s;" (out_expr ir op));
        nest indent true (i :: rest);
        line indent (Printf.sprintf "%s = nv;" (out_expr ir op))
      end
      else begin
        line indent
          (Printf.sprintf "for (int %s = 0; %s < %d; %s++) {" i i (Tcr.Ir.extent ir i) i);
        nest (indent + 2) replaced rest;
        line indent "}"
      end
  in
  nest 2 false loop_order

let emit_program ?(mode = Sequential) (ir : Tcr.Ir.t) =
  let b = Buffer.create 2048 in
  let line indent s = Buffer.add_string b (String.make indent ' ' ^ s ^ "\n") in
  let qualifier =
    match mode with
    | Sequential -> "sequential"
    | Openmp -> "OpenMP"
    | Acc_naive -> "OpenACC naive"
    | Acc_optimized _ -> "OpenACC optimized"
  in
  line 0
    (Printf.sprintf "/* Generated by Barracuda (%s) from TCR program %s */" qualifier
       ir.label);
  line 0
    (Printf.sprintf "void %s(%s)" ir.label
       (String.concat ", " (List.map (fun (v : Tcr.Ir.var) -> "double *" ^ v.name) ir.vars)));
  line 0 "{";
  (match mode with
  | Sequential | Openmp -> ()
  | Acc_naive | Acc_optimized _ ->
    let names = List.map (fun (v : Tcr.Ir.var) -> v.name) ir.vars in
    line 2 (Printf.sprintf "#pragma acc data copy(%s)" (String.concat ", " names)));
  List.iteri
    (fun i (op : Tcr.Ir.op) ->
      line 2 (Printf.sprintf "/* statement %d */" (i + 1));
      emit_op b ir ~mode op)
    ir.ops;
  line 0 "}";
  Buffer.contents b
