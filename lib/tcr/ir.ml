(* Tensor Contraction Representation: the intermediate form of Figure 2(b).

   A program is a list of accumulation statements over named index
   variables, together with the extent of every index and the declaration of
   every tensor (inputs, temporaries, outputs). Arrays are dense row-major
   ("access: linearize"). Each statement becomes one GPU kernel. *)

type role = Input | Temp | Output

type var = {
  name : string;
  dims : string list;  (* index names, outermost first; row-major layout *)
  role : role;
}

type op = {
  out : string;
  out_indices : string list;
  factors : (string * string list) list;
  loop_order : string list;  (* full iteration order, outermost first *)
}

type t = {
  label : string;
  extents : (string * int) list;
  vars : var list;
  ops : op list;
}

(* Index names compare as strings: [List.mem] and [List.assoc_opt] would
   go through polymorphic compare, and the tuner's static gate asks these
   questions on every draw. The first match wins, as with the stdlib. *)
let rec mem_index i = function
  | [] -> false
  | j :: rest -> String.equal i j || mem_index i rest

let rec assoc_index i = function
  | [] -> None
  | (j, v) :: rest -> if String.equal i j then Some v else assoc_index i rest

let is_permutation a b =
  List.equal String.equal (List.sort String.compare a) (List.sort String.compare b)

let extent t name =
  match assoc_index name t.extents with
  | Some e -> e
  | None -> invalid_arg (Printf.sprintf "Ir.extent: unknown index %s" name)

let var t name =
  match List.find_opt (fun v -> v.name = name) t.vars with
  | Some v -> v
  | None -> invalid_arg (Printf.sprintf "Ir.var: unknown tensor %s" name)

let var_shape t name =
  Tensor.Shape.of_list (List.map (extent t) (var t name).dims)

let iteration_indices (op : op) =
  List.sort_uniq compare (op.out_indices @ List.concat_map snd op.factors)

(* Indices summed over by [op]: present in a factor but not in the output. *)
let reduction_indices (op : op) =
  List.filter (fun i -> not (List.mem i op.out_indices)) (iteration_indices op)

let inputs t = List.filter (fun v -> v.role = Input) t.vars
let temps t = List.filter (fun v -> v.role = Temp) t.vars
let outputs t = List.filter (fun v -> v.role = Output) t.vars

(* Multiply-add flops of one op / the whole program. *)
let op_flops t op =
  let space =
    List.fold_left (fun acc i -> acc * extent t i) 1 (iteration_indices op)
  in
  space * 2

let flops t = List.fold_left (fun acc op -> acc + op_flops t op) 0 t.ops

(* Bytes of each tensor (doubles). *)
let var_bytes t name = 8 * Tensor.Shape.num_elements (var_shape t name)

(* ------------------------------------------------------------------ *)
(* Construction from an OCTOPI variant *)

let of_variant ~label (contraction : Octopi.Contraction.t) (v : Octopi.Variants.variant) =
  let ops =
    List.map2
      (fun (op : Octopi.Plan.op) loop_order ->
        { out = op.out; out_indices = op.out_indices; factors = op.factors; loop_order })
      v.ops v.schedule.loop_orders
  in
  let produced = List.map (fun op -> op.out) ops in
  let var_tbl : (string, var) Hashtbl.t = Hashtbl.create 16 in
  let order = ref [] in
  let declare name dims role =
    if not (Hashtbl.mem var_tbl name) then begin
      Hashtbl.add var_tbl name { name; dims; role };
      order := name :: !order
    end
  in
  List.iter
    (fun op ->
      List.iter
        (fun (name, dims) ->
          if not (List.mem name produced) then declare name dims Input)
        op.factors)
    ops;
  List.iter
    (fun op ->
      let role = if op.out = contraction.output then Output else Temp in
      declare op.out op.out_indices role)
    ops;
  let vars = List.rev_map (Hashtbl.find var_tbl) !order in
  { label; extents = contraction.extents; vars; ops }

(* Validation: every index used has an extent, factor dims match
   declarations, ops are in producer-before-consumer order. *)
let validate t =
  let defined = ref [] in
  List.iter (fun (v : var) -> if v.role = Input then defined := v.name :: !defined) t.vars;
  List.iter
    (fun op ->
      List.iter
        (fun i ->
          if not (List.mem_assoc i t.extents) then
            failwith (Printf.sprintf "Ir.validate: no extent for %s" i))
        (iteration_indices op);
      List.iter
        (fun (name, dims) ->
          let decl = var t name in
          if List.length decl.dims <> List.length dims then
            failwith (Printf.sprintf "Ir.validate: rank mismatch for %s" name);
          if not (List.mem name !defined) then
            failwith (Printf.sprintf "Ir.validate: %s read before being produced" name))
        op.factors;
      let order_set = List.sort compare op.loop_order in
      if order_set <> iteration_indices op then
        failwith (Printf.sprintf "Ir.validate: loop order of %s is not a permutation" op.out);
      defined := op.out :: !defined)
    t.ops;
  List.iter
    (fun (v : var) ->
      if v.role = Output && not (List.mem v.name !defined) then
        failwith (Printf.sprintf "Ir.validate: output %s never produced" v.name))
    t.vars

(* ------------------------------------------------------------------ *)
(* Printing, Figure 2(b) style *)

let pp_indices fmt indices =
  Format.fprintf fmt "(%s)" (String.concat "," indices)

let pp_op fmt op =
  Format.fprintf fmt "%s:%a += %s" op.out pp_indices op.out_indices
    (String.concat "*"
       (List.map
          (fun (name, idx) -> Format.asprintf "%s:%a" name pp_indices idx)
          op.factors))

let pp fmt t =
  Format.fprintf fmt "%s@\naccess: linearize@\ndefine:@\n" t.label;
  List.iter (fun (i, e) -> Format.fprintf fmt "%s = %d@\n" i e) t.extents;
  Format.fprintf fmt "variables:@\n";
  List.iter (fun (v : var) -> Format.fprintf fmt "%s:%a@\n" v.name pp_indices v.dims) t.vars;
  Format.fprintf fmt "operations:@\n";
  List.iter (fun op -> Format.fprintf fmt "%a@\n" pp_op op) t.ops

let to_string t = Format.asprintf "%a" pp t
