(* Semantic form of a single tensor-contraction statement.

   Normalizes an [Ast.stmt]: checks index consistency, infers the summation
   index set (indices appearing in factors but not in the output, per the
   Einstein convention) and attaches extents. *)

type t = {
  output : string;
  output_indices : string list;
  factors : Ast.tensor_ref list;
  sum_indices : string list;        (* sorted, no duplicates *)
  extents : (string * int) list;    (* every index used has an extent *)
}

exception Invalid of string

let invalid fmt = Printf.ksprintf (fun s -> raise (Invalid s)) fmt

let extent t name =
  match List.assoc_opt name t.extents with
  | Some e -> e
  | None -> invalid "no extent for index %s" name

let all_indices t =
  List.sort_uniq compare
    (t.output_indices @ List.concat_map (fun (f : Ast.tensor_ref) -> f.indices) t.factors)

(* Default extent used when the program omits a dims declaration; the paper's
   running example uses 10 for every index. *)
let default_extent = 10

let of_stmt ~extents (stmt : Ast.stmt) =
  let { Ast.lhs; sum_indices = declared; factors; accumulate = _ } = stmt in
  if factors = [] then invalid "statement for %s has no factors" lhs.name;
  let distinct_out = List.sort_uniq compare lhs.indices in
  if List.length distinct_out <> List.length lhs.indices then
    invalid "output %s repeats an index" lhs.name;
  List.iter
    (fun (f : Ast.tensor_ref) ->
      if List.length (List.sort_uniq compare f.indices) <> List.length f.indices then
        invalid "factor %s repeats an index (diagonals are unsupported)" f.name)
    factors;
  let factor_indices =
    List.sort_uniq compare (List.concat_map (fun (f : Ast.tensor_ref) -> f.indices) factors)
  in
  List.iter
    (fun i ->
      if not (List.mem i factor_indices) then
        invalid "output index %s of %s does not appear in any factor" i lhs.name)
    lhs.indices;
  let inferred = List.filter (fun i -> not (List.mem i lhs.indices)) factor_indices in
  (match declared with
  | [] -> ()
  | _ ->
    let declared_sorted = List.sort_uniq compare declared in
    if List.length declared_sorted <> List.length declared then
      invalid "summation list of %s repeats an index" lhs.name;
    List.iter
      (fun i ->
        if List.mem i lhs.indices then
          invalid "summation index %s also appears in the output of %s" i lhs.name;
        if not (List.mem i factor_indices) then
          invalid "summation index %s of %s does not appear in any factor" i lhs.name)
      declared;
    if declared_sorted <> inferred then
      invalid "summation list of %s omits contracted index" lhs.name);
  let used = List.sort_uniq compare (lhs.indices @ factor_indices) in
  let extents =
    List.map
      (fun i ->
        match List.assoc_opt i extents with
        | Some e ->
          if e <= 0 then invalid "extent of %s must be positive" i;
          (i, e)
        | None -> (i, default_extent))
      used
  in
  {
    output = lhs.name;
    output_indices = lhs.indices;
    factors;
    sum_indices = inferred;
    extents;
  }

(* Every tensor name has one shape across the program: a factor read with
   two shapes would be read past its allocation, and a tensor written with
   one shape and read with another cannot be laid out at all. The program's
   extents are global, so an index shared by two references has one
   extent. *)
let check_shapes statements =
  let seen = ref [] in
  let see t name indices =
    match List.find_opt (fun (n, _, _) -> String.equal n name) !seen with
    | None -> seen := (name, indices, t) :: !seen
    | Some (_, first, t0) ->
      let same a b = String.equal a b || extent t0 a = extent t b in
      if not (List.compare_lengths first indices = 0 && List.for_all2 same first indices) then
        let show t indices =
          "[" ^ String.concat "x" (List.map (fun i -> string_of_int (extent t i)) indices) ^ "]"
        in
        invalid "tensor %s is used with shapes %s and %s" name (show t0 first) (show t indices)
  in
  List.iter
    (fun t ->
      see t t.output t.output_indices;
      List.iter (fun (f : Ast.tensor_ref) -> see t f.name f.indices) t.factors)
    statements;
  statements

let of_program (p : Ast.program) =
  check_shapes (List.map (of_stmt ~extents:p.extents) p.stmts)

(* Flop count of the naive single-loop-nest evaluation: one (k-1)-multiply /
   one-add chain per point of the full iteration space. *)
let naive_flops t =
  let space = List.fold_left (fun acc i -> acc * extent t i) 1 (all_indices t) in
  space * List.length t.factors

(* Evaluate with the reference einsum oracle. [env] maps tensor names to
   dense tensors whose shapes agree with the declared extents. *)
let evaluate t env =
  let operands =
    List.map
      (fun (f : Ast.tensor_ref) ->
        match List.assoc_opt f.name env with
        | Some tensor -> Tensor.Einsum.operand tensor f.indices
        | None -> invalid "no data bound for tensor %s" f.name)
      t.factors
  in
  Tensor.Einsum.contract ~output_indices:t.output_indices operands

(* Random input environment for a contraction, suitable for tests. *)
let random_env ?(rng = Util.Rng.create 42) t =
  List.map
    (fun (f : Ast.tensor_ref) ->
      let shape = Tensor.Shape.of_list (List.map (extent t) f.indices) in
      (f.name, Tensor.Dense.random rng shape))
    (* bind each distinct tensor name once *)
    (List.fold_left
       (fun acc (f : Ast.tensor_ref) ->
         if List.exists (fun (g : Ast.tensor_ref) -> g.name = f.name) acc then acc
         else acc @ [ f ])
       [] t.factors)
