(* Strength reduction (paper Algorithm 1): enumeration of the ways an n-way
   contraction can be evaluated as a tree of binary contractions over
   temporaries.

   Each enumeration result is a [plan]: a tree whose leaves are the input
   tensors, whose [Contract] nodes multiply two sub-terms summing out every
   contraction index that no longer occurs elsewhere, and whose [Reduce]
   nodes perform the eager unary sum-out of Algorithm 1 lines 5-9 (an index
   occurring in a single term is summed immediately - doing so never
   increases cost). A plan lowers to a sequence of [op]s - exactly the TCR
   statements of Figure 2(b). *)

type node = {
  indices : string list;  (* free indices of this term, in canonical order *)
  kind : kind;
}

and kind =
  | Input of string
  | Reduce of { child : node; summed : string list }
  | Contract of { left : node; right : node; summed : string list }

type plan = {
  contraction : Contraction.t;
  root : node;
}

(* A lowered statement: out[out_indices] += prod factors, summing implicit. *)
type op = {
  out : string;
  out_indices : string list;
  factors : (string * string list) list;
}

let node_inputs node =
  let rec go acc = function
    | { kind = Input name; _ } -> name :: acc
    | { kind = Reduce { child; _ }; _ } -> go acc child
    | { kind = Contract { left; right; _ }; _ } -> go (go acc left) right
  in
  List.rev (go [] node)

(* Canonical structural key used to deduplicate plans that DFS reaches via
   different pair-choice orders. Children are sorted so that commutativity
   of the product does not create spurious variants. *)
let rec canonical node =
  match node.kind with
  | Input name -> name
  | Reduce { child; summed } ->
    Printf.sprintf "(sum%s %s)" (String.concat "" (List.sort compare summed)) (canonical child)
  | Contract { left; right; summed } ->
    let a = canonical left and b = canonical right in
    let l, r = if a <= b then (a, b) else (b, a) in
    Printf.sprintf "(%s*%s/%s)" l r (String.concat "" (List.sort compare summed))

(* ------------------------------------------------------------------ *)
(* Enumeration *)

let union a b = List.sort_uniq compare (a @ b)
let diff a b = List.filter (fun x -> not (List.mem x b)) a

(* Contraction indices of [indices] that occur in no other live term and not
   in the output, hence may be summed out now. *)
let summable contraction other_indices indices =
  List.filter
    (fun i ->
      List.mem i contraction.Contraction.sum_indices && not (List.mem i other_indices))
    indices

(* Apply the eager unary sum-out to every live term. *)
let reduce_terms contraction terms =
  List.mapi
    (fun pos term ->
      let other =
        List.concat (List.filteri (fun j _ -> j <> pos) (List.map (fun t -> t.indices) terms))
      in
      let summed = summable contraction other term.indices in
      if summed = [] then term
      else { indices = diff term.indices summed; kind = Reduce { child = term; summed } })
    terms

(* Enumerate every distinct contraction tree. Worst case is (2n-3)!! trees
   for n factors; the paper's workloads have n <= 4 (15 trees). *)
let enumerate contraction =
  (* Leaves keep the declared index order: it defines the input layout. *)
  let leaves =
    List.map
      (fun (f : Ast.tensor_ref) -> { indices = f.indices; kind = Input f.name })
      contraction.Contraction.factors
  in
  let seen = Hashtbl.create 64 in
  let results = ref [] in
  let rec go terms =
    let terms = reduce_terms contraction terms in
    match terms with
    | [] -> ()
    | [ root ] ->
      let key = canonical root in
      if not (Hashtbl.mem seen key) then begin
        Hashtbl.add seen key ();
        results := { contraction; root } :: !results
      end
    | _ ->
      let arr = Array.of_list terms in
      let n = Array.length arr in
      for a = 0 to n - 2 do
        for b = a + 1 to n - 1 do
          let rest = ref [] in
          for i = n - 1 downto 0 do
            if i <> a && i <> b then rest := arr.(i) :: !rest
          done;
          let other = List.concat_map (fun t -> t.indices) !rest in
          let merged = union arr.(a).indices arr.(b).indices in
          let summed = summable contraction other merged in
          let node =
            {
              indices = diff merged summed;
              kind = Contract { left = arr.(a); right = arr.(b); summed };
            }
          in
          go (!rest @ [ node ])
        done
      done
  in
  go leaves;
  List.rev !results

(* ------------------------------------------------------------------ *)
(* Cost model: flops of each loop nest *)

let space extents indices =
  List.fold_left
    (fun acc i ->
      match List.assoc_opt i extents with
      | Some e -> acc * e
      | None -> invalid_arg (Printf.sprintf "Plan.space: no extent for %s" i))
    1 indices

(* A Contract node iterates over the union of its children's free indices
   (which includes the indices it sums out); each point costs one multiply
   and one accumulate add. A Reduce node costs one add per point. *)
let rec node_flops extents node =
  match node.kind with
  | Input _ -> 0
  | Reduce { child; summed } ->
    space extents (union child.indices summed) + node_flops extents child
  | Contract { left; right; summed } ->
    let iter_space = union (union left.indices right.indices) summed in
    (2 * space extents iter_space) + node_flops extents left + node_flops extents right

let flops plan = node_flops plan.contraction.Contraction.extents plan.root

(* ------------------------------------------------------------------ *)
(* Lowering to a statement sequence *)

(* Temp names are T1, T2, ... in post-order; the final node writes the
   output tensor with the output's declared index order. *)
let lower plan =
  let counter = ref 0 in
  let ops = ref [] in
  let fresh () =
    incr counter;
    Printf.sprintf "T%d" !counter
  in
  let dest node ~is_root =
    if is_root then (plan.contraction.output, plan.contraction.output_indices)
    else (fresh (), node.indices)
  in
  let rec emit node ~is_root =
    match node.kind with
    | Input name ->
      if is_root then begin
        (* degenerate: direct copy of a single input *)
        let out, out_indices = dest node ~is_root in
        ops := { out; out_indices; factors = [ (name, node.indices) ] } :: !ops;
        (out, out_indices)
      end
      else (name, node.indices)
    | Reduce { child; summed = _ } ->
      let cname, cidx = emit child ~is_root:false in
      let out, out_indices = dest node ~is_root in
      ops := { out; out_indices; factors = [ (cname, cidx) ] } :: !ops;
      (out, out_indices)
    | Contract { left; right; summed = _ } ->
      let lname, lidx = emit left ~is_root:false in
      let rname, ridx = emit right ~is_root:false in
      let out, out_indices = dest node ~is_root in
      ops := { out; out_indices; factors = [ (lname, lidx); (rname, ridx) ] } :: !ops;
      (out, out_indices)
  in
  ignore (emit plan.root ~is_root:true);
  List.rev !ops

(* Names and index lists of the temporaries a plan introduces. *)
let temporaries plan =
  lower plan
  |> List.filter (fun op -> op.out <> plan.contraction.output)
  |> List.map (fun op -> (op.out, op.out_indices))

(* Evaluate a plan op-by-op with the einsum oracle; used to check that
   strength reduction preserves semantics. *)
let evaluate plan env =
  let bindings = Hashtbl.create 16 in
  List.iter (fun (name, t) -> Hashtbl.replace bindings name t) env;
  let result = ref None in
  List.iter
    (fun op ->
      let operands =
        List.map
          (fun (name, indices) ->
            match Hashtbl.find_opt bindings name with
            | Some t -> Tensor.Einsum.operand t indices
            | None -> invalid_arg (Printf.sprintf "Plan.evaluate: unbound tensor %s" name))
          op.factors
      in
      let value = Tensor.Einsum.contract ~output_indices:op.out_indices operands in
      Hashtbl.replace bindings op.out value;
      if op.out = plan.contraction.output then result := Some value)
    (lower plan);
  match !result with
  | Some v -> v
  | None -> invalid_arg "Plan.evaluate: plan produced no output"

let describe plan =
  lower plan
  |> List.map (fun op ->
         Printf.sprintf "%s:(%s) += %s" op.out
           (String.concat "," op.out_indices)
           (String.concat "*"
              (List.map
                 (fun (n, idx) -> Printf.sprintf "%s:(%s)" n (String.concat "," idx))
                 op.factors)))
  |> String.concat "; "
