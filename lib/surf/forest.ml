(* Random-forest surrogate: an ensemble of extremely randomized trees, the
   "randomized trees" model of Section V. Prediction is the ensemble mean,
   summed in tree order; the ensemble spread is a crude uncertainty that
   the search reports beside its batches and rivals.

   The training rows are turned column-major once per fit and shared by
   all its trees. Each fit also keeps every tree's smallest leaf:
   [predict_below] adds them to a partial sum to bound a prediction from
   below, so the search can stop summing a position that cannot rank.
   Spreads are squared by multiplication, never through libm. *)

type t = {
  trees : Tree.t array;
  lowest : float array;  (* each tree's smallest leaf *)
  finite : bool;  (* every leaf of every tree is finite *)
}

type params = {
  n_trees : int;
  tree_params : Tree.params option;
}

let default_params = { n_trees = 24; tree_params = None }

let fit ?(params = default_params) rng (x : float array array) (y : float array) =
  if Array.length x <> Array.length y then invalid_arg "Forest.fit: length mismatch";
  let cols = Tree.columns x in
  let trees =
    Array.init params.n_trees (fun _ ->
        Tree.fit_columns ?params:params.tree_params (Util.Rng.split rng) cols y)
  in
  let leaves =
    Array.map
      (fun (tree : Tree.t) ->
        List.filteri (fun n _ -> tree.feature.(n) < 0) (Array.to_list tree.value))
      trees
  in
  {
    trees;
    lowest = Array.map (List.fold_left Float.min infinity) leaves;
    finite = Array.for_all (List.for_all Float.is_finite) leaves;
  }

(* Trees are summed in order with a local accumulator, here and in
   [predict_below], so no per-tree float crosses a call. *)
let predict t features =
  let s = ref 0.0 in
  for j = 0 to Array.length t.trees - 1 do
    let tree = t.trees.(j) in
    s := !s +. tree.value.(Tree.leaf tree features)
  done;
  !s /. float_of_int (Array.length t.trees)

(* After each tree, the partial sum plus every remaining tree's smallest
   leaf, added in tree order, bounds the finished sum from below: rounded
   addition is monotone, and so is the division by the tree count. So once
   that bound reaches [cutoff] the prediction cannot fall below it, and the
   remaining trees are skipped. A non-finite leaf voids the bound (inf -
   inf), and then every tree is summed. *)
let predict_below t features ~cutoff =
  let n = Array.length t.trees in
  let count = float_of_int n in
  let s = ref 0.0 and j = ref 0 and below = ref true in
  while !below && !j < n do
    let tree = t.trees.(!j) in
    s := !s +. tree.value.(Tree.leaf tree features);
    incr j;
    if t.finite && !j < n then begin
      let b = ref !s in
      for i = !j to n - 1 do
        b := !b +. t.lowest.(i)
      done;
      if !b /. count >= cutoff then begin
        s := !b;
        below := false
      end
    end
  done;
  !s /. count

(* Split-gain feature importance over the whole ensemble, normalized to
   sum to 1 (all zeros when no tree ever split - e.g. constant targets). *)
let importance t ~dims =
  let acc = Array.make dims 0.0 in
  Array.iter (fun tree -> Tree.add_importance tree acc) t.trees;
  let total = Array.fold_left ( +. ) 0.0 acc in
  if total > 0.0 then Array.map (fun g -> g /. total) acc else acc

let predict_std t features =
  let n = Array.length t.trees in
  let preds = Array.map (fun tree -> Tree.predict tree features) t.trees in
  let m = Array.fold_left ( +. ) 0.0 preds /. float_of_int n in
  let sq acc p =
    let d = p -. m in
    acc +. (d *. d)
  in
  sqrt (Array.fold_left sq 0.0 preds /. float_of_int n)
