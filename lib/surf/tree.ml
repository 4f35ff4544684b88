(* Extremely randomized regression tree (Geurts, Ernst & Wehenkel 2006),
   the base learner of SURF's surrogate model: at each node, K candidate
   splits are drawn with uniformly random thresholds and the one with the
   best variance reduction is kept. Randomizing thresholds instead of
   optimizing them is what lets the ensemble handle the one-hot columns of
   binarized decomposition parameters without overfitting. *)

type node =
  | Leaf of float
  | Split of {
      feature : int;
      threshold : float;
      gain : float;  (* SSE reduction of this split, for importances *)
      left : node;
      right : node;
    }

type t = { root : node }

type params = {
  k_candidates : int;    (* splits drawn per node; default sqrt dims *)
  min_samples : int;     (* do not split smaller nodes *)
  max_depth : int;
}

let default_params ~dims =
  { k_candidates = max 1 (int_of_float (sqrt (float_of_int dims))); min_samples = 2; max_depth = 24 }

(* Node statistics and the split draw loop over the index array with
   local float refs, which stay unboxed; sums run in index order. *)
let mean_of idx y =
  let n = Array.length idx in
  if n = 0 then 0.0
  else begin
    let s = ref 0.0 in
    for k = 0 to n - 1 do
      s := !s +. y.(idx.(k))
    done;
    !s /. float_of_int n
  end

(* Squares with [** 2.0] (libm [pow]), which [x *. x] does not match bit
   for bit. *)
let sse_of idx y =
  let m = mean_of idx y in
  let s = ref 0.0 in
  for k = 0 to Array.length idx - 1 do
    s := !s +. ((y.(idx.(k)) -. m) ** 2.0)
  done;
  !s

(* Candidate split: a feature with spread in this node and a uniform
   threshold strictly inside its range. The range updates are
   [Stdlib.min] and [Stdlib.max] (NaN and signed zeros included) on
   floats. *)
let draw_split rng (x : float array array) idx dims =
  let tries = 8 in
  let rec attempt t =
    if t = 0 then None
    else begin
      let f = Util.Rng.int rng dims in
      let lo = ref infinity and hi = ref neg_infinity in
      for k = 0 to Array.length idx - 1 do
        let v = x.(idx.(k)).(f) in
        if not (!lo <= v) then lo := v;
        if not (!hi >= v) then hi := v
      done;
      if !hi > !lo then Some (f, Util.Rng.float_range rng !lo !hi)
      else attempt (t - 1)
    end
  in
  attempt tries

(* Rows at or below the threshold, and rows above it, each in index
   order: count, then fill. A NaN feature is in neither. *)
let partition (x : float array array) idx feature threshold =
  let n = Array.length idx in
  let nl = ref 0 and nr = ref 0 in
  for k = 0 to n - 1 do
    let v = x.(idx.(k)).(feature) in
    if v <= threshold then incr nl else if v > threshold then incr nr
  done;
  let left = Array.make !nl 0 and right = Array.make !nr 0 in
  nl := 0;
  nr := 0;
  for k = 0 to n - 1 do
    let i = idx.(k) in
    let v = x.(i).(feature) in
    if v <= threshold then begin
      left.(!nl) <- i;
      incr nl
    end
    else if v > threshold then begin
      right.(!nr) <- i;
      incr nr
    end
  done;
  (left, right)

let fit ?params rng (x : float array array) (y : float array) =
  if Array.length x = 0 then invalid_arg "Tree.fit: empty training set";
  let dims = Array.length x.(0) in
  let p = match params with Some p -> p | None -> default_params ~dims in
  let rec build idx depth =
    let n = Array.length idx in
    if n < p.min_samples || depth >= p.max_depth || sse_of idx y <= 1e-24 then
      Leaf (mean_of idx y)
    else begin
      (* K randomized candidates; keep the best variance reduction *)
      let parent_sse = sse_of idx y in
      let best = ref None in
      for _ = 1 to p.k_candidates do
        match draw_split rng x idx dims with
        | None -> ()
        | Some (f, thr) ->
          let l, r = partition x idx f thr in
          if Array.length l > 0 && Array.length r > 0 then begin
            let gain = parent_sse -. (sse_of l y +. sse_of r y) in
            match !best with
            | Some (g, _, _, _, _) when g >= gain -> ()
            | _ -> best := Some (gain, f, thr, l, r)
          end
      done;
      match !best with
      | None -> Leaf (mean_of idx y)
      | Some (gain, f, thr, l, r) ->
        Split
          { feature = f; threshold = thr; gain;
            left = build l (depth + 1); right = build r (depth + 1) }
    end
  in
  { root = build (Array.init (Array.length x) (fun i -> i)) 0 }

let rec predict_node node (features : float array) =
  match node with
  | Leaf v -> v
  | Split { feature; threshold; left; right; _ } ->
    if features.(feature) <= threshold then predict_node left features
    else predict_node right features

let predict t features = predict_node t.root features

let rec depth_node = function
  | Leaf _ -> 0
  | Split { left; right; _ } -> 1 + max (depth_node left) (depth_node right)

let depth t = depth_node t.root

let rec leaves_node = function
  | Leaf _ -> 1
  | Split { left; right; _ } -> leaves_node left + leaves_node right

let num_leaves t = leaves_node t.root

(* Accumulate each split's variance-reduction gain onto its feature: the
   classic split-gain importance, summed here so the forest can normalize
   across its whole ensemble. *)
let rec add_importance_node acc = function
  | Leaf _ -> ()
  | Split { feature; gain; left; right; _ } ->
    acc.(feature) <- acc.(feature) +. gain;
    add_importance_node acc left;
    add_importance_node acc right

let add_importance t acc = add_importance_node acc t.root
