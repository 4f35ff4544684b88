(* Extremely randomized regression tree (Geurts, Ernst & Wehenkel 2006),
   the base learner of SURF's surrogate model: at each node, K candidate
   splits are drawn with uniformly random thresholds and the one with the
   best variance reduction is kept. Randomizing thresholds instead of
   optimizing them is what lets the ensemble handle the one-hot columns of
   binarized decomposition parameters without overfitting.

   The fit works in place. It reads the training rows column by column,
   and one index buffer holds every node's rows as a segment. A candidate
   split is scored by two passes over its node's segment, allocating
   nothing; only the winning split is partitioned, stably, so every sum
   runs in the order of the row indices. Residuals are squared by
   multiplication, never through libm, so a tree does not depend on the C
   library. *)

type t = {
  feature : int array;
  threshold : float array;
  value : float array;
  gain : float array;
  left : int array;
  right : int array;
}

type params = {
  k_candidates : int;    (* splits drawn per node; default sqrt dims *)
  min_samples : int;     (* do not split smaller nodes *)
  max_depth : int;
}

let default_params ~dims =
  { k_candidates = max 1 (int_of_float (sqrt (float_of_int dims))); min_samples = 2; max_depth = 24 }

let fit_columns ?params rng (cols : float array array) (y : float array) =
  let rows = Array.length y in
  if rows = 0 then invalid_arg "Tree.fit: empty training set";
  let dims = Array.length cols in
  let p = match params with Some p -> p | None -> default_params ~dims in
  (* [idx.(lo) .. idx.(lo + n - 1)] are a node's rows; [spill] holds the
     right side of a partition while the left side moves down *)
  let idx = Array.init rows Fun.id and spill = Array.make rows 0 in
  (* every node holds at least one row and the leaves hold disjoint rows,
     so a tree has at most [2 rows - 1] nodes *)
  let cap = (2 * rows) - 1 in
  let feature = Array.make cap (-1) and threshold = Array.make cap 0.0 in
  let value = Array.make cap 0.0 and gain = Array.make cap 0.0 in
  let left = Array.make cap 0 and right = Array.make cap 0 in
  let nodes = ref 0 in
  let mean lo n =
    let s = ref 0.0 in
    for k = lo to lo + n - 1 do
      s := !s +. y.(idx.(k))
    done;
    !s /. float_of_int n
  in
  let sse lo n =
    let m = mean lo n in
    let s = ref 0.0 in
    for k = lo to lo + n - 1 do
      let d = y.(idx.(k)) -. m in
      s := !s +. (d *. d)
    done;
    !s
  in
  (* [sse] is the node's own SSE, computed once: at the root, or when the
     parent scored the split that made this node. Returns the node. *)
  let rec build lo n sse depth =
    let node = !nodes in
    incr nodes;
    if n < p.min_samples || depth >= p.max_depth || sse <= 1e-24 then
      value.(node) <- mean lo n
    else begin
      let best = ref (-1) and best_thr = ref 0.0 and best_gain = ref 0.0 in
      let best_sl = ref 0.0 and best_sr = ref 0.0 in
      for _ = 1 to p.k_candidates do
        (* a feature with spread in this node, and a uniform threshold
           strictly inside its range; up to 8 attempts. The range updates
           are [Stdlib.min] and [Stdlib.max] on floats, NaN and signed
           zeros included. *)
        let f = ref (-1) and thr = ref 0.0 and tries = ref 8 in
        while !tries > 0 do
          let g = Util.Rng.int rng dims in
          let col = cols.(g) in
          let lo_v = ref infinity and hi_v = ref neg_infinity in
          for k = lo to lo + n - 1 do
            let v = col.(idx.(k)) in
            if not (!lo_v <= v) then lo_v := v;
            if not (!hi_v >= v) then hi_v := v
          done;
          if !hi_v > !lo_v then begin
            f := g;
            thr := Util.Rng.float_range rng !lo_v !hi_v;
            tries := 0
          end
          else decr tries
        done;
        if !f >= 0 then begin
          (* rows at or below the threshold go left, rows above it right,
             and a NaN feature goes to neither: count and sum each side,
             then each side's squared deviations from its mean *)
          let col = cols.(!f) and t = !thr in
          let nl = ref 0 and nr = ref 0 and sl = ref 0.0 and sr = ref 0.0 in
          for k = lo to lo + n - 1 do
            let i = idx.(k) in
            let v = col.(i) in
            if v <= t then begin
              incr nl;
              sl := !sl +. y.(i)
            end
            else if v > t then begin
              incr nr;
              sr := !sr +. y.(i)
            end
          done;
          if !nl > 0 && !nr > 0 then begin
            let ml = !sl /. float_of_int !nl and mr = !sr /. float_of_int !nr in
            sl := 0.0;
            sr := 0.0;
            for k = lo to lo + n - 1 do
              let i = idx.(k) in
              let v = col.(i) in
              if v <= t then begin
                let d = y.(i) -. ml in
                sl := !sl +. (d *. d)
              end
              else if v > t then begin
                let d = y.(i) -. mr in
                sr := !sr +. (d *. d)
              end
            done;
            (* ties keep the earlier candidate *)
            let g = sse -. (!sl +. !sr) in
            if !best < 0 || not (!best_gain >= g) then begin
              best := !f;
              best_thr := t;
              best_gain := g;
              best_sl := !sl;
              best_sr := !sr
            end
          end
        end
      done;
      if !best < 0 then value.(node) <- mean lo n
      else begin
        let col = cols.(!best) and t = !best_thr in
        let nl = ref 0 and nr = ref 0 in
        for k = lo to lo + n - 1 do
          let i = idx.(k) in
          let v = col.(i) in
          if v <= t then begin
            idx.(lo + !nl) <- i;
            incr nl
          end
          else if v > t then begin
            spill.(!nr) <- i;
            incr nr
          end
        done;
        Array.blit spill 0 idx (lo + !nl) !nr;
        feature.(node) <- !best;
        threshold.(node) <- t;
        gain.(node) <- !best_gain;
        (* both children draw from [rng]: the right one is built first *)
        let sl = !best_sl and nl = !nl in
        right.(node) <- build (lo + nl) !nr !best_sr (depth + 1);
        left.(node) <- build lo nl sl (depth + 1)
      end
    end;
    node
  in
  ignore (build 0 rows (sse 0 rows) 0);
  let n = !nodes in
  {
    feature = Array.sub feature 0 n;
    threshold = Array.sub threshold 0 n;
    value = Array.sub value 0 n;
    gain = Array.sub gain 0 n;
    left = Array.sub left 0 n;
    right = Array.sub right 0 n;
  }

let columns (x : float array array) =
  if Array.length x = 0 then [||]
  else Array.init (Array.length x.(0)) (fun j -> Array.map (fun row -> row.(j)) x)

let fit ?params rng x y = fit_columns ?params rng (columns x) y

let leaf t (features : float array) =
  let n = ref 0 in
  while t.feature.(!n) >= 0 do
    n := if features.(t.feature.(!n)) <= t.threshold.(!n) then t.left.(!n) else t.right.(!n)
  done;
  !n

let predict t features = t.value.(leaf t features)

let depth t =
  let rec go n = if t.feature.(n) < 0 then 0 else 1 + max (go t.left.(n)) (go t.right.(n)) in
  go 0

let num_leaves t = Array.fold_left (fun acc f -> if f < 0 then acc + 1 else acc) 0 t.feature

(* Accumulate each split's variance-reduction gain onto its feature, in
   preorder (node, left, right): the classic split-gain importance, summed
   here so the forest can normalize across its whole ensemble. *)
let add_importance t acc =
  let rec go n =
    let f = t.feature.(n) in
    if f >= 0 then begin
      acc.(f) <- acc.(f) +. t.gain.(n);
      go t.left.(n);
      go t.right.(n)
    end
  in
  go 0
