(* Tests for the SURF machine-learning stack: feature binarization,
   extremely randomized trees, the forest, and the model-based search. *)

let check_int = Alcotest.(check int)

(* ---------------- Feature binarization ---------------- *)

let samples =
  [
    [ ("tx", Surf.Feature.Cat "i"); ("u", Surf.Feature.Num 1.0) ];
    [ ("tx", Surf.Feature.Cat "j"); ("u", Surf.Feature.Num 4.0) ];
    [ ("tx", Surf.Feature.Cat "m"); ("u", Surf.Feature.Num 2.0) ];
  ]

let test_schema_dimensions () =
  let schema = Surf.Feature.make_schema samples in
  (* three one-hot columns for tx plus one numeric for u *)
  check_int "columns" 4 (Surf.Feature.dimension schema)

let test_encode_onehot () =
  let schema = Surf.Feature.make_schema samples in
  let v = Surf.Feature.encode schema (List.nth samples 1) in
  let total = Array.fold_left ( +. ) 0.0 (Array.sub v 0 3) in
  Alcotest.(check (float 1e-9)) "exactly one hot" 1.0 total;
  Alcotest.(check (float 1e-9)) "numeric passthrough" 4.0 v.(3)

let test_encode_unknown_category () =
  let schema = Surf.Feature.make_schema samples in
  let v = Surf.Feature.encode schema [ ("tx", Surf.Feature.Cat "zz"); ("u", Surf.Feature.Num 0.5) ] in
  Alcotest.(check (float 1e-9)) "no column lights up" 0.0
    (Array.fold_left ( +. ) 0.0 (Array.sub v 0 3))

let test_encode_first_occurrence_and_kinds () =
  let schema = Surf.Feature.make_schema samples in
  let v = Surf.Feature.encode schema in
  (* only a name's first occurrence counts *)
  Alcotest.(check (array (float 0.0))) "first tx and u win" [| 0.0; 1.0; 0.0; 2.0 |]
    (v [ ("tx", Surf.Feature.Cat "j"); ("u", Surf.Feature.Num 2.0);
         ("tx", Surf.Feature.Cat "i"); ("u", Surf.Feature.Num 8.0) ]);
  (* a Num on a one-hot name and a Cat on a numeric name light nothing, and
     still use up the name's first occurrence *)
  Alcotest.(check (array (float 0.0))) "mismatched kinds encode as 0" [| 0.0; 0.0; 0.0; 0.0 |]
    (v [ ("tx", Surf.Feature.Num 1.0); ("u", Surf.Feature.Cat "i");
         ("tx", Surf.Feature.Cat "i"); ("u", Surf.Feature.Num 8.0) ]);
  Alcotest.(check (array string)) "columns by first appearance, categories sorted"
    [| "tx=i"; "tx=j"; "tx=m"; "u" |]
    (Array.map Surf.Feature.column_name schema.columns)

let test_column_names () =
  let schema = Surf.Feature.make_schema samples in
  let names =
    List.init (Surf.Feature.dimension schema) (fun i ->
        Surf.Feature.column_name
          (match schema with { columns } -> columns.(i)))
  in
  Alcotest.(check bool) "onehot name" true (List.mem "tx=i" names);
  Alcotest.(check bool) "numeric name" true (List.mem "u" names)

(* ---------------- Trees and forest ---------------- *)

let grid_xy f =
  let xs = ref [] and ys = ref [] in
  for a = 0 to 9 do
    for b = 0 to 9 do
      xs := [| float_of_int a; float_of_int b |] :: !xs;
      ys := f a b :: !ys
    done
  done;
  (Array.of_list !xs, Array.of_list !ys)

let test_tree_constant () =
  let rng = Util.Rng.create 3 in
  let x, _ = grid_xy (fun _ _ -> 5.0) in
  let y = Array.make (Array.length x) 5.0 in
  let t = Surf.Tree.fit rng x y in
  Alcotest.(check (float 1e-9)) "predicts the constant" 5.0 (Surf.Tree.predict t [| 3.0; 3.0 |])

let test_tree_separable () =
  let rng = Util.Rng.create 4 in
  let x, y = grid_xy (fun a _ -> if a < 5 then 0.0 else 10.0) in
  let t = Surf.Tree.fit rng x y in
  Alcotest.(check bool) "left side low" true (Surf.Tree.predict t [| 1.0; 5.0 |] < 3.0);
  Alcotest.(check bool) "right side high" true (Surf.Tree.predict t [| 8.0; 5.0 |] > 7.0)

let test_tree_beats_mean () =
  let rng = Util.Rng.create 5 in
  let x, y = grid_xy (fun a b -> float_of_int ((a * a) + b)) in
  let t = Surf.Tree.fit rng x y in
  let mean = Array.fold_left ( +. ) 0.0 y /. float_of_int (Array.length y) in
  let err f =
    let s = ref 0.0 in
    Array.iteri (fun i xi -> s := !s +. ((f xi -. y.(i)) ** 2.0)) x;
    !s
  in
  Alcotest.(check bool) "fits better than the mean" true
    (err (Surf.Tree.predict t) < 0.5 *. err (fun _ -> mean))

let test_tree_structure_bounds () =
  let rng = Util.Rng.create 6 in
  let x, y = grid_xy (fun a b -> float_of_int (a + b)) in
  let t = Surf.Tree.fit rng x y in
  Alcotest.(check bool) "depth bounded" true (Surf.Tree.depth t <= 24);
  Alcotest.(check bool) "leaves bounded by samples" true (Surf.Tree.num_leaves t <= 100)

let test_tree_empty_rejected () =
  let rng = Util.Rng.create 6 in
  Alcotest.(check bool) "empty raises" true
    (try
       ignore (Surf.Tree.fit rng [||] [||]);
       false
     with Invalid_argument _ -> true)

let test_forest_interpolates () =
  let rng = Util.Rng.create 7 in
  let x, y = grid_xy (fun a b -> float_of_int (a + b)) in
  let f = Surf.Forest.fit rng x y in
  (* ensemble mean at a training point should be close to the target *)
  let p = Surf.Forest.predict f [| 4.0; 4.0 |] in
  Alcotest.(check bool) "close to 8" true (abs_float (p -. 8.0) < 2.0)

let test_forest_variance_positive_off_data () =
  let rng = Util.Rng.create 8 in
  let x, y = grid_xy (fun a b -> float_of_int ((a * 13) + b)) in
  let f = Surf.Forest.fit rng x y in
  Alcotest.(check bool) "spread nonnegative" true (Surf.Forest.predict_std f [| 4.5; 4.5 |] >= 0.0)

(* ---------------- Search ---------------- *)

(* A deterministic objective over a finite pool with a unique optimum. *)
let pool_100 = Array.init 100 (fun i -> i)

let objective i =
  let x = float_of_int i in
  ((x -. 63.0) ** 2.0) +. (10.0 *. sin x *. sin x)

let encode i = [| float_of_int (i mod 10); float_of_int (i / 10) |]

let test_exhaustive_finds_min () =
  let r = Surf.Search.exhaustive ~pool:pool_100 ~eval:objective in
  check_int "optimum" 63 r.best.config;
  check_int "evaluated everything" 100 r.evaluations

let test_random_respects_budget () =
  let rng = Util.Rng.create 11 in
  let r = Surf.Search.random_search rng ~pool:pool_100 ~eval:objective ~max_evals:30 in
  check_int "thirty evals" 30 r.evaluations;
  Alcotest.(check bool) "best among evaluated" true
    (List.exists (fun (e : int Surf.Search.evaluation) -> e.config = r.best.config) r.history)

let test_surf_budget_and_quality () =
  let rng = Util.Rng.create 12 in
  let cfg = { Surf.Search.default_config with max_evals = 40; batch_size = 8 } in
  let r = Surf.Search.surf ~config:cfg rng ~pool:pool_100 ~encode ~eval:objective in
  check_int "respects nmax" 40 r.evaluations;
  (* the model should find something near the basin around 63 *)
  Alcotest.(check bool) "near optimum" true (abs_float (float_of_int (r.best.config - 63)) <= 5.0)

let test_surf_never_overshoots_budget () =
  (* exact eval counts when the batch size does not divide the budget: the
     final batch must be truncated, never spill past max_evals *)
  List.iter
    (fun (max_evals, batch_size) ->
      let cfg = { Surf.Search.default_config with max_evals; batch_size } in
      let count = ref 0 in
      let eval i = incr count; objective i in
      let r = Surf.Search.surf ~config:cfg (Util.Rng.create 21) ~pool:pool_100 ~encode ~eval in
      let expect = min max_evals (Array.length pool_100) in
      check_int (Printf.sprintf "history (nmax=%d bs=%d)" max_evals batch_size)
        expect r.evaluations;
      check_int (Printf.sprintf "objective calls (nmax=%d bs=%d)" max_evals batch_size)
        expect !count)
    [ (23, 10); (7, 10); (40, 7); (10, 10); (1, 10) ]

let test_surf_batch_evaluator_budget_and_identity () =
  (* a plugged-in batch evaluator sees the same clamped batches and yields a
     bit-identical search to the default path *)
  let cfg = { Surf.Search.default_config with max_evals = 23; batch_size = 10 } in
  let run eval_batch =
    Surf.Search.surf ~config:cfg ?eval_batch (Util.Rng.create 22) ~pool:pool_100 ~encode
      ~eval:objective
  in
  let sizes = ref [] in
  let batched =
    run (Some (fun cs -> sizes := List.length cs :: !sizes; List.map objective cs))
  in
  let plain = run None in
  check_int "still exactly 23" 23 batched.evaluations;
  check_int "batch sizes sum to budget" 23 (List.fold_left ( + ) 0 !sizes);
  Alcotest.(check bool) "no batch exceeds batch_size" true
    (List.for_all (fun s -> s <= 10) !sizes);
  check_int "same winner as the unbatched path" plain.best.config batched.best.config;
  Alcotest.(check (list int)) "identical evaluation order"
    (List.map (fun (e : int Surf.Search.evaluation) -> e.config) plain.history)
    (List.map (fun (e : int Surf.Search.evaluation) -> e.config) batched.history)

let test_surf_small_pool () =
  let rng = Util.Rng.create 13 in
  let pool = Array.init 5 (fun i -> i) in
  let r = Surf.Search.surf rng ~pool ~encode ~eval:objective in
  check_int "evaluates whole pool" 5 r.evaluations

let test_surf_beats_random_on_structured () =
  (* averaged over seeds, SURF's best should be at least as good as random
     search with the same budget on a smooth objective *)
  let budget = 25 in
  let trials = 10 in
  let surf_wins = ref 0 in
  for seed = 1 to trials do
    let cfg = { Surf.Search.default_config with max_evals = budget; batch_size = 5 } in
    let rs =
      Surf.Search.random_search (Util.Rng.create (seed * 2)) ~pool:pool_100 ~eval:objective
        ~max_evals:budget
    in
    let ss =
      Surf.Search.surf ~config:cfg (Util.Rng.create ((seed * 2) + 1)) ~pool:pool_100 ~encode
        ~eval:objective
    in
    if ss.best.objective <= rs.best.objective then incr surf_wins
  done;
  Alcotest.(check bool)
    (Printf.sprintf "surf >= random in most trials (%d/%d)" !surf_wins trials)
    true
    (!surf_wins >= 6)

let test_convergence_curve_monotone () =
  let rng = Util.Rng.create 14 in
  let r = Surf.Search.random_search rng ~pool:pool_100 ~eval:objective ~max_evals:20 in
  let curve = Surf.Search.convergence_curve r in
  check_int "length" 20 (List.length curve);
  let rec non_increasing = function
    | a :: (b :: _ as rest) -> a >= b && non_increasing rest
    | _ -> true
  in
  Alcotest.(check bool) "non-increasing" true (non_increasing curve)

let test_surf_convergence_telemetry () =
  (* convergence regression on a fixed-seed search: the per-iteration log
     must cover the whole budget, keep best-so-far non-increasing, and end
     exactly at the reported winner *)
  let cfg = { Surf.Search.default_config with max_evals = 40; batch_size = 8 } in
  let r = Surf.Search.surf ~config:cfg (Util.Rng.create 12) ~pool:pool_100 ~encode ~eval:objective in
  let its = r.iterations in
  check_int "an initial batch plus refits" 5 (List.length its);
  Alcotest.(check bool) "best-so-far non-increasing" true (Obs.Search_log.monotone its);
  let last = List.nth its (List.length its - 1) in
  check_int "log accounts for every evaluation" r.evaluations last.evaluations;
  Alcotest.(check (float 1e-12)) "final best-so-far is the winner" r.best.objective
    last.Obs.Search_log.best_so_far;
  let first = List.hd its in
  Alcotest.(check bool) "random batch has no R^2" true (first.r2 = None);
  Alcotest.(check bool) "every refit reports R^2" true
    (List.for_all (fun (it : Obs.Search_log.iteration) -> it.r2 <> None) (List.tl its));
  List.iter
    (fun (it : Obs.Search_log.iteration) ->
      Alcotest.(check bool) "coverage within [0,1]" true
        (Obs.Search_log.coverage it >= 0.0 && Obs.Search_log.coverage it <= 1.0))
    its;
  (* telemetry must not perturb the search: same seed, same winner *)
  let r2 = Surf.Search.surf ~config:cfg (Util.Rng.create 12) ~pool:pool_100 ~encode ~eval:objective in
  check_int "rerun reproduces the winner" r.best.config r2.best.config;
  (* non-iterative strategies carry no iterations *)
  let rnd = Surf.Search.random_search (Util.Rng.create 9) ~pool:pool_100 ~eval:objective ~max_evals:10 in
  check_int "random search logs nothing" 0 (List.length rnd.iterations)

let history_of (r : int Surf.Search.result) =
  List.map (fun (e : int Surf.Search.evaluation) -> e.config) r.history

let rivals_of (r : int Surf.Search.result) =
  match r.explain with
  | None -> []
  | Some ex -> List.map (fun (c, _, _) -> c) ex.rivals

let test_surf_trajectory_pinned () =
  (* the whole fixed-seed trajectory, batch by batch, and the final model's
     ranking of what it left unevaluated *)
  let cfg = { Surf.Search.default_config with max_evals = 40; batch_size = 8 } in
  let r = Surf.Search.surf ~config:cfg (Util.Rng.create 12) ~pool:pool_100 ~encode ~eval:objective in
  Alcotest.(check (list int)) "history"
    [ 17; 30; 82; 84; 85; 2; 33; 55; 65; 45; 92; 54; 64; 75; 62; 94; 72; 44; 61; 74;
      71; 63; 73; 34; 51; 81; 83; 41; 53; 66; 43; 91; 52; 76; 56; 86; 46; 70; 60; 42 ]
    (history_of r);
  Alcotest.(check (list int)) "rivals" [ 80; 50; 96; 36; 93; 95; 35; 40; 67; 68 ] (rivals_of r)

(* The surrogate's trees, pinned: a default-params fit on the first 40 of
   pool_100's encoded rows and their objectives; the digests of its
   predictions on all 100 rows and of its importances, bit for bit. *)
let test_forest_fit_pinned () =
  let bits a =
    Digest.to_hex
      (Digest.string
         (String.concat ","
            (Array.to_list (Array.map (fun v -> Int64.to_string (Int64.bits_of_float v)) a))))
  in
  let rows = Array.map encode pool_100 in
  let f =
    Surf.Forest.fit (Util.Rng.create 5) (Array.sub rows 0 40)
      (Array.map objective (Array.sub pool_100 0 40))
  in
  Alcotest.(check string) "predictions" "b199c16bbae52a666ba12865181b68fb"
    (bits (Array.map (Surf.Forest.predict f) rows));
  Alcotest.(check string) "importance" "22c0183d63e6db20dbdb316f73e15175"
    (bits (Surf.Forest.importance f ~dims:2))

(* ---------------- The in-place fit and the bounded ranking ---------------- *)

(* The allocating fit the in-place one replaced, squaring by
   multiplication: the oracle of "fit equals a reference". It draws from
   the generator in the same order (per node, [k_candidates] slots of up to
   8 attempts; the right child built before the left). *)
module Reference_tree = struct
  type node =
    | Leaf of float
    | Split of { feature : int; threshold : float; gain : float; left : node; right : node }

  let mean_of idx y =
    let s = ref 0.0 in
    Array.iter (fun i -> s := !s +. y.(i)) idx;
    !s /. float_of_int (Array.length idx)

  let sse_of idx y =
    let m = mean_of idx y in
    let s = ref 0.0 in
    Array.iter (fun i -> s := !s +. ((y.(i) -. m) *. (y.(i) -. m))) idx;
    !s

  let draw_split rng (x : float array array) idx dims =
    let rec attempt t =
      if t = 0 then None
      else begin
        let f = Util.Rng.int rng dims in
        let lo = ref infinity and hi = ref neg_infinity in
        Array.iter
          (fun i ->
            let v = x.(i).(f) in
            if not (!lo <= v) then lo := v;
            if not (!hi >= v) then hi := v)
          idx;
        if !hi > !lo then Some (f, Util.Rng.float_range rng !lo !hi) else attempt (t - 1)
      end
    in
    attempt 8

  let partition (x : float array array) idx f thr =
    ( List.filter (fun i -> x.(i).(f) <= thr) (Array.to_list idx) |> Array.of_list,
      List.filter (fun i -> x.(i).(f) > thr) (Array.to_list idx) |> Array.of_list )

  let fit (p : Surf.Tree.params) rng (x : float array array) y =
    let dims = Array.length x.(0) in
    let rec build idx sse depth =
      if Array.length idx < p.min_samples || depth >= p.max_depth || sse <= 1e-24 then
        Leaf (mean_of idx y)
      else begin
        let best = ref None in
        for _ = 1 to p.k_candidates do
          match draw_split rng x idx dims with
          | None -> ()
          | Some (f, thr) ->
            let l, r = partition x idx f thr in
            if Array.length l > 0 && Array.length r > 0 then begin
              let sl = sse_of l y and sr = sse_of r y in
              let gain = sse -. (sl +. sr) in
              match !best with
              | Some (g, _, _, _, _, _, _) when g >= gain -> ()
              | _ -> best := Some (gain, f, thr, l, sl, r, sr)
            end
        done;
        match !best with
        | None -> Leaf (mean_of idx y)
        | Some (gain, feature, threshold, l, sl, r, sr) ->
          let right = build r sr (depth + 1) in
          let left = build l sl (depth + 1) in
          Split { feature; threshold; gain; left; right }
      end
    in
    let root = Array.init (Array.length x) Fun.id in
    build root (sse_of root y) 0

  (* the flat tree holds exactly this node tree, bit for bit *)
  let rec equal (t : Surf.Tree.t) n = function
    | Leaf v -> t.feature.(n) < 0 && Int64.equal (Int64.bits_of_float t.value.(n)) (Int64.bits_of_float v)
    | Split s ->
      let same a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b) in
      t.feature.(n) = s.feature && same t.threshold.(n) s.threshold && same t.gain.(n) s.gain
      && equal t t.left.(n) s.left && equal t t.right.(n) s.right

  let rec size = function Leaf _ -> 1 | Split s -> 1 + size s.left + size s.right
end

(* A random training set: 1-120 rows of 1-40 columns, each column 0/1 or a
   small integer, with NaN, -0.0 and +0.0 entries and duplicated rows; the
   targets random, small integers, constant, or constant plus a spread near
   the leaf test's 1e-24. *)
let random_training_set rng =
  let rows = 1 + Util.Rng.int rng 120 and dims = 1 + Util.Rng.int rng 40 in
  let entry kind =
    match Util.Rng.int rng 12 with
    | 0 -> Float.nan
    | 1 -> -0.0
    | 2 -> 0.0
    | _ -> float_of_int (Util.Rng.int rng (if kind then 2 else 5))
  in
  let kinds = Array.init dims (fun _ -> Util.Rng.int rng 2 = 0) in
  let x = Array.make rows [||] in
  for i = 0 to rows - 1 do
    x.(i) <-
      (if i > 0 && Util.Rng.int rng 4 = 0 then Array.copy x.(Util.Rng.int rng i)
       else Array.map entry kinds)
  done;
  let c = Util.Rng.float_range rng (-5.0) 5.0 in
  let y =
    match Util.Rng.int rng 4 with
    | 0 -> Array.init rows (fun _ -> Util.Rng.float_range rng (-3.0) 3.0)
    | 1 -> Array.init rows (fun _ -> float_of_int (Util.Rng.int rng 3))
    | 2 -> Array.make rows c
    | _ -> Array.init rows (fun _ -> c +. Util.Rng.float_range rng (-1e-12) 1e-12)
  in
  (x, y)

let qcheck_fit_equals_reference =
  QCheck.Test.make ~name:"fit equals a reference" ~count:300 QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Util.Rng.create seed in
      let x, y = random_training_set rng in
      let dims = Array.length x.(0) in
      let params =
        if Util.Rng.int rng 2 = 0 then
          { Surf.Tree.k_candidates = max 1 (int_of_float (sqrt (float_of_int dims)));
            min_samples = 2; max_depth = 24 }
        else
          { Surf.Tree.k_candidates = 1 + Util.Rng.int rng 6;
            min_samples = 1 + Util.Rng.int rng 4;
            max_depth = 1 + Util.Rng.int rng 24 }
      in
      let a = Util.Rng.create (seed + 1) and b = Util.Rng.create (seed + 1) in
      let t = Surf.Tree.fit ~params a x y in
      let r = Reference_tree.fit params b x y in
      Reference_tree.equal t 0 r
      && Array.length t.feature = Reference_tree.size r
      && Util.Rng.bits a = Util.Rng.bits b)

(* d = -0x1.48193ff80d9e8p-3 squares to ...54dp-6 under glibc's [pow] and
   to ...54ep-6 by multiplication: two rows whose residuals are d and -d
   pin the multiplication into the split's gain. *)
let test_fit_squares_by_multiplication () =
  let d = -0x1.48193ff80d9e8p-3 in
  let t = Surf.Tree.fit (Util.Rng.create 1) [| [| 0.0 |]; [| 1.0 |] |] [| d; -.d |] in
  Alcotest.(check (array int)) "one split over two leaves" [| 0; -1; -1 |] t.feature;
  Alcotest.(check string) "gain" "0x1.a480b6693154ep-5" (Printf.sprintf "%h" t.gain.(0))

(* SURF as it ranked before the bounded ranking: every unevaluated
   position predicted by the whole forest and stably sorted; the batch is
   the head of that order and the rivals the head of the final model's
   order after its batch. Returns the evaluated positions, the residuals'
   predictions and the rivals. *)
let reference_surf (cfg : Surf.Search.config) rng ~pool ~encode ~eval =
  let n = Array.length pool in
  let nmax = min cfg.max_evals n in
  let bs = max 1 (min cfg.batch_size nmax) in
  let evaluated = Array.make n false and history = ref [] in
  let evaluate batch =
    List.filteri (fun i _ -> i < nmax - List.length !history) batch
    |> List.iter (fun p ->
           evaluated.(p) <- true;
           history := (p, eval pool.(p)) :: !history)
  in
  evaluate (Array.to_list (Util.Rng.sample_without_replacement rng bs (Array.init n Fun.id)));
  let rows = Array.map encode pool in
  let residuals = ref [] and final = ref None in
  while List.length !history < nmax do
    let hist = List.rev !history in
    let x = Array.of_list (List.map (fun (p, _) -> rows.(p)) hist) in
    let y = Array.of_list (List.map snd hist) in
    let model = Surf.Forest.fit ~params:cfg.forest (Util.Rng.split rng) x y in
    let order () =
      List.filter (fun p -> not evaluated.(p)) (List.init n Fun.id)
      |> List.map (fun p -> (p, Surf.Forest.predict model rows.(p)))
      |> List.stable_sort (fun (_, a) (_, b) -> Float.compare a b)
    in
    let batch = List.filteri (fun i _ -> i < bs) (order ()) in
    let before = List.length !history in
    evaluate (List.map fst batch);
    let k = List.length !history - before in
    residuals := !residuals @ List.map snd (List.filteri (fun i _ -> i < k) batch);
    final := Some (model, order)
  done;
  let rivals =
    match !final with
    | None -> []
    | Some (model, order) ->
      List.filteri (fun i _ -> i < cfg.rivals) (order ())
      |> List.map (fun (p, pred) -> (p, pred, Surf.Forest.predict_std model rows.(p)))
  in
  (List.rev_map fst !history, !residuals, rivals)

(* A random search problem: pool rows of small integers and 0/1 entries
   (duplicated positions tie), objectives that tie, and now and then an
   infinite or NaN objective, which makes leaves that are not finite;
   budgets that leave a clamped last batch, and batch plus rivals at
   least the pool. *)
let qcheck_ranking_equals_stable_sort =
  QCheck.Test.make ~name:"ranking equals a stable sort" ~count:150 QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Util.Rng.create seed in
      let n = 1 + Util.Rng.int rng 150 and dims = 1 + Util.Rng.int rng 6 in
      let rows =
        Array.init n (fun _ ->
            Array.init dims (fun j -> float_of_int (Util.Rng.int rng (if j mod 2 = 0 then 2 else 4))))
      in
      Array.iteri
        (fun i _ -> if i > 0 && Util.Rng.int rng 5 = 0 then rows.(i) <- rows.(Util.Rng.int rng i))
        rows;
      let special = Util.Rng.int rng 4 in
      let objective =
        Array.init n (fun _ ->
            match Util.Rng.int rng 40 with
            | 0 when special = 1 -> infinity
            | 1 when special = 2 -> Float.nan
            | (0 | 1) when special = 3 -> if Util.Rng.int rng 2 = 0 then infinity else neg_infinity
            | _ ->
              if Util.Rng.int rng 2 = 0 then float_of_int (Util.Rng.int rng 4)
              else Util.Rng.float rng 10.0)
      in
      let cfg =
        {
          Surf.Search.batch_size = 1 + Util.Rng.int rng 12;
          max_evals = 1 + Util.Rng.int rng 60;
          rivals = Util.Rng.int rng 12;
          forest = { Surf.Forest.default_params with n_trees = 1 + Util.Rng.int rng 24 };
        }
      in
      let pool = Array.init n Fun.id in
      let encode p = rows.(p) and eval p = objective.(p) in
      let r = Surf.Search.surf ~config:cfg (Util.Rng.create seed) ~pool ~encode ~eval in
      let history, residuals, rivals =
        reference_surf cfg (Util.Rng.create seed) ~pool ~encode ~eval
      in
      let bits = List.map Int64.bits_of_float in
      let got_residuals, got_rivals =
        match r.explain with
        | None -> ([], [])
        | Some ex ->
          ( List.map (fun (_, pred, _) -> pred) ex.residuals,
            List.map (fun (p, pred, std) -> (p, Int64.bits_of_float pred, Int64.bits_of_float std)) ex.rivals )
      in
      history_of r = history
      && bits got_residuals = bits residuals
      && got_rivals
         = List.map (fun (p, pred, std) -> (p, Int64.bits_of_float pred, Int64.bits_of_float std)) rivals)

(* [predict_below] is the prediction, or a bound at least the cutoff and at
   most the prediction. *)
let qcheck_predict_below_bounds =
  QCheck.Test.make ~name:"predict_below is the prediction or a bound" ~count:100
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Util.Rng.create seed in
      let x, y = random_training_set rng in
      let f = Surf.Forest.fit (Util.Rng.split rng) x y in
      Array.for_all
        (fun row ->
          let p = Surf.Forest.predict f row in
          let cutoff = p +. Util.Rng.float_range rng (-1.0) 1.0 in
          let v = Surf.Forest.predict_below f row ~cutoff in
          Int64.equal (Int64.bits_of_float v) (Int64.bits_of_float p) || (cutoff <= v && v <= p))
        x)

let test_surf_ties_pick_lowest_positions () =
  (* after the random batch every prediction ties, so each model-guided
     batch (and the rival list) is the lowest unevaluated positions *)
  let cfg = { Surf.Search.default_config with max_evals = 30; batch_size = 10 } in
  let r =
    Surf.Search.surf ~config:cfg (Util.Rng.create 3) ~pool:pool_100 ~encode ~eval:(fun _ -> 1.0)
  in
  Alcotest.(check (list int)) "history"
    [ 48; 27; 93; 60; 69; 42; 16; 33; 3; 80; 0; 1; 2; 4; 5; 6; 7; 8; 9; 10; 11; 12; 13; 14;
      15; 17; 18; 19; 20; 21 ]
    (history_of r);
  Alcotest.(check (list int)) "rivals" [ 22; 23; 24; 25; 26; 28; 29; 30; 31; 32 ] (rivals_of r)

let test_surf_encodes_each_position_once () =
  List.iter
    (fun (max_evals, batch_size, expect) ->
      let calls = ref 0 in
      let encode i = incr calls; encode i in
      let cfg = { Surf.Search.default_config with max_evals; batch_size } in
      ignore (Surf.Search.surf ~config:cfg (Util.Rng.create 12) ~pool:pool_100 ~encode ~eval:objective);
      check_int (Printf.sprintf "encode calls (nmax=%d bs=%d)" max_evals batch_size) expect !calls)
    (* at 10/10 the random batch spends the budget: no model, no encoding *)
    [ (40, 8, 100); (100, 10, 100); (10, 10, 0) ]

let test_surf_rejects_unequal_widths () =
  let encode i = if i mod 2 = 0 then [| 0.0; 1.0 |] else [| 0.0; 1.0; 2.0 |] in
  Alcotest.check_raises "rows of unequal width"
    (Invalid_argument "Search.surf: encoded rows differ in width") (fun () ->
      ignore (Surf.Search.surf (Util.Rng.create 1) ~pool:pool_100 ~encode ~eval:objective))

let test_surf_encode_span () =
  let encode_spans max_evals =
    let cfg = { Surf.Search.default_config with max_evals; batch_size = 10 } in
    let _, events =
      Obs.Trace.collect (fun () ->
          Surf.Search.surf ~config:cfg (Util.Rng.create 12) ~pool:pool_100 ~encode ~eval:objective)
    in
    List.filter (fun (e : Obs.Trace.event) -> e.name = "surf.encode") events
  in
  (match encode_spans 30 with
  | [ e ] ->
    Alcotest.(check string) "category" "surf" e.cat;
    Alcotest.(check (option string)) "points = pool size" (Some "100")
      (List.assoc_opt "points" e.attrs)
  | es -> Alcotest.failf "expected one surf.encode span, got %d" (List.length es));
  check_int "no model, no encode span" 0 (List.length (encode_spans 10))

let test_surf_categorical_problem () =
  (* binarized categorical search: find the best (tx, unroll) combo *)
  let pool =
    Array.of_list
      (List.concat_map
         (fun tx -> List.map (fun u -> (tx, u)) [ 1; 2; 4; 8 ])
         [ "i"; "j"; "k"; "l"; "m" ])
  in
  let eval (tx, u) =
    (if tx = "k" then 1.0 else 10.0) +. abs_float (float_of_int u -. 4.0)
  in
  let feats (tx, u) = [ ("tx", Surf.Feature.Cat tx); ("u", Surf.Feature.Num (float_of_int u)) ] in
  let schema = Surf.Feature.make_schema (Array.to_list (Array.map feats pool)) in
  let encode c = Surf.Feature.encode schema (feats c) in
  let cfg = { Surf.Search.default_config with max_evals = 12; batch_size = 4 } in
  let r = Surf.Search.surf ~config:cfg (Util.Rng.create 15) ~pool ~encode ~eval in
  let tx, _ = r.best.config in
  Alcotest.(check string) "found the right category" "k" tx

let suite =
  [
    ("schema dimensions", `Quick, test_schema_dimensions);
    ("encode one-hot", `Quick, test_encode_onehot);
    ("encode unknown category", `Quick, test_encode_unknown_category);
    ("encode first occurrence and kinds", `Quick, test_encode_first_occurrence_and_kinds);
    ("column names", `Quick, test_column_names);
    ("tree constant", `Quick, test_tree_constant);
    ("tree separable", `Quick, test_tree_separable);
    ("tree beats mean", `Quick, test_tree_beats_mean);
    ("tree structure bounds", `Quick, test_tree_structure_bounds);
    ("tree empty rejected", `Quick, test_tree_empty_rejected);
    ("forest interpolates", `Quick, test_forest_interpolates);
    ("forest spread nonnegative", `Quick, test_forest_variance_positive_off_data);
    ("exhaustive finds min", `Quick, test_exhaustive_finds_min);
    ("random respects budget", `Quick, test_random_respects_budget);
    ("surf respects budget and converges", `Quick, test_surf_budget_and_quality);
    ("surf never overshoots budget", `Quick, test_surf_never_overshoots_budget);
    ("surf batch evaluator: budget + identity", `Quick, test_surf_batch_evaluator_budget_and_identity);
    ("surf small pool", `Quick, test_surf_small_pool);
    ("surf beats random on structured", `Slow, test_surf_beats_random_on_structured);
    ("convergence curve monotone", `Quick, test_convergence_curve_monotone);
    ("surf convergence telemetry", `Quick, test_surf_convergence_telemetry);
    ("surf categorical problem", `Quick, test_surf_categorical_problem);
    ("surf trajectory pinned", `Quick, test_surf_trajectory_pinned);
    ("forest fit pinned", `Quick, test_forest_fit_pinned);
    QCheck_alcotest.to_alcotest qcheck_fit_equals_reference;
    ("fit squares by multiplication", `Quick, test_fit_squares_by_multiplication);
    QCheck_alcotest.to_alcotest qcheck_ranking_equals_stable_sort;
    QCheck_alcotest.to_alcotest qcheck_predict_below_bounds;
    ("surf ties pick lowest positions", `Quick, test_surf_ties_pick_lowest_positions);
    ("surf encodes each position once", `Quick, test_surf_encodes_each_position_once);
    ("surf rejects unequal widths", `Quick, test_surf_rejects_unequal_widths);
    ("surf encode span", `Quick, test_surf_encode_span);
  ]
