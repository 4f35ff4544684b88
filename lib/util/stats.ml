(* Summary statistics used by the autotuner reports and SURF. *)

let mean = function
  | [] -> nan
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let variance xs =
  match xs with
  | [] | [ _ ] -> 0.0
  | _ ->
    let m = mean xs in
    let n = float_of_int (List.length xs) in
    List.fold_left (fun acc x -> acc +. ((x -. m) ** 2.0)) 0.0 xs /. n

let stddev xs = sqrt (variance xs)

let min_list = function
  | [] -> invalid_arg "Stats.min_list: empty"
  | x :: xs -> List.fold_left min x xs

let max_list = function
  | [] -> invalid_arg "Stats.max_list: empty"
  | x :: xs -> List.fold_left max x xs

let median xs =
  match xs with
  | [] -> nan
  | _ ->
    let arr = Array.of_list xs in
    Array.sort compare arr;
    let n = Array.length arr in
    if n mod 2 = 1 then arr.(n / 2) else (arr.((n / 2) - 1) +. arr.(n / 2)) /. 2.0

(* Percentile with linear interpolation between order statistics (the
   rank is p/100 * (n-1)), so percentile 0 = min, 50 = median, 100 = max. *)
let percentile p xs =
  if p < 0.0 || p > 100.0 then invalid_arg "Stats.percentile: p outside [0, 100]";
  match xs with
  | [] -> nan
  | _ ->
    let arr = Array.of_list xs in
    Array.sort compare arr;
    let n = Array.length arr in
    let rank = p /. 100.0 *. float_of_int (n - 1) in
    let lo = int_of_float (floor rank) in
    let hi = int_of_float (ceil rank) in
    if lo = hi then arr.(lo)
    else arr.(lo) +. ((rank -. float_of_int lo) *. (arr.(hi) -. arr.(lo)))

(* ------------------------------------------------------------------ *)
(* Two-sample comparison for the benchmark regression gate: Mann-Whitney U
   over the raw samples (rank statistics are robust to the heavy right
   tails of wall-time distributions) plus a percentile-bootstrap confidence
   interval on the ratio of medians. Both are deterministic: the test is
   closed-form and the bootstrap draws from an explicit Rng seed. *)

(* Standard normal CDF via the Abramowitz-Stegun 7.1.26 erf approximation
   (max absolute error ~1.5e-7, far below any alpha we gate on). *)
let normal_cdf z =
  let t = 1.0 /. (1.0 +. (0.3275911 *. abs_float z /. sqrt 2.0)) in
  let poly =
    t
    *. (0.254829592
       +. (t *. (-0.284496736 +. (t *. (1.421413741 +. (t *. (-1.453152027 +. (t *. 1.061405429))))))))
  in
  let erf = 1.0 -. (poly *. exp (-.(z *. z) /. 2.0)) in
  if z >= 0.0 then 0.5 *. (1.0 +. erf) else 0.5 *. (1.0 -. erf)

type mann_whitney = {
  u : float;  (* U statistic of the second sample: #{(a, b) pairs with b > a} *)
  z : float;
  p_greater : float;
  p_less : float;
  p_two_sided : float;
}

(* Average ranks with tie correction: rank the pooled samples, sum the
   second sample's ranks, derive U2 = R2 - n2(n2+1)/2. The normal
   approximation is exact enough for n >= ~8 and still well-behaved (if
   conservative) below; [compare_samples] falls back to a dominance rule
   when significance is unreachable at tiny n. *)
let mann_whitney a b =
  let n1 = List.length a and n2 = List.length b in
  if n1 = 0 || n2 = 0 then invalid_arg "Stats.mann_whitney: empty sample";
  let pooled =
    Array.of_list (List.map (fun x -> (x, false)) a @ List.map (fun x -> (x, true)) b)
  in
  Array.sort (fun (x, _) (y, _) -> compare x y) pooled;
  let n = Array.length pooled in
  let rank_sum_b = ref 0.0 in
  let tie_term = ref 0.0 in
  let i = ref 0 in
  while !i < n do
    (* [i, j) is one group of tied values *)
    let j = ref (!i + 1) in
    while !j < n && fst pooled.(!j) = fst pooled.(!i) do incr j done;
    let count = !j - !i in
    let avg_rank = float_of_int (!i + !j + 1) /. 2.0 in
    for k = !i to !j - 1 do
      if snd pooled.(k) then rank_sum_b := !rank_sum_b +. avg_rank
    done;
    let t = float_of_int count in
    if count > 1 then tie_term := !tie_term +. ((t *. t *. t) -. t);
    i := !j
  done;
  let fn1 = float_of_int n1 and fn2 = float_of_int n2 and fn = float_of_int n in
  let u = !rank_sum_b -. (fn2 *. (fn2 +. 1.0) /. 2.0) in
  let mu = fn1 *. fn2 /. 2.0 in
  let var =
    fn1 *. fn2 /. 12.0 *. (fn +. 1.0 -. (!tie_term /. (fn *. (fn -. 1.0))))
  in
  let z = if var <= 0.0 then 0.0 else (u -. mu) /. sqrt var in
  let p_greater = 1.0 -. normal_cdf z in
  let p_less = normal_cdf z in
  { u; z; p_greater; p_less; p_two_sided = 2.0 *. min p_greater p_less }

(* Percentile bootstrap of median(cur)/median(base). *)
let bootstrap_ratio_ci ?(iters = 1000) ?(confidence = 0.95) rng ~base ~cur =
  if base = [] || cur = [] then invalid_arg "Stats.bootstrap_ratio_ci: empty sample";
  let resample_median arr =
    let n = Array.length arr in
    median (List.init n (fun _ -> arr.(Rng.int rng n)))
  in
  let ab = Array.of_list base and ac = Array.of_list cur in
  let ratios =
    List.init iters (fun _ ->
        let mb = resample_median ab in
        let mc = resample_median ac in
        if mb = 0.0 then nan else mc /. mb)
    |> List.filter (fun r -> not (Float.is_nan r))
  in
  match ratios with
  | [] -> (nan, nan)
  | _ ->
    let tail = 100.0 *. (1.0 -. confidence) /. 2.0 in
    (percentile tail ratios, percentile (100.0 -. tail) ratios)

type comparison = {
  n_base : int;
  n_cur : int;
  median_base : float;
  median_cur : float;
  ratio : float;  (* median_cur / median_base *)
  p_slower : float;  (* one-sided Mann-Whitney: cur stochastically greater *)
  ci_low : float;  (* bootstrap CI on the ratio of medians *)
  ci_high : float;
  regression : bool;
  improvement : bool;
}

let choose n k =
  let k = min k (n - k) in
  if k < 0 then 0.0
  else
    let acc = ref 1.0 in
    for i = 1 to k do
      acc := !acc *. float_of_int (n - k + i) /. float_of_int i
    done;
    !acc

let compare_samples ?(alpha = 0.01) ?(min_ratio = 1.10) ?(iters = 1000) ?(seed = 97)
    ~base ~cur () =
  if base = [] || cur = [] then invalid_arg "Stats.compare_samples: empty sample";
  let n_base = List.length base and n_cur = List.length cur in
  let median_base = median base and median_cur = median cur in
  let ratio = if median_base = 0.0 then nan else median_cur /. median_base in
  let mw = mann_whitney base cur in
  let ci_low, ci_high =
    bootstrap_ratio_ci ~iters (Rng.create seed) ~base ~cur
  in
  (* The smallest one-sided p the U test can produce with these sample
     sizes is 1/C(n1+n2, n1); when even that exceeds alpha (tiny n), no
     shift can be "significant", so fall back to strict dominance. *)
  let attainable = 1.0 /. choose (n_base + n_cur) n_base <= alpha in
  let dominates_slower = min_list cur > max_list base in
  let dominates_faster = max_list cur < min_list base in
  let regression =
    (not (Float.is_nan ratio))
    && ratio >= min_ratio
    && (if attainable then mw.p_greater < alpha && ci_low > 1.0 else dominates_slower)
  in
  let improvement =
    (not (Float.is_nan ratio))
    && ratio <= 1.0 /. min_ratio
    && (if attainable then mw.p_less < alpha && ci_high < 1.0 else dominates_faster)
  in
  {
    n_base;
    n_cur;
    median_base;
    median_cur;
    ratio;
    p_slower = mw.p_greater;
    ci_low;
    ci_high;
    regression;
    improvement;
  }

(* Coefficient of determination of predictions vs. observations. *)
let r_squared ~actual ~predicted =
  if List.length actual <> List.length predicted then
    invalid_arg "Stats.r_squared: length mismatch";
  let m = mean actual in
  let ss_tot = List.fold_left (fun acc y -> acc +. ((y -. m) ** 2.0)) 0.0 actual in
  let ss_res =
    List.fold_left2 (fun acc y yh -> acc +. ((y -. yh) ** 2.0)) 0.0 actual predicted
  in
  if ss_tot = 0.0 then if ss_res = 0.0 then 1.0 else 0.0 else 1.0 -. (ss_res /. ss_tot)
