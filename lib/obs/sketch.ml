(* DDSketch-style log-bucket quantile sketch.

   Bucket i covers (gamma^(i-1), gamma^i] with gamma = (1+a)/(1-a); the
   midpoint estimate 2*gamma^i/(gamma+1) is within relative error a of both
   edges: at v = gamma^(i-1) the ratio is 2*gamma/(gamma+1) = 1+a, at
   v = gamma^i it is 2/(gamma+1) = 1-a. Counts live in a hashtable keyed by
   bucket index; the occupied-bucket count is hard-capped by collapsing the
   two lowest buckets together (the DDSketch policy: tail quantiles - the
   ones monitoring cares about - keep their bound, quantiles near zero may
   degrade once [collapsed] reports true).

   Beside the buckets each sketch keeps exact streaming moments: count,
   running total, min/max and Welford's mean/m2 (the numerically stable
   update; the naive sum-of-squares formula cancels catastrophically when
   the spread is tiny next to the mean). Merges combine the moments with
   Chan et al.'s pairwise formula. *)

type t = {
  alpha : float;
  gamma : float;
  log_gamma : float;
  floor : float;  (* values at or below this land in the zero bucket *)
  max_buckets : int;
  counts : (int, int ref) Hashtbl.t;
  mutable zero : int;  (* count of values <= floor *)
  mutable count : int;
  mutable total : float;
  mutable mean : float;  (* Welford running mean *)
  mutable m2 : float;  (* Welford sum of squared deviations from the mean *)
  mutable vmin : float;
  mutable vmax : float;
  mutable collapsed : bool;
}

let create ?(alpha = 0.01) ?(max_buckets = 2048) () =
  if not (alpha > 0.0 && alpha < 1.0) then
    invalid_arg "Sketch.create: alpha must be in (0, 1)";
  if max_buckets < 2 then invalid_arg "Sketch.create: max_buckets must be >= 2";
  let gamma = (1.0 +. alpha) /. (1.0 -. alpha) in
  {
    alpha;
    gamma;
    log_gamma = log gamma;
    floor = 1e-12;
    max_buckets;
    counts = Hashtbl.create 64;
    zero = 0;
    count = 0;
    total = 0.0;
    mean = 0.0;
    m2 = 0.0;
    vmin = infinity;
    vmax = neg_infinity;
    collapsed = false;
  }

let alpha t = t.alpha

let copy t =
  let counts = Hashtbl.create (Hashtbl.length t.counts) in
  Hashtbl.iter (fun k r -> Hashtbl.add counts k (ref !r)) t.counts;
  { t with counts }

let count t = t.count
let total t = t.total
(* Once an infinite value arrives, Welford's update computes inf - inf
   and its mean is a NaN whose sign depends on the hardware; the total
   then is no longer finite, and its quotient is the mean Util.Stats.mean
   gives (inf for infinite latencies). *)
let mean t =
  if t.count = 0 then nan
  else if Float.is_finite t.total then t.mean
  else t.total /. float_of_int t.count
let std t = if t.count = 0 then nan else sqrt (t.m2 /. float_of_int t.count)
let min_value t = if t.count = 0 then nan else t.vmin
let max_value t = if t.count = 0 then nan else t.vmax
let collapsed t = t.collapsed

let bucket_count t =
  Hashtbl.length t.counts + if t.zero > 0 then 1 else 0

let index t v = int_of_float (ceil (log v /. t.log_gamma))

(* Midpoint estimate of bucket i; see the header derivation. *)
let value_of t i = 2.0 *. exp (float_of_int i *. t.log_gamma) /. (t.gamma +. 1.0)

let sorted_indices t =
  Hashtbl.fold (fun i r acc -> (i, !r) :: acc) t.counts [] |> List.sort compare

(* Enforce the bucket cap: fold the lowest bucket into the next lowest.
   Estimates for the surviving bucket only move up, so upper quantiles keep
   their bound. *)
let collapse_if_needed t =
  (* the zero bucket counts toward the cap; max_buckets >= 2 guarantees at
     least two positive buckets whenever the loop runs *)
  while bucket_count t > t.max_buckets do
    match sorted_indices t with
    | (i0, c0) :: (i1, c1) :: _ ->
      Hashtbl.remove t.counts i0;
      Hashtbl.replace t.counts i1 (ref (c0 + c1));
      t.collapsed <- true
    | _ -> ()
  done

let add t v =
  t.count <- t.count + 1;
  let delta = v -. t.mean in
  t.mean <- t.mean +. (delta /. float_of_int t.count);
  t.m2 <- t.m2 +. (delta *. (v -. t.mean));
  t.total <- t.total +. v;
  if v < t.vmin then t.vmin <- v;
  if v > t.vmax then t.vmax <- v;
  if v <= t.floor then t.zero <- t.zero + 1
  else begin
    let i = index t v in
    (match Hashtbl.find_opt t.counts i with
    | Some r -> incr r
    | None -> Hashtbl.add t.counts i (ref 1));
    collapse_if_needed t
  end

let merge a b =
  if a.alpha <> b.alpha then
    invalid_arg "Sketch.merge: sketches have different accuracies";
  let m = copy a in
  Hashtbl.iter
    (fun i r ->
      match Hashtbl.find_opt m.counts i with
      | Some r' -> r' := !r' + !r
      | None -> Hashtbl.add m.counts i (ref !r))
    b.counts;
  m.zero <- m.zero + b.zero;
  if b.count > 0 then
    if m.count = 0 then begin
      m.mean <- b.mean;
      m.m2 <- b.m2
    end
    else begin
      let na = float_of_int m.count and nb = float_of_int b.count in
      let n = na +. nb and delta = b.mean -. m.mean in
      m.mean <- m.mean +. (delta *. nb /. n);
      m.m2 <- m.m2 +. b.m2 +. (delta *. delta *. na *. nb /. n)
    end;
  m.count <- m.count + b.count;
  m.total <- m.total +. b.total;
  if b.vmin < m.vmin then m.vmin <- b.vmin;
  if b.vmax > m.vmax then m.vmax <- b.vmax;
  m.collapsed <- m.collapsed || b.collapsed;
  collapse_if_needed m;
  m

let quantile t p =
  if p < 0.0 || p > 100.0 then
    invalid_arg "Sketch.quantile: p must be in [0, 100]";
  if t.count = 0 then nan
  else begin
    (* rank of the order statistic the estimate targets, matching
       Util.Stats.percentile's p/100*(n-1) position *)
    let rank = p /. 100.0 *. float_of_int (t.count - 1) in
    let clamp v = Float.max t.vmin (Float.min t.vmax v) in
    if float_of_int t.zero > rank then clamp 0.0
    else begin
      let cum = ref t.zero and result = ref t.vmax in
      (try
         List.iter
           (fun (i, c) ->
             cum := !cum + c;
             if float_of_int !cum > rank then begin
               result := value_of t i;
               raise Exit
             end)
           (sorted_indices t)
       with Exit -> ());
      clamp !result
    end
  end

let buckets t =
  let positive =
    List.map (fun (i, c) -> (exp (float_of_int i *. t.log_gamma), c)) (sorted_indices t)
  in
  if t.zero > 0 then (t.floor, t.zero) :: positive else positive
