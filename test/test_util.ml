(* Unit and property tests for the util library. *)

let check_int = Alcotest.(check int)
let check_float = Alcotest.(check (float 1e-9))

(* ---------------- Rng ---------------- *)

let test_rng_deterministic () =
  let a = Util.Rng.create 7 and b = Util.Rng.create 7 in
  for _ = 1 to 100 do
    check_int "same stream" (Util.Rng.bits a) (Util.Rng.bits b)
  done

let test_rng_int_bounds () =
  let rng = Util.Rng.create 1 in
  for _ = 1 to 1000 do
    let v = Util.Rng.int rng 17 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 17)
  done

let test_rng_int_rejects_nonpositive () =
  let rng = Util.Rng.create 1 in
  Alcotest.check_raises "bound 0" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Util.Rng.int rng 0))

let test_rng_float_range () =
  let rng = Util.Rng.create 2 in
  for _ = 1 to 1000 do
    let v = Util.Rng.float_range rng (-2.5) 3.5 in
    Alcotest.(check bool) "in range" true (v >= -2.5 && v < 3.5)
  done

let test_rng_split_independent () =
  let rng = Util.Rng.create 3 in
  let a = Util.Rng.split rng in
  let b = Util.Rng.split rng in
  (* different streams should diverge almost immediately *)
  let same = ref 0 in
  for _ = 1 to 50 do
    if Util.Rng.bits a = Util.Rng.bits b then incr same
  done;
  Alcotest.(check bool) "streams differ" true (!same < 5)

(* The first draws of each kind for a few seeds, pinned bit for bit: a
   change to how the generator holds its state must not move a stream. *)
let test_rng_draws_pinned () =
  let draws seed =
    let rng = Util.Rng.create seed in
    let i = Util.Rng.int rng 1000 in
    let f = Util.Rng.float rng 1.0 in
    let b = Util.Rng.bits rng in
    let s = Util.Rng.bits (Util.Rng.split rng) in
    let r = Util.Rng.float_range rng (-2.0) 3.0 in
    Printf.sprintf "%d %h %d %d %h %d" i f b s r (Util.Rng.int rng 7)
  in
  List.iter
    (fun (seed, want) -> Alcotest.(check string) (Printf.sprintf "seed %d" seed) want (draws seed))
    [
      (0, "883 0x1.b9e279aa86e58p-2 121904254867886419 2310090788919152419 -0x1.77e050ec67b5dp+0 0");
      (1, "616 0x1.7dd71b42cb1ddp-1 4477959822570722647 4455081438962844497 0x1.c54541e0a844p-3 4");
      (42, "853 0x1.477f199d93378p-3 1284820937115690964 3301249778848113454 -0x1.cf52463d4a976p+0 4");
      (-7, "188 0x1.ea1fd36af3c64p-2 4182806082467217796 2663771078201054118 0x1.a8bad676d32acp-1 3");
      ( max_int,
        "417 0x1.01018cc4a4ca8p-4 4450840035883500872 3172632114020118083 0x1.9ea6ebc1ecf14p+0 2" );
    ]

let test_gaussian_moments () =
  let rng = Util.Rng.create 5 in
  let n = 20000 in
  let xs = List.init n (fun _ -> Util.Rng.gaussian rng) in
  let mean = Util.Stats.mean xs in
  let std = Util.Stats.stddev xs in
  Alcotest.(check bool) "mean near 0" true (abs_float mean < 0.05);
  Alcotest.(check bool) "std near 1" true (abs_float (std -. 1.0) < 0.05)

let test_shuffle_is_permutation () =
  let rng = Util.Rng.create 6 in
  let l = List.init 30 (fun i -> i) in
  let s = Util.Rng.shuffle rng l in
  Alcotest.(check (list int)) "same multiset" l (List.sort compare s)

let test_sample_without_replacement () =
  let rng = Util.Rng.create 7 in
  let arr = Array.init 20 (fun i -> i) in
  let s = Util.Rng.sample_without_replacement rng 10 arr in
  check_int "ten elements" 10 (Array.length s);
  let sorted = List.sort_uniq compare (Array.to_list s) in
  check_int "all distinct" 10 (List.length sorted)

let test_sample_too_many () =
  let rng = Util.Rng.create 7 in
  Alcotest.check_raises "k > n"
    (Invalid_argument "Rng.sample_without_replacement: k > n") (fun () ->
      ignore (Util.Rng.sample_without_replacement rng 5 [| 1; 2 |]))

let test_pick () =
  let rng = Util.Rng.create 8 in
  for _ = 1 to 100 do
    let v = Util.Rng.pick rng [| 10; 20; 30 |] in
    Alcotest.(check bool) "member" true (List.mem v [ 10; 20; 30 ])
  done

(* ---------------- Combinat ---------------- *)

let test_permutations_count () =
  check_int "3 elements" 6 (List.length (Util.Combinat.permutations [ 1; 2; 3 ]));
  check_int "4 elements" 24 (List.length (Util.Combinat.permutations [ 1; 2; 3; 4 ]))

let test_permutations_distinct () =
  let ps = Util.Combinat.permutations [ "a"; "b"; "c" ] in
  check_int "all distinct" 6 (List.length (List.sort_uniq compare ps))

let test_cartesian () =
  let c = Util.Combinat.cartesian [ [ 1; 2 ]; [ 3 ]; [ 4; 5; 6 ] ] in
  check_int "product size" 6 (List.length c);
  Alcotest.(check (list int)) "first row" [ 1; 3; 4 ] (List.hd c)

let test_cartesian_empty_domain () =
  check_int "empty domain kills product" 0
    (List.length (Util.Combinat.cartesian [ [ 1 ]; []; [ 2 ] ]))

(* ---------------- Stats ---------------- *)

let test_mean_median () =
  check_float "mean" 2.5 (Util.Stats.mean [ 1.0; 2.0; 3.0; 4.0 ]);
  (* the comparator's medians *)
  let c = Util.Stats.compare_samples ~base:[ 1.0; 2.0; 3.0; 4.0 ] ~cur:[ 5.0; 1.0; 3.0 ] () in
  check_float "median even" 2.5 c.median_base;
  check_float "median odd" 3.0 c.median_cur

let test_variance () =
  (* population variance of {2,4} is 1 *)
  check_float "variance" 1.0 (Util.Stats.variance [ 2.0; 4.0 ]);
  check_float "stddev" 1.0 (Util.Stats.stddev [ 2.0; 4.0 ]);
  check_float "singleton" 0.0 (Util.Stats.variance [ 5.0 ])

let test_min_max () =
  check_float "min" (-2.0) (Util.Stats.min_list [ 3.0; -2.0; 1.0 ]);
  check_float "max" 3.0 (Util.Stats.max_list [ 3.0; -2.0; 1.0 ])

let test_percentile () =
  let xs = [ 4.0; 1.0; 3.0; 2.0 ] in
  check_float "p0 is min" 1.0 (Util.Stats.percentile 0.0 xs);
  check_float "p100 is max" 4.0 (Util.Stats.percentile 100.0 xs);
  check_float "p50 is the median" 2.5 (Util.Stats.percentile 50.0 xs);
  (* linear interpolation: rank 0.9 * 3 = 2.7 between 3.0 and 4.0 *)
  check_float "p90 interpolates" 3.7 (Util.Stats.percentile 90.0 xs);
  check_float "singleton" 5.0 (Util.Stats.percentile 75.0 [ 5.0 ]);
  Alcotest.(check bool) "empty list is nan" true
    (Float.is_nan (Util.Stats.percentile 50.0 []));
  Alcotest.check_raises "p > 100 rejected"
    (Invalid_argument "Stats.percentile: p outside [0, 100]") (fun () ->
      ignore (Util.Stats.percentile 101.0 xs));
  Alcotest.check_raises "p < 0 rejected"
    (Invalid_argument "Stats.percentile: p outside [0, 100]") (fun () ->
      ignore (Util.Stats.percentile (-1.0) xs))

let test_r_squared () =
  let actual = [ 1.0; 2.0; 3.0 ] in
  check_float "perfect fit" 1.0 (Util.Stats.r_squared ~actual ~predicted:actual);
  let mean_pred = [ 2.0; 2.0; 2.0 ] in
  check_float "mean predictor" 0.0 (Util.Stats.r_squared ~actual ~predicted:mean_pred)

(* ---------------- Stats: comparator ---------------- *)

let test_normal_cdf () =
  Alcotest.(check (float 1e-6)) "phi(0)" 0.5 (Util.Stats.normal_cdf 0.0);
  Alcotest.(check (float 1e-4)) "phi(1.96)" 0.975 (Util.Stats.normal_cdf 1.96);
  Alcotest.(check (float 1e-4)) "phi(-1.96)" 0.025 (Util.Stats.normal_cdf (-1.96))

let test_mann_whitney_identical () =
  (* identical samples: everything tied, z = 0, no evidence either way *)
  let xs = [ 1.0; 2.0; 3.0; 4.0; 5.0 ] in
  let mw = Util.Stats.mann_whitney xs xs in
  Alcotest.(check (float 1e-9)) "z" 0.0 mw.z;
  Alcotest.(check (float 1e-9)) "p_greater" 0.5 mw.p_greater;
  Alcotest.(check (float 1e-9)) "p_less" 0.5 mw.p_less

let test_mann_whitney_shift () =
  (* a clean one-sided shift: b stochastically greater than a *)
  let a = List.init 20 (fun i -> float_of_int i) in
  let b = List.map (fun x -> x +. 100.0) a in
  let mw = Util.Stats.mann_whitney a b in
  Alcotest.(check bool) "p_greater tiny" true (mw.p_greater < 1e-6);
  Alcotest.(check bool) "p_less near 1" true (mw.p_less > 1.0 -. 1e-6);
  (* and the mirrored test flips the tails *)
  let mw' = Util.Stats.mann_whitney b a in
  Alcotest.(check bool) "mirror" true (mw'.p_less < 1e-6)

let test_mann_whitney_rejects_empty () =
  Alcotest.check_raises "empty sample" (Invalid_argument "Stats.mann_whitney: empty sample")
    (fun () -> ignore (Util.Stats.mann_whitney [] [ 1.0 ]))

let test_bootstrap_ci () =
  let rng = Util.Rng.create 7 in
  let base = List.init 30 (fun i -> 1.0 +. (0.001 *. float_of_int i)) in
  let cur = List.map (fun x -> x *. 2.0) base in
  let lo, hi = Util.Stats.bootstrap_ratio_ci rng ~base ~cur in
  Alcotest.(check bool) "CI brackets 2.0" true (lo <= 2.0 && 2.0 <= hi);
  Alcotest.(check bool) "CI excludes 1.0" true (lo > 1.0);
  (* deterministic: same seed, same interval *)
  let lo', hi' = Util.Stats.bootstrap_ratio_ci (Util.Rng.create 7) ~base ~cur in
  Alcotest.(check (float 0.0)) "lo deterministic" lo lo';
  Alcotest.(check (float 0.0)) "hi deterministic" hi hi'

let test_compare_identical () =
  let xs = List.init 25 (fun i -> 1.0 +. (0.01 *. float_of_int i)) in
  let c = Util.Stats.compare_samples ~base:xs ~cur:xs () in
  Alcotest.(check bool) "no regression" false c.regression;
  Alcotest.(check bool) "no improvement" false c.improvement;
  Alcotest.(check (float 1e-9)) "ratio 1" 1.0 c.ratio

let test_compare_significant_slowdown () =
  (* 3x slowdown with plenty of samples: must gate *)
  let base = List.init 30 (fun i -> 1.0 +. (0.001 *. float_of_int i)) in
  let cur = List.map (fun x -> x *. 3.0) base in
  let c = Util.Stats.compare_samples ~base ~cur () in
  Alcotest.(check bool) "regression" true c.regression;
  Alcotest.(check bool) "p small" true (c.p_slower < 0.01);
  Alcotest.(check bool) "CI above 1" true (c.ci_low > 1.0);
  (* symmetric: swapping the roles reports an improvement *)
  let c' = Util.Stats.compare_samples ~base:cur ~cur:base () in
  Alcotest.(check bool) "improvement" true c'.improvement;
  Alcotest.(check bool) "not a regression" false c'.regression

let test_compare_small_ratio_not_regression () =
  (* statistically significant but below min_ratio: noise gate holds *)
  let base = List.init 30 (fun i -> 1.0 +. (0.001 *. float_of_int i)) in
  let cur = List.map (fun x -> x *. 1.05) base in
  let c = Util.Stats.compare_samples ~min_ratio:1.10 ~base ~cur () in
  Alcotest.(check bool) "p small" true (c.p_slower < 0.01);
  Alcotest.(check bool) "still not a regression" false c.regression

let test_compare_tiny_n_dominance () =
  (* single samples: the U test cannot reach alpha = 0.01 (min p = 1/2),
     so the verdict falls back to strict dominance *)
  let c = Util.Stats.compare_samples ~base:[ 1.0 ] ~cur:[ 5.0 ] () in
  Alcotest.(check bool) "dominant slowdown gates" true c.regression;
  let c' = Util.Stats.compare_samples ~base:[ 1.0 ] ~cur:[ 1.05 ] () in
  Alcotest.(check bool) "below min_ratio stays ok" false c'.regression

let test_compare_deterministic () =
  let base = List.init 12 (fun i -> 2.0 +. (0.1 *. float_of_int i)) in
  let cur = List.map (fun x -> x *. 1.7) base in
  let c1 = Util.Stats.compare_samples ~seed:5 ~base ~cur () in
  let c2 = Util.Stats.compare_samples ~seed:5 ~base ~cur () in
  Alcotest.(check (float 0.0)) "ci_low" c1.ci_low c2.ci_low;
  Alcotest.(check (float 0.0)) "ci_high" c1.ci_high c2.ci_high;
  Alcotest.(check (float 0.0)) "p" c1.p_slower c2.p_slower

(* ---------------- Fs ---------------- *)

let with_tmp_dir f =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "barracuda_fs_test_%d" (Unix.getpid ()))
  in
  Fun.protect
    ~finally:(fun () -> ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote dir))))
    (fun () -> f dir)

let test_mkdir_p_nested () =
  with_tmp_dir @@ fun dir ->
  let deep = Filename.concat (Filename.concat dir "a/b") "c" in
  Util.Fs.mkdir_p deep;
  Alcotest.(check bool) "created" true (Sys.is_directory deep);
  (* idempotent on an existing tree *)
  Util.Fs.mkdir_p deep;
  Alcotest.(check bool) "still there" true (Sys.is_directory deep)

let test_mkdir_p_over_file () =
  with_tmp_dir @@ fun dir ->
  Util.Fs.mkdir_p dir;
  let file = Filename.concat dir "plain" in
  Util.Fs.write_file file "x";
  Alcotest.(check bool) "raises on non-directory component" true
    (try
       Util.Fs.mkdir_p (Filename.concat file "sub");
       false
     with Sys_error _ -> true)

let test_write_read_roundtrip () =
  with_tmp_dir @@ fun dir ->
  let path = Filename.concat (Filename.concat dir "x/y") "data.txt" in
  Util.Fs.write_file path "line1\nline2";
  Alcotest.(check string) "roundtrip" "line1\nline2" (Util.Fs.read_file path)

(* ---------------- Table ---------------- *)

let test_table_render () =
  let t = Util.Table.create ~title:"T" [ [ "a"; "bb" ]; [ "ccc"; "d" ] ] in
  let s = Util.Table.render t in
  Alcotest.(check bool) "has title" true (String.length s > 0 && String.sub s 0 1 = "T");
  Alcotest.(check bool) "has rule" true
    (String.split_on_char '\n' s |> List.exists (fun l -> String.trim l <> "" &&
       String.for_all (fun c -> c = '-' || c = ' ') (String.trim l)))

let test_cell_f () =
  Alcotest.(check string) "two digits" "3.14" (Util.Table.cell_f 3.14159);
  Alcotest.(check string) "nan" "n/a" (Util.Table.cell_f nan)

let suite =
  [
    ("rng deterministic", `Quick, test_rng_deterministic);
    ("rng int bounds", `Quick, test_rng_int_bounds);
    ("rng int rejects non-positive", `Quick, test_rng_int_rejects_nonpositive);
    ("rng float range", `Quick, test_rng_float_range);
    ("rng split independent", `Quick, test_rng_split_independent);
    ("rng draws pinned", `Quick, test_rng_draws_pinned);
    ("gaussian moments", `Quick, test_gaussian_moments);
    ("shuffle is permutation", `Quick, test_shuffle_is_permutation);
    ("sample without replacement", `Quick, test_sample_without_replacement);
    ("sample too many raises", `Quick, test_sample_too_many);
    ("pick member", `Quick, test_pick);
    ("permutations count", `Quick, test_permutations_count);
    ("permutations distinct", `Quick, test_permutations_distinct);
    ("cartesian product", `Quick, test_cartesian);
    ("cartesian empty domain", `Quick, test_cartesian_empty_domain);
    ("mean and median", `Quick, test_mean_median);
    ("variance and stddev", `Quick, test_variance);
    ("min max", `Quick, test_min_max);
    ("percentile", `Quick, test_percentile);
    ("r squared", `Quick, test_r_squared);
    ("normal cdf", `Quick, test_normal_cdf);
    ("mann-whitney identical samples", `Quick, test_mann_whitney_identical);
    ("mann-whitney one-sided shift", `Quick, test_mann_whitney_shift);
    ("mann-whitney rejects empty", `Quick, test_mann_whitney_rejects_empty);
    ("bootstrap ratio CI", `Quick, test_bootstrap_ci);
    ("compare identical samples", `Quick, test_compare_identical);
    ("compare significant slowdown", `Quick, test_compare_significant_slowdown);
    ("compare small ratio no gate", `Quick, test_compare_small_ratio_not_regression);
    ("compare tiny n dominance", `Quick, test_compare_tiny_n_dominance);
    ("compare deterministic", `Quick, test_compare_deterministic);
    ("fs mkdir_p nested", `Quick, test_mkdir_p_nested);
    ("fs mkdir_p over file", `Quick, test_mkdir_p_over_file);
    ("fs write/read roundtrip", `Quick, test_write_read_roundtrip);
    ("table render", `Quick, test_table_render);
    ("table cell formatting", `Quick, test_cell_f);
  ]
