(* Cross-cutting property tests: invariants of the performance model, the
   search space and the strength-reduction enumeration, checked over
   randomized inputs with qcheck. *)

let arch = Gpusim.Arch.gtx980

(* Random small matmul-like kernels over varying extents/decompositions. *)
let random_kernel seed =
  let rng = Util.Rng.create seed in
  let e () = 8 * (1 + Util.Rng.int rng 8) in
  let src =
    Printf.sprintf "dims: i=%d j=%d k=%d\nC[i j] = Sum([k], A[i k] * B[k j])" (e ()) (e ())
      (e ())
  in
  let set = match Octopi.Variants.of_string src with [ s ] -> s | _ -> assert false in
  let ir = Tcr.Ir.of_variant ~label:"p" set.contraction (List.hd set.variants) in
  let space = Tcr.Space.make ir 0 in
  let point = Tcr.Space.sample rng space in
  (ir, Codegen.Kernel.lower ~name:"p" ir (List.hd ir.ops) point)

let qcheck_transactions_bounded =
  QCheck.Test.make ~name:"warp transactions within [1, 32]" ~count:60
    QCheck.(int_range 0 100000)
    (fun seed ->
      let _, k = random_kernel seed in
      List.for_all
        (fun (r : Gpusim.Coalesce.ref_analysis) ->
          r.transactions_per_warp >= 1.0 && r.transactions_per_warp <= 32.0)
        (let a = Codegen.Kernel.access k in
         Gpusim.Coalesce.analyze_output k a :: Gpusim.Coalesce.analyze k a))

let qcheck_footprint_bounded =
  QCheck.Test.make ~name:"block footprint never exceeds the tensor" ~count:60
    QCheck.(int_range 0 100000)
    (fun seed ->
      let _, k = random_kernel seed in
      List.for_all
        (fun (r : Gpusim.Coalesce.ref_analysis) -> r.footprint_per_block <= r.tensor_bytes)
        (Gpusim.Coalesce.analyze k (Codegen.Kernel.access k)))

let qcheck_occupancy_valid =
  QCheck.Test.make ~name:"occupancy within limits" ~count:60
    QCheck.(int_range 0 100000)
    (fun seed ->
      let _, k = random_kernel seed in
      let o = Gpusim.Occupancy.analyze arch k in
      o.occupancy > 0.0 && o.occupancy <= 1.0
      && o.blocks_per_sm >= 1
      && o.blocks_per_sm <= arch.max_blocks_per_sm
      && o.warps_per_sm * arch.warp_size <= arch.max_threads_per_sm)

let qcheck_kernel_time_positive =
  QCheck.Test.make ~name:"kernel time exceeds launch overhead" ~count:60
    QCheck.(int_range 0 100000)
    (fun seed ->
      let _, k = random_kernel seed in
      let r = Gpusim.Perf.analyze_kernel arch k in
      r.time_s >= r.t_launch && r.dram_bytes >= 0.0 && r.l2_bytes >= 0.0)

let qcheck_compulsory_traffic_floor =
  QCheck.Test.make ~name:"dram traffic at least the output size" ~count:60
    QCheck.(int_range 0 100000)
    (fun seed ->
      let ir, k = random_kernel seed in
      let out_bytes = float_of_int (Tcr.Ir.var_bytes ir "C") in
      let r = Gpusim.Perf.analyze_kernel arch k in
      (* the output is written once: at least 1x its size must move *)
      r.dram_bytes >= out_bytes)

let qcheck_measure_scales_with_arch =
  QCheck.Test.make ~name:"same kernel, all archs give finite times" ~count:30
    QCheck.(int_range 0 100000)
    (fun seed ->
      let _, k = random_kernel seed in
      List.for_all
        (fun a ->
          let t = (Gpusim.Perf.analyze_kernel a k).time_s in
          Float.is_finite t && t > 0.0)
        Gpusim.Arch.all)

(* search space invariants *)

let qcheck_space_points_all_lower =
  QCheck.Test.make ~name:"every enumerated point lowers and runs" ~count:15
    QCheck.(int_range 0 100000)
    (fun seed ->
      let rng = Util.Rng.create seed in
      let e () = 2 + Util.Rng.int rng 3 in
      let src =
        Printf.sprintf "dims: i=%d j=%d k=%d l=%d\nY[i j] = Sum([k l], A[i k l] * B[k j l])"
          (e ()) (e ()) (e ()) (e ())
      in
      let set = match Octopi.Variants.of_string src with [ s ] -> s | _ -> assert false in
      let ir = Tcr.Ir.of_variant ~label:"p" set.contraction (List.hd set.variants) in
      let space = Tcr.Space.make ir 0 in
      let inputs =
        List.filter_map
          (fun (v : Tcr.Ir.var) ->
            if v.role = Tcr.Ir.Input then
              Some (v.name, Tensor.Dense.random rng (Tcr.Ir.var_shape ir v.name))
            else None)
          ir.vars
      in
      let want = Codegen.Exec.run_reference ir inputs in
      let points = Tcr.Space.enumerate space in
      (* sample a handful to keep runtime bounded *)
      let n = List.length points in
      List.for_all
        (fun idx ->
          let p = List.nth points (idx mod n) in
          let got = Codegen.Exec.run_program ir [ p ] inputs in
          Tensor.Dense.approx_equal (List.assoc "Y" want) (List.assoc "Y" got))
        [ 0; n / 3; n / 2; (2 * n) + 1; n - 1 ])

let qcheck_plan_count_formula =
  QCheck.Test.make ~name:"plan count is (2n-3)!! for chain contractions" ~count:5
    QCheck.(int_range 2 4)
    (fun n ->
      (* chain: Y[i0 iN] = Sum over inner, A1[i0 i1] * A2[i1 i2] * ... *)
      let indices = List.init (n + 1) (fun i -> Printf.sprintf "x%d" i) in
      let factors =
        List.init n (fun i ->
            Printf.sprintf "A%d[%s %s]" i (List.nth indices i) (List.nth indices (i + 1)))
      in
      let src =
        Printf.sprintf "Y[x0 x%d] = %s" n (String.concat " * " factors)
      in
      match Octopi.Variants.of_string src with
      | [ set ] ->
        let dfact = List.fold_left ( * ) 1 (List.init (n - 1) (fun i -> (2 * i) + 1)) in
        List.length set.variants = dfact
      | _ -> false)

let qcheck_surf_never_repeats =
  QCheck.Test.make ~name:"surf never evaluates a config twice" ~count:20
    QCheck.(int_range 0 10000)
    (fun seed ->
      let pool = Array.init 60 (fun i -> i) in
      let counts = Hashtbl.create 60 in
      let eval i =
        Hashtbl.replace counts i (1 + Option.value ~default:0 (Hashtbl.find_opt counts i));
        float_of_int ((i * 7919) mod 101)
      in
      let encode i = [| float_of_int (i mod 8); float_of_int (i / 8) |] in
      let cfg = { Surf.Search.default_config with max_evals = 30; batch_size = 7 } in
      let _ = Surf.Search.surf ~config:cfg (Util.Rng.create seed) ~pool ~encode ~eval in
      Hashtbl.fold (fun _ c acc -> acc && c = 1) counts true)

let qcheck_forest_prediction_in_range =
  QCheck.Test.make ~name:"forest predictions within the target range" ~count:20
    QCheck.(int_range 0 10000)
    (fun seed ->
      let rng = Util.Rng.create seed in
      let n = 50 in
      let x = Array.init n (fun _ -> [| Util.Rng.float rng 10.0; Util.Rng.float rng 10.0 |]) in
      let y = Array.map (fun xi -> xi.(0) +. (2.0 *. xi.(1))) x in
      let lo = Array.fold_left min y.(0) y and hi = Array.fold_left max y.(0) y in
      let f = Surf.Forest.fit (Util.Rng.split rng) x y in
      let p = Surf.Forest.predict f [| 5.0; 5.0 |] in
      (* tree leaves are averages of targets: predictions cannot escape *)
      p >= lo -. 1e-9 && p <= hi +. 1e-9)

(* --- Obs.Json codec: the tuning journal rides on it, so the render/parse
   round-trip is pinned on adversarial inputs - control characters, raw
   bytes, \u escapes (including the surrogate range), extreme and
   non-finite floats. --- *)

let arbitrary_bytes =
  QCheck.make
    ~print:(fun s -> Printf.sprintf "%S" s)
    QCheck.Gen.(string_size ~gen:(map Char.chr (int_bound 255)) (int_bound 48))

let qcheck_json_string_roundtrip =
  QCheck.Test.make ~name:"json string round-trip incl. control chars" ~count:300
    arbitrary_bytes
    (fun s ->
      match Obs.Json.parse (Obs.Json.to_string (Obs.Json.Str s)) with
      | Ok (Obs.Json.Str s') -> s' = s
      | _ -> false)

let qcheck_json_parse_total =
  QCheck.Test.make ~name:"json parse never raises on garbage" ~count:300
    arbitrary_bytes
    (fun s -> match Obs.Json.parse s with Ok _ | Error _ -> true)

let qcheck_json_extreme_float_roundtrip =
  QCheck.Test.make ~name:"json extreme finite floats round-trip" ~count:300
    QCheck.(pair (int_range (-999999) 999999) (int_range (-300) 300))
    (fun (m, e) ->
      let f = float_of_int m *. (10.0 ** float_of_int e) in
      QCheck.assume (Float.is_finite f);
      match Obs.Json.parse (Obs.Json.to_string (Obs.Json.Num f)) with
      | Ok (Obs.Json.Num f') -> f' = f
      | _ -> false)

let qcheck_json_nonfinite_as_null =
  QCheck.Test.make ~name:"json non-finite floats serialize as null" ~count:10
    QCheck.(oneofl [ nan; infinity; neg_infinity ])
    (fun f ->
      Obs.Json.to_string (Obs.Json.Num f) = "null"
      &&
      match Option.map Float.is_nan (Obs.Json.get_num (Obs.Json.parse_exn "null")) with
      | Some true -> true
      | _ -> false)

let qcheck_json_u_escape_total =
  QCheck.Test.make
    ~name:"json \\u escapes parse totally (incl. surrogate range)" ~count:300
    QCheck.(int_range 0 0xFFFF)
    (fun code ->
      let doc = Printf.sprintf "\"pre\\u%04xpost\"" code in
      match Obs.Json.parse doc with
      | Ok (Obs.Json.Str s) ->
        (* pre + 1-3 bytes of UTF-8 + post *)
        let n = String.length s in
        n >= 8 && n <= 10
        && String.sub s 0 3 = "pre"
        && String.sub s (n - 4) 4 = "post"
      | Ok _ -> false
      | Error _ -> true)

let suite =
  List.map QCheck_alcotest.to_alcotest
    [
      qcheck_transactions_bounded;
      qcheck_footprint_bounded;
      qcheck_occupancy_valid;
      qcheck_kernel_time_positive;
      qcheck_compulsory_traffic_floor;
      qcheck_measure_scales_with_arch;
      qcheck_space_points_all_lower;
      qcheck_plan_count_formula;
      qcheck_surf_never_repeats;
      qcheck_forest_prediction_in_range;
      qcheck_json_string_roundtrip;
      qcheck_json_parse_total;
      qcheck_json_extreme_float_roundtrip;
      qcheck_json_nonfinite_as_null;
      qcheck_json_u_escape_total;
    ]
