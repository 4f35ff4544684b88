(* Tests for the dense tensor substrate and the einsum oracle. *)

let check_int = Alcotest.(check int)
let check_float = Alcotest.(check (float 1e-9))

let shape l = Tensor.Shape.of_list l

(* ---------------- Shape ---------------- *)

let test_shape_basics () =
  let s = shape [ 2; 3; 4 ] in
  check_int "rank" 3 (Tensor.Shape.rank s);
  check_int "elements" 24 (Tensor.Shape.num_elements s);
  Alcotest.(check (array int)) "strides" [| 12; 4; 1 |] (Tensor.Shape.strides s)

let test_shape_linearize () =
  let s = shape [ 2; 3; 4 ] in
  check_int "origin" 0 (Tensor.Shape.linearize s [| 0; 0; 0 |]);
  check_int "last" 23 (Tensor.Shape.linearize s [| 1; 2; 3 |]);
  check_int "middle" 17 (Tensor.Shape.linearize s [| 1; 1; 1 |])

let test_shape_linearize_bounds () =
  let s = shape [ 2; 3 ] in
  Alcotest.check_raises "out of bounds"
    (Invalid_argument "Shape.linearize: out of bounds") (fun () ->
      ignore (Tensor.Shape.linearize s [| 2; 0 |]))

let test_shape_roundtrip () =
  let s = shape [ 3; 5; 2 ] in
  for off = 0 to Tensor.Shape.num_elements s - 1 do
    check_int "roundtrip" off
      (Tensor.Shape.linearize s (Tensor.Shape.delinearize s off))
  done

let test_shape_iter_order () =
  let s = shape [ 2; 2 ] in
  let seen = ref [] in
  Tensor.Shape.iter s (fun idx -> seen := Array.copy idx :: !seen);
  Alcotest.(check int) "count" 4 (List.length !seen);
  Alcotest.(check (array int)) "row-major order: first" [| 0; 0 |] (List.nth (List.rev !seen) 0);
  Alcotest.(check (array int)) "row-major order: second" [| 0; 1 |] (List.nth (List.rev !seen) 1);
  Alcotest.(check (array int)) "row-major order: last" [| 1; 1 |] (List.hd !seen)

let test_shape_validate () =
  Alcotest.check_raises "non-positive"
    (Invalid_argument "Shape.validate: non-positive extent") (fun () ->
      Tensor.Shape.validate (shape [ 2; 0 ]))

(* ---------------- Dense ---------------- *)

let test_dense_init_get () =
  let t = Tensor.Dense.init (shape [ 2; 3 ]) (fun idx -> float_of_int ((10 * idx.(0)) + idx.(1))) in
  check_float "get 0 0" 0.0 (Tensor.Dense.get t [| 0; 0 |]);
  check_float "get 1 2" 12.0 (Tensor.Dense.get t [| 1; 2 |])

let test_dense_set () =
  let t = Tensor.Dense.create (shape [ 2; 2 ]) in
  Tensor.Dense.set t [| 1; 0 |] 5.0;
  check_float "set/get" 5.0 (Tensor.Dense.get t [| 1; 0 |]);
  check_float "others zero" 0.0 (Tensor.Dense.get t [| 0; 0 |])

let test_dense_arith () =
  let a = Tensor.Dense.init (shape [ 3 ]) (fun i -> float_of_int i.(0)) in
  let b = Tensor.Dense.init (shape [ 3 ]) (fun _ -> 2.0) in
  let s = Tensor.Dense.add a b in
  check_float "add" 4.0 (Tensor.Dense.get s [| 2 |]);
  let d = Tensor.Dense.sub s b in
  check_float "sub" 2.0 (Tensor.Dense.get d [| 2 |]);
  check_float "dot" 6.0 (Tensor.Dense.dot a b);
  check_float "norm2" (sqrt 5.0) (Tensor.Dense.norm2 a);
  check_float "scale" 4.0 (Tensor.Dense.get (Tensor.Dense.scale 2.0 a) [| 2 |]);
  check_float "scale leaves its input" 2.0 (Tensor.Dense.get a [| 2 |])

let test_dense_shape_mismatch () =
  let a = Tensor.Dense.create (shape [ 2 ]) and b = Tensor.Dense.create (shape [ 3 ]) in
  Alcotest.check_raises "add mismatch" (Invalid_argument "Dense.add: shape mismatch")
    (fun () -> ignore (Tensor.Dense.add a b))

let test_dense_approx_equal () =
  let a = Tensor.Dense.init (shape [ 2 ]) (fun _ -> 1.0) in
  let b = Tensor.Dense.init (shape [ 2 ]) (fun _ -> 1.0 +. 1e-12) in
  let c = Tensor.Dense.init (shape [ 2 ]) (fun _ -> 1.001) in
  Alcotest.(check bool) "close" true (Tensor.Dense.approx_equal a b);
  Alcotest.(check bool) "far" false (Tensor.Dense.approx_equal a c)

let test_dense_copy_independent () =
  let a = Tensor.Dense.create (shape [ 2 ]) in
  let b = Tensor.Dense.copy a in
  Tensor.Dense.set b [| 0 |] 9.0;
  check_float "original untouched" 0.0 (Tensor.Dense.get a [| 0 |])

(* ---------------- Einsum ---------------- *)

let rng = Util.Rng.create 123

let random_dense l = Tensor.Dense.random rng (shape l)

let test_einsum_inner_product () =
  let u = random_dense [ 5 ] and v = random_dense [ 5 ] in
  let r =
    Tensor.Einsum.contract ~output_indices:[]
      [ Tensor.Einsum.operand u [ "i" ]; Tensor.Einsum.operand v [ "i" ] ]
  in
  check_float "matches dot" (Tensor.Dense.dot u v) (Tensor.Dense.get r [||])

let test_einsum_matvec () =
  let a = random_dense [ 3; 4 ] and x = random_dense [ 4 ] in
  let y =
    Tensor.Einsum.contract ~output_indices:[ "i" ]
      [ Tensor.Einsum.operand a [ "i"; "j" ]; Tensor.Einsum.operand x [ "j" ] ]
  in
  for i = 0 to 2 do
    let expect = ref 0.0 in
    for j = 0 to 3 do
      expect := !expect +. (Tensor.Dense.get a [| i; j |] *. Tensor.Dense.get x [| j |])
    done;
    check_float "row" !expect (Tensor.Dense.get y [| i |])
  done

let test_einsum_matmul () =
  let a = random_dense [ 3; 4 ] and b = random_dense [ 4; 5 ] in
  let c =
    Tensor.Einsum.contract ~output_indices:[ "i"; "k" ]
      [ Tensor.Einsum.operand a [ "i"; "j" ]; Tensor.Einsum.operand b [ "j"; "k" ] ]
  in
  let expect = ref 0.0 in
  for j = 0 to 3 do
    expect := !expect +. (Tensor.Dense.get a [| 1; j |] *. Tensor.Dense.get b [| j; 2 |])
  done;
  check_float "c(1,2)" !expect (Tensor.Dense.get c [| 1; 2 |])

let test_einsum_transpose_layout () =
  (* y(j,i) = a(i,j): pure transposition via output index order *)
  let a = random_dense [ 2; 3 ] in
  let y =
    Tensor.Einsum.contract ~output_indices:[ "j"; "i" ] [ Tensor.Einsum.operand a [ "i"; "j" ] ]
  in
  check_float "transposed" (Tensor.Dense.get a [| 1; 2 |]) (Tensor.Dense.get y [| 2; 1 |])

let test_einsum_rank3_two_contracted () =
  (* C(l,i) = sum_{j,k} A(i,j,k) B(l,j,k)  - the paper's Section II example *)
  let a = random_dense [ 2; 3; 4 ] and b = random_dense [ 5; 3; 4 ] in
  let c =
    Tensor.Einsum.contract ~output_indices:[ "l"; "i" ]
      [ Tensor.Einsum.operand a [ "i"; "j"; "k" ]; Tensor.Einsum.operand b [ "l"; "j"; "k" ] ]
  in
  let expect = ref 0.0 in
  for j = 0 to 2 do
    for k = 0 to 3 do
      expect := !expect +. (Tensor.Dense.get a [| 1; j; k |] *. Tensor.Dense.get b [| 4; j; k |])
    done
  done;
  check_float "C(4,1)" !expect (Tensor.Dense.get c [| 4; 1 |])

let test_einsum_extent_conflict () =
  let a = random_dense [ 2; 3 ] and b = random_dense [ 4 ] in
  Alcotest.(check bool) "conflicting extents raise" true
    (try
       ignore
         (Tensor.Einsum.contract ~output_indices:[ "i" ]
            [ Tensor.Einsum.operand a [ "i"; "j" ]; Tensor.Einsum.operand b [ "j" ] ]);
       false
     with Invalid_argument _ -> true)

let test_einsum_repeated_output () =
  let a = random_dense [ 2; 2 ] in
  Alcotest.(check bool) "repeated output index raises" true
    (try
       ignore
         (Tensor.Einsum.contract ~output_indices:[ "i"; "i" ]
            [ Tensor.Einsum.operand a [ "i"; "j" ] ]);
       false
     with Invalid_argument _ -> true)

let test_einsum_operand_rank_mismatch () =
  let a = random_dense [ 2; 2 ] in
  Alcotest.(check bool) "operand arity raises" true
    (try
       ignore (Tensor.Einsum.operand a [ "i" ]);
       false
     with Invalid_argument _ -> true)

let test_einsum_naive_flops () =
  let a = random_dense [ 10; 10 ] and b = random_dense [ 10; 10 ] in
  let ops = [ Tensor.Einsum.operand a [ "i"; "j" ]; Tensor.Einsum.operand b [ "j"; "k" ] ] in
  check_int "2 N^3 for matmul" 2000 (Tensor.Einsum.naive_flops ~output_indices:[ "i"; "k" ] ops)

(* ---------------- Property tests ---------------- *)

let qcheck_linear =
  QCheck.Test.make ~name:"einsum is linear in the first operand" ~count:30
    QCheck.(pair (int_range 1 4) (int_range 1 4))
    (fun (n, m) ->
      let rng = Util.Rng.create ((n * 100) + m) in
      let a = Tensor.Dense.random rng (shape [ n; m ]) in
      let b = Tensor.Dense.random rng (shape [ m ]) in
      let alpha = 3.25 in
      let y1 =
        Tensor.Einsum.contract ~output_indices:[ "i" ]
          [ Tensor.Einsum.operand (Tensor.Dense.scale alpha a) [ "i"; "j" ];
            Tensor.Einsum.operand b [ "j" ] ]
      in
      let y2 =
        Tensor.Dense.scale alpha
          (Tensor.Einsum.contract ~output_indices:[ "i" ]
             [ Tensor.Einsum.operand a [ "i"; "j" ]; Tensor.Einsum.operand b [ "j" ] ])
      in
      Tensor.Dense.approx_equal ~tol:1e-9 y1 y2)

let qcheck_operand_order =
  QCheck.Test.make ~name:"einsum is invariant to operand order" ~count:30
    QCheck.(int_range 1 5)
    (fun n ->
      let rng = Util.Rng.create (n + 77) in
      let a = Tensor.Dense.random rng (shape [ n; n ]) in
      let b = Tensor.Dense.random rng (shape [ n; n ]) in
      let c1 =
        Tensor.Einsum.contract ~output_indices:[ "i"; "k" ]
          [ Tensor.Einsum.operand a [ "i"; "j" ]; Tensor.Einsum.operand b [ "j"; "k" ] ]
      in
      let c2 =
        Tensor.Einsum.contract ~output_indices:[ "i"; "k" ]
          [ Tensor.Einsum.operand b [ "j"; "k" ]; Tensor.Einsum.operand a [ "i"; "j" ] ]
      in
      Tensor.Dense.approx_equal c1 c2)

let qcheck_roundtrip =
  QCheck.Test.make ~name:"shape linearize/delinearize roundtrip" ~count:100
    QCheck.(triple (int_range 1 5) (int_range 1 5) (int_range 1 5))
    (fun (a, b, c) ->
      let s = shape [ a; b; c ] in
      let n = Tensor.Shape.num_elements s in
      let ok = ref true in
      for off = 0 to n - 1 do
        if Tensor.Shape.linearize s (Tensor.Shape.delinearize s off) <> off then ok := false
      done;
      !ok)

let suite =
  [
    ("shape basics", `Quick, test_shape_basics);
    ("shape linearize", `Quick, test_shape_linearize);
    ("shape linearize bounds", `Quick, test_shape_linearize_bounds);
    ("shape roundtrip", `Quick, test_shape_roundtrip);
    ("shape iter order", `Quick, test_shape_iter_order);
    ("shape validate", `Quick, test_shape_validate);
    ("dense init/get", `Quick, test_dense_init_get);
    ("dense set", `Quick, test_dense_set);
    ("dense arithmetic", `Quick, test_dense_arith);
    ("dense shape mismatch", `Quick, test_dense_shape_mismatch);
    ("dense approx equal", `Quick, test_dense_approx_equal);
    ("dense copy independent", `Quick, test_dense_copy_independent);
    ("einsum inner product", `Quick, test_einsum_inner_product);
    ("einsum matvec", `Quick, test_einsum_matvec);
    ("einsum matmul", `Quick, test_einsum_matmul);
    ("einsum transpose layout", `Quick, test_einsum_transpose_layout);
    ("einsum rank-3 double contraction", `Quick, test_einsum_rank3_two_contracted);
    ("einsum extent conflict", `Quick, test_einsum_extent_conflict);
    ("einsum repeated output", `Quick, test_einsum_repeated_output);
    ("einsum operand rank mismatch", `Quick, test_einsum_operand_rank_mismatch);
    ("einsum naive flops", `Quick, test_einsum_naive_flops);
    QCheck_alcotest.to_alcotest qcheck_linear;
    QCheck_alcotest.to_alcotest qcheck_operand_order;
    QCheck_alcotest.to_alcotest qcheck_roundtrip;
  ]
