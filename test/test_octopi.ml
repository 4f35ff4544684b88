(* Tests for the OCTOPI front end: DSL parsing, contraction semantics,
   strength reduction (Algorithm 1) and fusion analysis. *)

let check_int = Alcotest.(check int)

let eqn1_src = "V[i j k] = Sum([l m n], A[l k] * B[m j] * C[n i] * U[l m n])"

let parse_one src =
  match (Octopi.Parse.program src).stmts with
  | [ s ] -> s
  | _ -> Alcotest.fail "expected one statement"

(* ---------------- Parser ---------------- *)

let test_parse_eqn1 () =
  let s = parse_one eqn1_src in
  Alcotest.(check string) "output" "V" s.lhs.name;
  Alcotest.(check (list string)) "output indices" [ "i"; "j"; "k" ] s.lhs.indices;
  Alcotest.(check (list string)) "sum indices" [ "l"; "m"; "n" ] s.sum_indices;
  check_int "factors" 4 (List.length s.factors)

let test_parse_dims () =
  let p = Octopi.Parse.program "dims: i=4 j=8\nY[i] = Sum([j], A[i j])" in
  Alcotest.(check (list (pair string int))) "extents" [ ("i", 4); ("j", 8) ] p.extents

let test_parse_no_sum () =
  let s = parse_one "C[i j] = A[i k] * B[k j]" in
  Alcotest.(check (list string)) "no explicit sum" [] s.sum_indices;
  check_int "factors" 2 (List.length s.factors)

let test_parse_accumulate () =
  let s = parse_one "C[i] += A[i j]" in
  Alcotest.(check bool) "accumulate" true s.accumulate

let test_parse_comments () =
  let p = Octopi.Parse.program "# a comment\nY[i] = A[i j] # trailing\n# end" in
  check_int "one statement" 1 (List.length p.stmts)

let test_parse_multi_statement () =
  let p =
    Octopi.Parse.program "T[i l] = Sum([n], C[n i] * U[l n])\nV[i] = Sum([l], T[i l])"
  in
  check_int "two statements" 2 (List.length p.stmts)

let test_parse_error () =
  Alcotest.(check bool) "missing bracket raises" true
    (try
       ignore (Octopi.Parse.program "V[i = A[i]");
       false
     with Octopi.Parse.Error _ -> true)

let test_parse_roundtrip () =
  let p = Octopi.Parse.program ("dims: i=3 j=3 k=3 l=3 m=3 n=3\n" ^ eqn1_src) in
  let p2 = Octopi.Parse.program (Octopi.Ast.to_string p) in
  Alcotest.(check string) "pp/parse roundtrip" (Octopi.Ast.to_string p) (Octopi.Ast.to_string p2)

(* ---------------- Contraction ---------------- *)

let contraction_of src =
  match Octopi.Contraction.of_program (Octopi.Parse.program src) with
  | [ c ] -> c
  | _ -> Alcotest.fail "expected one contraction"

let test_contraction_normalize () =
  let c = contraction_of "C[i j] = A[i k] * B[k j]" in
  Alcotest.(check (list string)) "inferred sum" [ "k" ] c.sum_indices;
  check_int "default extent" 10 (Octopi.Contraction.extent c "i")

let test_contraction_extents () =
  let c = contraction_of "dims: i=4 k=6\nC[i j] = A[i k] * B[k j]" in
  check_int "declared" 4 (Octopi.Contraction.extent c "i");
  check_int "declared k" 6 (Octopi.Contraction.extent c "k");
  check_int "defaulted" 10 (Octopi.Contraction.extent c "j")

let expect_invalid src =
  Alcotest.(check bool) "rejected" true
    (try
       ignore (Octopi.Contraction.of_program (Octopi.Parse.program src));
       false
     with Octopi.Contraction.Invalid _ -> true)

let test_contraction_rejects_phantom_output () = expect_invalid "C[i z] = A[i k] * B[k j]"
let test_contraction_rejects_repeated_output () = expect_invalid "C[i i] = A[i k] * B[k i]"
let test_contraction_rejects_bad_sum () = expect_invalid "C[i] = Sum([i], A[i j])"
let test_contraction_rejects_diagonal () = expect_invalid "C[i] = A[i j j]"
let test_contraction_rejects_partial_sum_list () = expect_invalid "C[i] = Sum([j], A[i j k])"

let test_contraction_naive_flops () =
  let c = contraction_of ("dims: i=10 j=10 k=10 l=10 m=10 n=10\n" ^ eqn1_src) in
  (* full space 10^6, 4 factors -> 4 flops per point (Section III: O(p^6)) *)
  check_int "naive flops" 4_000_000 (Octopi.Contraction.naive_flops c)

let test_contraction_evaluate_matches_einsum () =
  let c = contraction_of "dims: i=3 j=4 k=5\nC[i j] = A[i k] * B[k j]" in
  let env = Octopi.Contraction.random_env c in
  let r = Octopi.Contraction.evaluate c env in
  let a = List.assoc "A" env and b = List.assoc "B" env in
  let expect =
    Tensor.Einsum.contract ~output_indices:[ "i"; "j" ]
      [ Tensor.Einsum.operand a [ "i"; "k" ]; Tensor.Einsum.operand b [ "k"; "j" ] ]
  in
  Alcotest.(check bool) "equal" true (Tensor.Dense.approx_equal expect r)

(* ---------------- Strength reduction (Algorithm 1) ---------------- *)

let eqn1_variants () =
  match Octopi.Variants.of_string ("dims: i=10 j=10 k=10 l=10 m=10 n=10\n" ^ eqn1_src) with
  | [ v ] -> v
  | _ -> Alcotest.fail "expected one statement"

let test_eqn1_fifteen_variants () =
  (* Section II-B: "OCTOPI generates fifteen different versions" *)
  check_int "15 variants" 15 (List.length (eqn1_variants ()).variants)

let test_eqn1_six_minimal () =
  (* "six versions all perform the same amount of floating-point computation" *)
  let v = eqn1_variants () in
  check_int "6 minimal-flop" 6 (List.length (Octopi.Variants.minimal_flop_variants v));
  check_int "min flops 3 x 2 x 10^4" 60_000 (Octopi.Variants.min_flops v)

let test_eqn1_variants_all_valid () =
  Alcotest.(check bool) "all 15 compute the same tensor" true
    (Octopi.Variants.validate (eqn1_variants ()))

let test_matmul_single_variant () =
  match Octopi.Variants.of_string "C[i j] = A[i k] * B[k j]" with
  | [ v ] -> check_int "binary contraction has one plan" 1 (List.length v.variants)
  | _ -> Alcotest.fail "expected one statement"

let test_three_factor_variant_count () =
  (* (2n-3)!! trees for n factors: 3 for n = 3 *)
  match Octopi.Variants.of_string "Y[i] = Sum([j k], A[i j] * B[j k] * C[k i])" with
  | [ v ] -> check_int "3 trees" 3 (List.length v.variants)
  | _ -> Alcotest.fail "expected one statement"

let test_lower_structure () =
  let v = eqn1_variants () in
  let minimal = Octopi.Variants.minimal_flop_variants v in
  List.iter
    (fun (var : Octopi.Variants.variant) ->
      check_int "three statements" 3 (List.length var.ops);
      let last = List.nth var.ops 2 in
      Alcotest.(check string) "final writes V" "V" last.out;
      check_int "two temporaries" 2 (List.length (Octopi.Plan.temporaries var.plan)))
    minimal

let test_paper_variant_present () =
  (* the paper's chosen version: T1 = C*U; T2 = B*T1; V = A*T2 *)
  let v = eqn1_variants () in
  let found =
    List.exists
      (fun (var : Octopi.Variants.variant) ->
        match var.ops with
        | [ o1; o2; o3 ] ->
          let names op = List.map fst op.Octopi.Plan.factors in
          names o1 = [ "C"; "U" ] && names o2 = [ "B"; "T1" ] && names o3 = [ "A"; "T2" ]
        | _ -> false)
      v.variants
  in
  Alcotest.(check bool) "paper's plan enumerated" true found

let test_unary_reduction () =
  (* an index occurring in a single term is summed out eagerly *)
  match Octopi.Variants.of_string "Y[i] = Sum([j k], A[i j] * B[k])" with
  | [ v ] ->
    let cheapest =
      List.fold_left
        (fun acc (x : Octopi.Variants.variant) -> min acc (Octopi.Plan.flops x.plan))
        max_int v.variants
    in
    (* reduce B over k (cost 10) then contract (cost 200) + reduce A or
       equivalent: either way well under the naive 2000 *)
    Alcotest.(check bool) "reduction exploited" true (cheapest <= 320)
  | _ -> Alcotest.fail "expected one statement"

let test_plan_inputs () =
  let v = eqn1_variants () in
  let p = (List.hd v.variants).plan in
  Alcotest.(check (list string)) "inputs preserved" [ "A"; "B"; "C"; "U" ]
    (List.sort compare (Octopi.Plan.node_inputs p.root))

(* ---------------- Fusion ---------------- *)

let test_fusion_pairs () =
  let v = eqn1_variants () in
  let paper_variant =
    List.find
      (fun (var : Octopi.Variants.variant) ->
        match var.ops with
        | [ o1; _; _ ] -> List.map fst o1.factors = [ "C"; "U" ]
        | _ -> false)
      v.variants
  in
  let sched = paper_variant.schedule in
  check_int "two adjacent pairs" 2 (List.length sched.fusion_depths);
  Alcotest.(check bool) "some fusion found" true (Octopi.Fusion.score sched > 0)

let test_fusion_requires_producer_consumer () =
  let p : Octopi.Plan.op = { out = "X"; out_indices = [ "i" ]; factors = [ ("A", [ "i"; "j" ]) ] } in
  let c : Octopi.Plan.op = { out = "Y"; out_indices = [ "i" ]; factors = [ ("B", [ "i"; "j" ]) ] } in
  Alcotest.(check (list string)) "no dataflow, no fusion" []
    (Octopi.Fusion.fusable_pair p c)

let test_fusion_legality () =
  (* fused indices must be output indices of the producer *)
  let p : Octopi.Plan.op = { out = "T"; out_indices = [ "i"; "l" ]; factors = [ ("A", [ "i"; "l"; "m" ]) ] } in
  let c : Octopi.Plan.op = { out = "V"; out_indices = [ "i"; "k" ]; factors = [ ("T", [ "i"; "l" ]); ("B", [ "l"; "k" ]) ] } in
  let fused = Octopi.Fusion.fusable_pair p c in
  Alcotest.(check bool) "i fusable" true (List.mem "i" fused);
  Alcotest.(check bool) "l fusable (reduction of consumer is legal)" true (List.mem "l" fused);
  Alcotest.(check bool) "m not fusable" false (List.mem "m" fused)

(* ---------------- Properties ---------------- *)

(* random 3-factor contractions over a small index alphabet stay correct
   through strength reduction *)
let qcheck_variants_preserve_semantics =
  QCheck.Test.make ~name:"strength reduction preserves semantics" ~count:20
    QCheck.(int_range 0 1000)
    (fun seed ->
      let rng = Util.Rng.create seed in
      let indices = [ "i"; "j"; "k"; "l" ] in
      (* choose 1-2 output indices and factors covering all four *)
      let out_n = 1 + Util.Rng.int rng 2 in
      let out = List.filteri (fun i _ -> i < out_n) (Util.Rng.shuffle rng indices) in
      let pick_idx () =
        let n = 1 + Util.Rng.int rng 2 in
        List.filteri (fun i _ -> i < n) (Util.Rng.shuffle rng indices)
      in
      let f1 = pick_idx () and f2 = pick_idx () and f3 = pick_idx () in
      let cover = List.sort_uniq compare (out @ f1 @ f2 @ f3) in
      (* ensure every output index appears in some factor *)
      let f1 = List.sort_uniq compare (f1 @ out) in
      let used = List.sort_uniq compare (f1 @ f2 @ f3) in
      if used <> cover then QCheck.assume_fail ();
      let fmt name idx = Printf.sprintf "%s[%s]" name (String.concat " " idx) in
      let src =
        Printf.sprintf "dims: i=3 j=4 k=3 l=2\nO[%s] = %s * %s * %s"
          (String.concat " " out) (fmt "A" f1) (fmt "B" f2) (fmt "C" f3)
      in
      match Octopi.Variants.of_string src with
      | [ v ] -> Octopi.Variants.validate v
      | _ -> false)

let suite =
  [
    ("parse eqn1", `Quick, test_parse_eqn1);
    ("parse dims", `Quick, test_parse_dims);
    ("parse without Sum", `Quick, test_parse_no_sum);
    ("parse accumulate", `Quick, test_parse_accumulate);
    ("parse comments", `Quick, test_parse_comments);
    ("parse multiple statements", `Quick, test_parse_multi_statement);
    ("parse error reported", `Quick, test_parse_error);
    ("pp/parse roundtrip", `Quick, test_parse_roundtrip);
    ("contraction normalization", `Quick, test_contraction_normalize);
    ("contraction extents", `Quick, test_contraction_extents);
    ("rejects phantom output index", `Quick, test_contraction_rejects_phantom_output);
    ("rejects repeated output index", `Quick, test_contraction_rejects_repeated_output);
    ("rejects sum of output index", `Quick, test_contraction_rejects_bad_sum);
    ("rejects diagonal factor", `Quick, test_contraction_rejects_diagonal);
    ("rejects partial sum list", `Quick, test_contraction_rejects_partial_sum_list);
    ("naive flop count is O(p^6)", `Quick, test_contraction_naive_flops);
    ("evaluate matches einsum", `Quick, test_contraction_evaluate_matches_einsum);
    ("eqn1 yields 15 variants", `Quick, test_eqn1_fifteen_variants);
    ("eqn1 has 6 minimal-flop variants", `Quick, test_eqn1_six_minimal);
    ("eqn1 variants all valid", `Slow, test_eqn1_variants_all_valid);
    ("matmul single variant", `Quick, test_matmul_single_variant);
    ("three factors give 3 trees", `Quick, test_three_factor_variant_count);
    ("lowering structure", `Quick, test_lower_structure);
    ("paper's variant enumerated", `Quick, test_paper_variant_present);
    ("eager unary reduction", `Quick, test_unary_reduction);
    ("plan inputs preserved", `Quick, test_plan_inputs);
    ("fusion pairs on paper variant", `Quick, test_fusion_pairs);
    ("fusion requires dataflow", `Quick, test_fusion_requires_producer_consumer);
    ("fusion legality", `Quick, test_fusion_legality);
    QCheck_alcotest.to_alcotest qcheck_variants_preserve_semantics;
  ]
