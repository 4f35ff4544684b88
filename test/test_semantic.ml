(* Tests for the semantic layer: translation validation over the prime
   field (Check.Semantic), the mutation self-test harness (Check.Mutate),
   the symbolic access analysis (Check.Access), and their plumbing through
   the tuner's semantic gate, the journal and the doctor. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let eqn1_src =
  "dims: i=10 j=10 k=10 l=10 m=10 n=10\n\
   V[i j k] = Sum([l m n], A[l k] * B[m j] * C[n i] * U[l m n])"

let matmul_src = "dims: i=32 j=32 k=32\nC[i j] = Sum([k], A[i k] * B[k j])"

let has_code c ds = List.exists (fun (d : Check.Diag.t) -> d.code = c) ds

(* First variant choice of a DSL program plus one enumerated point per op. *)
let first_candidate src label =
  let b = Autotune.Tuner.benchmark_of_dsl ~label src in
  let c = List.hd (Autotune.Tuner.variant_choices b) in
  let points =
    List.map
      (fun s -> List.hd (Tcr.Space.enumerate s))
      c.Autotune.Tuner.spaces.op_spaces
  in
  (b, c, points)

let validate ?rounds ?mutate_kernel src label =
  let b, c, points = first_candidate src label in
  Check.Semantic.validate ?rounds ~walk:true ?mutate_kernel ~label b.statements
    ~variant_ids:c.Autotune.Tuner.ids ~ir:c.Autotune.Tuner.v_ir ~points

(* ---------------- translation validation ---------------- *)

(* Stage digests at the default rounds and seed: the MD5 of a stage's
   round-1 output fingerprints, so stages that agree share a digest. *)
let mm_digest = "5e92ea6e8452efd5ceff4cfe9aa56783"

let stage_digests = Alcotest.(check (list (pair string string)))

let test_matmul_equivalent () =
  let v = validate matmul_src "mm" in
  check_bool "equivalent" true v.Check.Semantic.equivalent;
  check_int "no diags" 0 (List.length v.diags);
  stage_digests "five stages in order, pinned"
    (List.map (fun s -> (s, mm_digest)) [ "dsl"; "variant"; "tcr"; "recipe"; "kernel" ])
    v.stages

(* Two statements accumulating into C list C twice at dsl and variant but
   once from tcr on: the stages agree, yet their digests differ. *)
let test_digest_when_names_differ () =
  let src =
    "dims: i=4 j=3 k=5\n\
     C[i j] = Sum([k], A[i k] * B[k j])\n\
     C[i j] = Sum([k], D[i k] * E[k j])"
  in
  let v = validate src "acc" in
  check_bool "equivalent" true v.Check.Semantic.equivalent;
  let twice = "eada83a48462c29958f3a93b1e70d647" and once = "54f19fec36da0055180715204d175d9a" in
  stage_digests "C;C then C"
    [ ("dsl", twice); ("variant", twice); ("tcr", once); ("recipe", once); ("kernel", once) ]
    v.stages

let test_validate_deterministic () =
  let a = validate matmul_src "mm" and b = validate matmul_src "mm" in
  Alcotest.(check (list (pair string string)))
    "digests identical across runs" a.Check.Semantic.stages b.Check.Semantic.stages

(* Every one of Eqn.(1)'s variants validates across all five stages, for
   several points of each variant's space. *)
let test_eqn1_all_variants () =
  let b = Autotune.Tuner.benchmark_of_dsl ~label:"eqn1" eqn1_src in
  let choices = Autotune.Tuner.variant_choices b in
  check_int "paper's 15 variants" 15 (List.length choices);
  let rng = Util.Rng.create 7 in
  List.iter
    (fun (c : Autotune.Tuner.variant_choice) ->
      let points = List.map (fun s -> Tcr.Space.sample rng s) c.spaces.op_spaces in
      let v =
        Check.Semantic.validate ~rounds:1 ~walk:true ~label:"eqn1" b.statements
          ~variant_ids:c.ids ~ir:c.v_ir ~points
      in
      if not v.equivalent then
        Alcotest.failf "variant %s not equivalent:\n%s"
          (String.concat "." (List.map string_of_int c.ids))
          (Check.Diag.render_report v.diags))
    choices

(* Unrolling and reduction reordering are semantics-preserving: validate a
   point with unrolls and a permuted red_order. *)
let test_permuted_schedule_equivalent () =
  let b = Autotune.Tuner.benchmark_of_dsl ~label:"eqn1" eqn1_src in
  let choices = Autotune.Tuner.variant_choices b in
  let score (p : Tcr.Space.point) =
    (if List.length p.red_order > 1 then 2 else 0)
    + if List.exists (fun (_, u) -> u > 1) p.unrolls then 1 else 0
  in
  let best_point space =
    let points = Tcr.Space.enumerate space in
    List.fold_left (fun best q -> if score q > score best then q else best)
      (List.hd points) points
  in
  let total_score, c, points =
    List.fold_left
      (fun (best_s, _, _ as best) (c : Autotune.Tuner.variant_choice) ->
        let ps = List.map best_point c.spaces.op_spaces in
        let s = List.fold_left (fun acc p -> acc + score p) 0 ps in
        if s > best_s then (s, Some c, ps) else best)
      (-1, None, []) choices
  in
  check_bool "found a permuted or unrolled point" true (total_score > 0);
  let c = Option.get c in
  let v =
    Check.Semantic.validate ~rounds:1 ~walk:true ~label:"eqn1" b.statements ~variant_ids:c.ids
      ~ir:c.v_ir ~points
  in
  check_bool "permuted+unrolled point equivalent" true v.equivalent

let test_rounds_must_be_positive () =
  List.iter
    (fun rounds ->
      Alcotest.check_raises
        (Printf.sprintf "rounds %d" rounds)
        (Invalid_argument "Semantic.validate: rounds must be >= 1")
        (fun () -> ignore (validate ~rounds matmul_src "mm")))
    [ 0; -3 ]

(* An NWChem triples kernel's five stages agree, pinned: the reference
   stages fingerprint an output they never form, the kernel stage the one
   its loop plan forms. *)
let test_nwchem_d1_stage_digests () =
  let b = Benchsuite.Nwchem.benchmark ~n:4 Benchsuite.Nwchem.D1 ~index:1 in
  let c = List.hd (Autotune.Tuner.variant_choices b) in
  let points = List.map (fun s -> List.hd (Tcr.Space.enumerate s)) c.spaces.op_spaces in
  let v =
    Check.Semantic.validate ~walk:true ~label:b.label b.statements ~variant_ids:c.ids
      ~ir:c.v_ir ~points
  in
  check_bool "equivalent" true v.equivalent;
  stage_digests "five stages, pinned"
    (List.map
       (fun s -> (s, "ce78b71c22cb452aa64d6ed9c2d0bfd5"))
       [ "dsl"; "variant"; "tcr"; "recipe"; "kernel" ])
    v.stages

(* A recipe that maps j twice (tx = bx = j) iterates j twice, so it adds
   every point once per value of j and fails at the recipe stage. Its
   fingerprint differs from tcr's, and the element-wise pass that follows
   names the first element that differs. *)
let test_duplicated_index_fails_at_recipe () =
  let src = "dims: i=4 j=3 k=5\nC[i j] = Sum([k], A[i k] * B[k j])" in
  let b, c, points = first_candidate src "mm" in
  Alcotest.(check (list string)) "first point" [ "tx=j ty=1 bx=i by=1 uk=1" ]
    (List.map Tcr.Space.point_key points);
  let points =
    List.map
      (fun (p : Tcr.Space.point) -> { p with decomp = { p.decomp with bx = "j" } })
      points
  in
  let v =
    Check.Semantic.validate ~label:"mm" b.statements ~variant_ids:c.Autotune.Tuner.ids
      ~ir:c.Autotune.Tuner.v_ir ~points
  in
  Alcotest.(check (option string)) "failed at recipe" (Some "recipe") v.failed_stage;
  let agreed = "5ceef50b744456d255587733bba14c77" in
  stage_digests "recipe digest differs"
    [
      ("dsl", agreed);
      ("variant", agreed);
      ("tcr", agreed);
      ("recipe", "2c13c542b5d2708c8e6e67b952b25b50");
    ]
    v.stages;
  Alcotest.(check (list string)) "one BAR062"
    [
      "[BAR062] error (semantic) mm: recipe stage disagrees with its parent on C[0]: \
       586522345 vs 1759567035 (mod 2147483647, round 1 of 2)";
    ]
    (List.map Check.Diag.render v.diags)

(* ---------------- stage-injection pins ---------------- *)

(* Corrupting the TCR stage (an op's factors) must be blamed on tcr
   (BAR061), not on a later stage. *)
let test_tcr_corruption_is_bar061 () =
  let b, c, points = first_candidate matmul_src "mm" in
  let ir = c.Autotune.Tuner.v_ir in
  let op = List.hd ir.ops in
  let op' =
    { op with Tcr.Ir.factors = List.map (fun (n, d) -> (n, List.rev d)) op.factors }
  in
  let ir = { ir with Tcr.Ir.ops = [ op' ] } in
  let v =
    Check.Semantic.validate ~label:"mm" b.statements ~variant_ids:c.Autotune.Tuner.ids
      ~ir ~points
  in
  check_bool "not equivalent" false v.Check.Semantic.equivalent;
  check_bool "BAR061" true (has_code "BAR061" v.diags);
  Alcotest.(check (option string)) "failed at tcr" (Some "tcr") v.failed_stage

(* Eqn.(1) at n = 4: its first variant writes two temporaries, s1_T1[j k
   l m] = A[l k] * B[m j] and s1_T2[i l m] = C[n i] * U[l m n], that V's op
   reads. Dropping a factor of the first temporary's op, or swapping two
   indices of V's first temporary reference, is a TCR bug: the tcr stage
   forms the temporaries, and the BAR061 names the first element of V that
   differs. *)
let test_tcr_temporary_injections () =
  let src =
    "dims: i=4 j=4 k=4 l=4 m=4 n=4\n\
     V[i j k] = Sum([l m n], A[l k] * B[m j] * C[n i] * U[l m n])"
  in
  let b, c, points = first_candidate src "eqn1" in
  let ir = c.Autotune.Tuner.v_ir in
  let is_temp name = List.exists (fun (v : Tcr.Ir.var) -> v.name = name) (Tcr.Ir.temps ir) in
  (* rewrite the first element of [l] that [hit] selects *)
  let rec first hit f = function
    | x :: rest when hit x -> f x :: rest
    | x :: rest -> x :: first hit f rest
    | [] -> Alcotest.fail "no injection site"
  in
  let drop_factor ops =
    first
      (fun (op : Tcr.Ir.op) -> is_temp op.out)
      (fun op -> { op with factors = List.tl op.factors })
      ops
  in
  let swap_temp_ref ops =
    first
      (fun (op : Tcr.Ir.op) -> List.exists (fun (name, _) -> is_temp name) op.factors)
      (fun op ->
        let swap (name, dims) =
          match dims with a :: b :: rest -> (name, b :: a :: rest) | _ -> (name, dims)
        in
        { op with factors = first (fun (name, _) -> is_temp name) swap op.factors })
      ops
  in
  List.iter
    (fun (what, inject) ->
      let ir = { ir with Tcr.Ir.ops = inject ir.ops } in
      let v =
        Check.Semantic.validate ~label:"eqn1" b.statements ~variant_ids:c.Autotune.Tuner.ids
          ~ir ~points
      in
      Alcotest.(check (option string)) (what ^ ": failed at tcr") (Some "tcr") v.failed_stage;
      match v.diags with
      | [ d ] ->
        Alcotest.(check string) (what ^ ": BAR061") "BAR061" d.code;
        check_bool (what ^ ": names an element of V") true
          (Astring_contains.contains d.message "tcr stage disagrees with its parent on V[")
      | ds -> Alcotest.failf "%s: expected one diagnostic, got %d" what (List.length ds))
    [ ("drop a factor", drop_factor); ("swap a temporary's indices", swap_temp_ref) ]

(* Above the gate budget a mismatch is reported by its fingerprints: at
   n = 13 Eqn.(1)'s naive einsum iterates 13^6 points, more than the
   budget, so swap-index names the output and both fingerprints instead of
   evaluating the stages element by element. *)
let test_mismatch_above_budget () =
  let src =
    "dims: i=13 j=13 k=13 l=13 m=13 n=13\n\
     V[i j k] = Sum([l m n], A[l k] * B[m j] * C[n i] * U[l m n])"
  in
  let b, c, points = first_candidate src "eqn1" in
  check_bool "over budget" true (Check.Semantic.cost b.statements > Check.Semantic.gate_budget);
  let mutate_kernel k = fst (Check.Mutate.apply Check.Mutate.Swap_factor_indices k) in
  let v =
    Check.Semantic.validate ~mutate_kernel ~label:"eqn1" b.statements
      ~variant_ids:c.Autotune.Tuner.ids ~ir:c.Autotune.Tuner.v_ir ~points
  in
  Alcotest.(check (list string)) "one BAR063 naming the fingerprints"
    [
      "[BAR063] error (semantic) eqn1: kernel stage disagrees with its parent on V: \
       fingerprint 1944452249 vs 1706612521 (mod 2147483647, round 1 of 2)";
    ]
    (List.map Check.Diag.render v.diags)

(* A reference read with a shape other than its tensor's (only a hand-built
   program can have one: the front end rejects a tensor used with two
   shapes) aborts its stage instead of reading past the allocation. *)
let test_reference_shape_aborts () =
  let src = "dims: i=3 j=5 k=7\nC[i j] = Sum([k], A[i k] * B[k j])" in
  let b, c, points = first_candidate src "mm" in
  let ir = c.Autotune.Tuner.v_ir in
  let a_as_kj (n, d) = if n = "A" then (n, [ "k"; "j" ]) else (n, d) in
  let reread (op : Tcr.Ir.op) = { op with factors = List.map a_as_kj op.factors } in
  let v =
    Check.Semantic.validate ~label:"mm" b.statements ~variant_ids:c.Autotune.Tuner.ids
      ~ir:{ ir with Tcr.Ir.ops = List.map reread ir.ops } ~points
  in
  Alcotest.(check (list string)) "one BAR064 at the tcr stage"
    [
      "[BAR064] error (semantic) mm: semantic evaluation aborted at the tcr stage: A[k j] has \
       shape [7x5], but A is allocated as [3x7]";
    ]
    (List.map Check.Diag.render v.diags)

(* A recipe whose red_order is not a permutation aborts at the recipe
   stage (BAR064) rather than pretending equivalence. *)
let test_bad_red_order_aborts () =
  let b, c, points = first_candidate matmul_src "mm" in
  let points =
    List.map (fun (p : Tcr.Space.point) -> { p with Tcr.Space.red_order = [ "i" ] }) points
  in
  let v =
    Check.Semantic.validate ~label:"mm" b.statements ~variant_ids:c.Autotune.Tuner.ids
      ~ir:c.Autotune.Tuner.v_ir ~points
  in
  check_bool "not equivalent" false v.Check.Semantic.equivalent;
  check_bool "BAR064" true (has_code "BAR064" v.diags)

(* ---------------- mutation harness ---------------- *)

let mutation_caught m =
  let b, c, points = first_candidate matmul_src "mm" in
  let applied = ref false in
  let mutate_kernel k =
    let k', did = Check.Mutate.apply m k in
    if did then applied := true;
    k'
  in
  let v =
    Check.Semantic.validate ~mutate_kernel ~label:"mm" b.statements
      ~variant_ids:c.Autotune.Tuner.ids ~ir:c.Autotune.Tuner.v_ir ~points
  in
  (!applied, v)

(* The stage that disagrees with its parent has its own digest. *)
let test_mutation_swap_index () =
  let applied, v = mutation_caught Check.Mutate.Swap_factor_indices in
  check_bool "applied" true applied;
  check_bool "caught" false v.Check.Semantic.equivalent;
  stage_digests "failing kernel stage digested"
    (List.map (fun s -> (s, mm_digest)) [ "dsl"; "variant"; "tcr"; "recipe" ]
    @ [ ("kernel", "e4336f14ee332bddff5690709ab8bed9") ])
    v.stages;
  match v.diags with
  | [ d ] ->
    Alcotest.(check string) "BAR063" "BAR063" d.code;
    check_bool "first mismatch" true
      (Astring_contains.contains d.message "on C[0]: 861637739 vs 1608435588")
  | ds -> Alcotest.failf "expected one diagnostic, got %d" (List.length ds)

(* The corrupted read fails inside a reduction run: the plan's box proof
   fails before anything runs, and its message names the run's first
   failing point, as a check at every point would. *)
let test_mutation_corrupt_stride () =
  let applied, v = mutation_caught Check.Mutate.Corrupt_stride in
  check_bool "applied" true applied;
  check_bool "caught" false v.Check.Semantic.equivalent;
  match v.diags with
  | [ d ] ->
    Alcotest.(check string) "BAR063" "BAR063" d.code;
    Alcotest.(check string) "whole message"
      "kernel stage: kernel mm_GPU_1 accesses B at linear offset 1024 outside its 1024 \
       elements (round 1 of 2)"
      d.message
  | ds -> Alcotest.failf "expected one diagnostic, got %d" (List.length ds)

let test_mutation_drop_accumulation () =
  let applied, v = mutation_caught Check.Mutate.Drop_accumulation in
  check_bool "applied" true applied;
  check_bool "caught" false v.Check.Semantic.equivalent;
  check_bool "BAR063" true (has_code "BAR063" v.diags)

(* The plan's box proof is shared: one block past the grid makes float
   execution raise Exec.Out_of_bounds, and translation validation report
   the same message as a kernel-stage BAR063. *)
let test_kernel_oob_shared () =
  let b, c, points = first_candidate matmul_src "mm" in
  let ir = c.Autotune.Tuner.v_ir in
  let grow (k : Codegen.Kernel.t) = { k with grid = (fst k.grid + 1, snd k.grid) } in
  let k = grow (List.hd (Codegen.Kernel.lower_program ir points)) in
  let rng = Util.Rng.create 3 in
  let inputs =
    List.map
      (fun (v : Tcr.Ir.var) ->
        (v.name, Tensor.Dense.random rng (Tcr.Ir.var_shape ir v.name)))
      (Tcr.Ir.inputs ir)
  in
  let msg =
    match Codegen.Exec.run_kernel k (Codegen.Exec.allocate_produced ir inputs) with
    | () -> Alcotest.fail "grown grid executed without an out-of-bounds access"
    | exception Codegen.Exec.Out_of_bounds msg -> msg
  in
  let contains = Astring_contains.contains in
  check_bool "names the kernel" true (contains msg "kernel mm_GPU_1 ");
  check_bool "names the output" true (contains msg " accesses C ");
  let v =
    Check.Semantic.validate ~mutate_kernel:grow ~label:"mm" b.statements
      ~variant_ids:c.Autotune.Tuner.ids ~ir ~points
  in
  Alcotest.(check (option string)) "failed at kernel" (Some "kernel") v.failed_stage;
  match v.diags with
  | [ d ] ->
    Alcotest.(check string) "BAR063" "BAR063" d.code;
    check_bool "same message" true (contains d.message msg)
  | ds -> Alcotest.failf "expected one diagnostic, got %d" (List.length ds)

(* A statement that reads its own accumulation target is a BAR017 race.
   The kernel keeps each element's sum in a private accumulator and stores
   it once, so the second kernel's reads of C see only the elements
   already stored, where the reference stages update C at every point:
   the kernel stage disagrees. A kernel stage that updated the output per
   point would agree with them and call the program equivalent. *)
let race_src =
  "dims: i=4 j=4 k=4\n\
   C[i j] = Sum([k], A[i k] * B[k j])\n\
   C[i j] += Sum([k], C[i k] * B[k j])"

let test_kernel_stage_catches_race () =
  let v = validate race_src "tc" in
  Alcotest.(check (option string)) "failed at kernel" (Some "kernel") v.failed_stage;
  Alcotest.(check (list string)) "one BAR063"
    [
      "[BAR063] error (semantic) tc: kernel stage disagrees with its parent on C[1]: \
       1453419309 vs 500939965 (mod 2147483647, round 1 of 2)";
    ]
    (List.map Check.Diag.render v.diags)

(* The loop plan's box proof at its edges, in both instances: float
   execution (Exec.run_kernel) and the F_p kernel stage (each kernel
   applied as a mutation of the first candidate's). *)
let edge_src = "dims: i=5 j=6 k=7\nC[i j] = Sum([k], A[i k] * B[k j])"

let test_box_proof_edges () =
  let b, c, points = first_candidate edge_src "mm" in
  let ir = c.Autotune.Tuner.v_ir in
  Alcotest.(check (list string)) "first point" [ "tx=j ty=1 bx=i by=1 uk=1" ]
    (List.map Tcr.Space.point_key points);
  let k = List.hd (Codegen.Kernel.lower_program ir points) in
  let rng = Util.Rng.create 3 in
  let inputs =
    List.map
      (fun (v : Tcr.Ir.var) -> (v.name, Tensor.Dense.random rng (Tcr.Ir.var_shape ir v.name)))
      (Tcr.Ir.inputs ir)
  in
  let reference = List.assoc "C" (Codegen.Exec.run_reference ir inputs) in
  let run k =
    let env = Codegen.Exec.allocate_produced ir inputs in
    match Codegen.Exec.run_kernel k env with
    | () -> Ok (List.assoc "C" env)
    | exception Codegen.Exec.Out_of_bounds msg -> Error msg
  in
  let validate k =
    Check.Semantic.validate ~walk:true ~mutate_kernel:(fun _ -> k) ~label:"mm" b.statements
      ~variant_ids:c.Autotune.Tuner.ids ~ir ~points
  in
  let messages (v : Check.Semantic.verdict) =
    List.map (fun (d : Check.Diag.t) -> (d.code, d.message)) v.diags
  in
  let d = k.decomp in
  (* bx and tx trade indices: a kernel whose largest offset into every
     factor is exactly its last element *)
  let swapped =
    {
      k with
      decomp = { d with tx = d.bx; bx = d.tx };
      grid = (fst k.block, snd k.grid);
      block = (fst k.grid, snd k.block);
    }
  in
  let env = Codegen.Exec.allocate_produced ir inputs in
  let p =
    Codegen.Exec.plan swapped ~elements:(fun name ->
        Tensor.Dense.num_elements (List.assoc name env))
  in
  let largest = Array.make (Array.length p.steps) 0 in
  let cur = Codegen.Exec.start p in
  while cur.level >= 0 do
    Array.iteri
      (fun f off -> largest.(f) <- max largest.(f) (off + ((p.run - 1) * p.steps.(f))))
      cur.offsets;
    Codegen.Exec.step p cur
  done;
  Alcotest.(check (list int)) "largest offsets: the last elements" [ 34; 41 ]
    (Array.to_list largest);
  (match run swapped with
  | Ok got -> check_bool "matches the oracle" true (Tensor.Dense.approx_equal reference got)
  | Error msg -> Alcotest.failf "raised %s" msg);
  check_bool "the F_p stage agrees" true (validate swapped).equivalent;
  (* one thread past j's extent: the largest offset into B (and into C) is
     one past its last element, and the first point out of bounds in
     visit order reads B *)
  let past = { k with block = (fst k.block + 1, snd k.block) } in
  check_bool "one past B" true
    (Codegen.Kernel.bound past [ "k"; "j" ] = Codegen.Kernel.Past (42, 42));
  let msg = "kernel mm_GPU_1 accesses B at linear offset 42 outside its 42 elements" in
  Alcotest.(check (result reject string)) "float raises" (Error msg)
    (Result.map ignore (run past));
  let v = validate past in
  Alcotest.(check (option string)) "F_p fails at kernel" (Some "kernel") v.failed_stage;
  Alcotest.(check (list (pair string string))) "the same text as BAR063"
    [ ("BAR063", "kernel stage: " ^ msg ^ " (round 1 of 2)") ]
    (messages v);
  (* tx = bx = j with the grid one block past j's extent: bx's slot write
     never reaches an address, since tx, the inner binder, writes it last.
     A proof over each slot's largest extent would reject the kernel. *)
  let shared =
    {
      k with
      decomp = { d with bx = d.tx; by = Some d.bx };
      grid = (fst k.block + 1, fst k.grid);
    }
  in
  check_bool "slot ranges overrun C" true
    (Codegen.Kernel.bound shared [ "i"; "j" ] <> Codegen.Kernel.Within);
  (match run shared with
  | Ok got ->
    check_bool "7 x the oracle" true
      (Tensor.Dense.approx_equal (Tensor.Dense.scale 7.0 reference) got)
  | Error msg -> Alcotest.failf "raised %s" msg);
  let v = validate shared in
  Alcotest.(check (option string)) "F_p runs, and disagrees" (Some "kernel") v.failed_stage;
  Alcotest.(check (list (pair string string))) "a value, not an address"
    [
      ( "BAR063",
        "kernel stage disagrees with its parent on C[0]: 1674187354 vs 981893243 (mod \
         2147483647, round 1 of 2)" );
    ]
    (messages v)

(* ---------------- the kernel stage's proof ---------------- *)

(* One candidate validated proof-first (the tuner's gate) and walked
   (check's path): the verdicts agree field for field, apart from how the
   kernel stage ran. Returns the proof-first verdict. *)
let proof_beside_walk ?rounds ?mutate_kernel (b : Autotune.Tuner.benchmark) ids ir points =
  let run walk =
    Check.Semantic.validate ?rounds ~walk ?mutate_kernel ~label:b.label b.statements
      ~variant_ids:ids ~ir ~points
  in
  let proof = run false and walked = run true in
  check_bool (b.label ^ ": check's path walks") false walked.kernel_proven;
  check_bool (b.label ^ ": the walked verdict, field for field") true
    ({ proof with kernel_proven = false } = walked);
  proof

(* The proof's corpus, built once: the kernels and candidates of "codegen:
   kernel consumers pinned", with every NWChem kernel at n = 8 and the
   Table II problems at walkable sizes. *)
let proof_corpus = lazy (Test_codegen.consumer_sweep ~extended:true ())

(* The kernel [Kernel.lower ~scalar_replace:false] gives: that argument
   sets only this field. *)
let no_scalar_replacement (k : Codegen.Kernel.t) = { k with scalar_replaced = false }

(* Kernel [k] proven against [op] of [ir] under [point], as one op of its
   program: a program's proof is each kernel's against its own op. *)
let proven (ir : Tcr.Ir.t) point op k =
  Check.Semantic.prove_kernels { ir with ops = [ op ] } [ point ] [ k ]

(* Every kernel of the corpus, with and without scalar replacement, is
   proven; every candidate gets the walked verdict proof-first, without
   walking. The _n8 kernels guard the gate's saving: serve-cold tunes
   kernels 1-4 of each NWChem family at n = 8. *)
let test_proof_holds_beside_walk () =
  let kernels, candidates = Lazy.force proof_corpus in
  check_bool "corpus size" true (List.length kernels > 1000);
  List.iter
    (fun (ir, p, (k : Codegen.Kernel.t), _) ->
      let key =
        Printf.sprintf "%s at %s%s" k.name (Tcr.Space.point_key p)
          (if Astring_contains.contains k.name "_n8_" then " (serve-cold guard)" else "")
      in
      List.iter
        (fun k' -> check_bool key true (proven ir p k.op k'))
        [ k; no_scalar_replacement k ])
    kernels;
  List.iter
    (fun ((b : Autotune.Tuner.benchmark), (c : Autotune.Tuner.variant_choice), points) ->
      List.iter
        (fun mutate_kernel ->
          let v = proof_beside_walk ?mutate_kernel ~rounds:1 b c.ids c.v_ir points in
          check_bool (b.label ^ ": equivalent") true v.equivalent;
          check_bool (b.label ^ ": proven") true v.kernel_proven)
        [ None; Some no_scalar_replacement ])
    candidates

(* Every applied mutation of a corpus kernel breaks a fact; under the
   mutation harness a candidate walks exactly when a mutation applied, and
   its verdict (BAR063 text included) is the walked one. *)
let test_proof_fails_on_mutations () =
  let kernels, candidates = Lazy.force proof_corpus in
  let applied = ref 0 in
  List.iter
    (fun (ir, p, (k : Codegen.Kernel.t), _) ->
      List.iter
        (fun m ->
          match Check.Mutate.apply m k with
          | k', true ->
            incr applied;
            check_bool (Check.Mutate.name m ^ " on " ^ k.name) false (proven ir p k.op k')
          | _, false -> ())
        Check.Mutate.all)
    kernels;
  check_bool "mutations applied" true (!applied > 1000);
  List.iter
    (fun ((b : Autotune.Tuner.benchmark), (c : Autotune.Tuner.variant_choice), points) ->
      let kernels = Codegen.Kernel.lower_program c.v_ir points in
      List.iter
        (fun m ->
          let v =
            proof_beside_walk ~rounds:1
              ~mutate_kernel:(fun k -> fst (Check.Mutate.apply m k))
              b c.ids c.v_ir points
          in
          let changed = List.exists (fun k -> snd (Check.Mutate.apply m k)) kernels in
          check_bool (b.label ^ ": walks exactly when mutated") changed (not v.kernel_proven))
        Check.Mutate.all)
    candidates

(* The race program's second kernel reads its own output, and a kernel
   whose tx and bx bind one index counts each point once per block: both
   walk, with the walk's verdict. *)
let test_proof_failures_fall_back () =
  let b, c, points = first_candidate race_src "tc" in
  let ir = c.Autotune.Tuner.v_ir in
  let kernels = Codegen.Kernel.lower_program ir points in
  check_bool "the first kernel alone is proven" true
    (proven ir (List.hd points) (List.hd ir.ops) (List.hd kernels));
  check_bool "the self-read is not" false (Check.Semantic.prove_kernels ir points kernels);
  let v = proof_beside_walk b c.ids ir points in
  Alcotest.(check (option string)) "race: failed at kernel" (Some "kernel") v.failed_stage;
  let b, c, points = first_candidate matmul_src "mm" in
  let shared (k : Codegen.Kernel.t) =
    let d = k.decomp in
    { k with decomp = { d with bx = d.tx; by = Some d.bx }; grid = (fst k.block, fst k.grid) }
  in
  let v = proof_beside_walk ~mutate_kernel:shared b c.ids c.v_ir points in
  check_bool "tx = bx: walked" false v.kernel_proven;
  Alcotest.(check (list string)) "tx = bx: a BAR063 value"
    [ "BAR063" ]
    (List.map (fun (d : Check.Diag.t) -> d.code) v.diags)

(* ---------------- programs without a search point ---------------- *)

(* A rank-1 output has no decomposition (tx and bx need two distinct
   output indices), so its schedule space is empty. *)
let rank1_src = "dims: i=8 j=6\nC[i] = Sum([j], T[i j] * X[j])"

let test_rank1_tune () =
  let b = Autotune.Tuner.benchmark_of_dsl ~label:"rank1" rank1_src in
  Alcotest.check_raises "fails before building a pool"
    (Autotune.Tuner.Empty_space "rank1: no search point for op1(C), so there is nothing to tune")
    (fun () ->
      ignore (Autotune.Tuner.tune ~rng:(Util.Rng.create 1) ~arch:Gpusim.Arch.gtx980 b))

(* ---------------- symbolic access analysis ---------------- *)

let mm_point_kernel () =
  let _, c, points = first_candidate matmul_src "mm" in
  List.hd (Codegen.Kernel.lower_program c.Autotune.Tuner.v_ir points)

(* The clean matmul kernel: exact and model coalescing agree on every
   reference (aligned 32-extent tiles keep every warp representative), and
   the error pass is empty. *)
let test_access_summary_clean () =
  let k = mm_point_kernel () in
  let a = Codegen.Kernel.access k in
  List.iter
    (fun (r : Codegen.Kernel.reference) ->
      let exact = Gpusim.Coalesce.exact_transactions_per_warp k a r in
      let model = Gpusim.Coalesce.transactions_per_warp k a r in
      check_bool
        (Printf.sprintf "%s: exact %.2f within [1, 32]" r.name exact)
        true
        (exact >= 1.0 && exact <= 32.0);
      check_bool
        (Printf.sprintf "%s: model agrees with exact grid average" r.name)
        true
        (Float.abs (model -. exact) <= Check.Access.model_divergence_threshold))
    (a.out :: a.factors);
  check_int "no errors" 0
    (List.length (Check.Kernel_check.check ~lints:false Gpusim.Arch.gtx980 k))

(* ---------------- the tuner's semantic gate ---------------- *)

let tune_eqn1 () =
  let b = Autotune.Tuner.benchmark_of_dsl ~label:"eqn1" eqn1_src in
  let cfg = { Surf.Search.default_config with max_evals = 10 } in
  Autotune.Tuner.tune
    ~strategy:(Autotune.Tuner.Surf_search cfg)
    ~pool_per_variant:40 ~rng:(Util.Rng.create 42) ~arch:Gpusim.Arch.gtx980 b

(* Acceptance: the semantic gate validates the winner after the search,
   with a verdict digesting all five stages. *)
let test_semantic_gate_proves_winner () =
  match (tune_eqn1 ()).semantic with
  | Some v ->
    check_bool "winner validated" true v.Check.Semantic.equivalent;
    check_int "all five stages digested" 5 (List.length v.stages);
    check_bool "its kernels proven, not walked" true v.kernel_proven
  | None -> Alcotest.fail "expected a verdict"

(* Over the oracle budget the gate skips rather than stalls the tune. *)
let test_semantic_gate_budget_skip () =
  let b = Autotune.Tuner.benchmark_of_dsl ~label:"mm" matmul_src in
  check_bool "matmul under budget" true
    (Check.Semantic.cost b.statements <= Check.Semantic.gate_budget);
  let huge = Benchsuite.Suite.tce_ex ~n:16 () in
  check_bool "tce_ex over budget" true
    (Check.Semantic.cost huge.statements > Check.Semantic.gate_budget)

(* ---------------- journal + doctor plumbing ---------------- *)

let test_journal_semantic_ok () =
  let r, entries = Obs.Journal.collect tune_eqn1 in
  match entries with
  | [ e ] -> (
    Alcotest.(check (option bool)) "entry records the verdict" (Some true)
      e.Obs.Journal.semantic_ok;
    check_bool "matches the result" true
      (e.Obs.Journal.semantic_ok
      = Option.map (fun (v : Check.Semantic.verdict) -> v.equivalent) r.semantic);
    (* codec roundtrip, both polarities *)
    List.iter
      (fun sem ->
        let e = { e with Obs.Journal.semantic_ok = sem } in
        match Obs.Journal.of_json (Obs.Journal.to_json e) with
        | Ok e' ->
          Alcotest.(check (option bool)) "semantic_ok roundtrips" sem
            e'.Obs.Journal.semantic_ok
        | Error msg -> Alcotest.failf "entry does not decode: %s" msg)
      [ Some true; Some false; None ];
    (* entries journaled before the field existed decode to None *)
    match Obs.Journal.to_json e with
    | Obs.Json.Obj fields -> (
      let legacy =
        Obs.Json.Obj (List.filter (fun (name, _) -> name <> "semantic_ok") fields)
      in
      match Obs.Journal.of_json legacy with
      | Ok e' ->
        Alcotest.(check (option bool)) "legacy decodes to None" None
          e'.Obs.Journal.semantic_ok
      | Error msg -> Alcotest.failf "legacy entry does not decode: %s" msg)
    | _ -> Alcotest.fail "journal entry did not serialize to an object")
  | es -> Alcotest.failf "expected one journal entry, got %d" (List.length es)

let test_doctor_dr050 () =
  let _, entries = Obs.Journal.collect tune_eqn1 in
  let e = List.hd entries in
  let clean =
    Obs.Doctor.diagnose { Obs.Doctor.no_inputs with journal = [ e ] }
  in
  check_bool "validated run: no DR050" false
    (List.exists (fun (f : Obs.Doctor.finding) -> f.code = "DR050") clean.findings);
  let poisoned = { e with Obs.Journal.semantic_ok = Some false } in
  let rep =
    Obs.Doctor.diagnose { Obs.Doctor.no_inputs with journal = [ poisoned ] }
  in
  match
    List.find_opt (fun (f : Obs.Doctor.finding) -> f.code = "DR050") rep.findings
  with
  | None -> Alcotest.fail "expected a DR050 finding"
  | Some f ->
    check_bool "critical" true (f.severity = Obs.Doctor.Critical);
    check_bool "names the run's key" true (f.subject = poisoned.Obs.Journal.label);
    (match f.suspects with
    | (name, score) :: _ ->
      Alcotest.(check string) "top suspect" "semantic-failure" name;
      check_bool "certain" true (score = 1.0)
    | [] -> Alcotest.fail "no suspects");
    check_bool "report pages" true (Obs.Doctor.has_critical rep)

(* ---------------- qcheck property ---------------- *)

(* Swap-index swaps the first two indices of a kernel's first factor of
   rank two or more. When neither index occurs anywhere else in the
   kernel, the swapped factor reads, for every value of the other indices,
   the same elements in another order, so the sum is unchanged. *)
let harmless_swap (k : Codegen.Kernel.t) =
  match List.find_index (fun (_, dims) -> List.length dims >= 2) k.op.factors with
  | Some f -> (
    match List.nth k.op.factors f with
    | _, a :: b :: _ ->
      let elsewhere i =
        List.mem i k.op.out_indices
        || List.exists (fun (g, (_, dims)) -> g <> f && List.mem i dims)
             (List.mapi (fun g r -> (g, r)) k.op.factors)
      in
      not (elsewhere a || elsewhere b)
    | _ -> false)
  | None -> false

(* The DSL of a random line network of three to five tensors, through
   the greedy contraction tree. *)
let random_network_src seed =
  let rng = Util.Rng.create seed in
  let n = 3 + Util.Rng.int rng 3 in
  (* line networks only: a ring's rank-0 output has no indices to
     decompose, so its schedule space is empty by construction *)
  let net = Netopt.Gen.line ~extents:[ 2; 3; 4 ] ~n rng in
  Netopt.Lower.to_dsl net (Netopt.Greedy.optimize net)

(* End-to-end soundness sweep: random tensor networks lowered through the
   real pipeline (greedy tree -> DSL -> variants -> TCR -> recipe ->
   kernel) validate across all five stages with no diagnostics, and every
   kernel mutation that changes the sum fails at the kernel stage with
   BAR063. Small extents keep the kernel walks cheap. *)
let qcheck_random_networks_validate =
  QCheck.Test.make ~name:"random networks validate end to end" ~count:15
    QCheck.(int_range 0 100000)
    (fun seed ->
      let src = random_network_src seed in
      let v = validate ~rounds:1 src "net" in
      let caught m =
        let changed = ref false in
        let mutate_kernel k =
          let k', applied = Check.Mutate.apply m k in
          if applied && not (m = Check.Mutate.Swap_factor_indices && harmless_swap k) then
            changed := true;
          k'
        in
        let v = validate ~rounds:1 ~mutate_kernel src "net" in
        (not !changed)
        || v.failed_stage = Some "kernel"
           && List.map (fun (d : Check.Diag.t) -> d.code) v.diags = [ "BAR063" ]
      in
      v.Check.Semantic.equivalent && v.diags = [] && List.for_all caught Check.Mutate.all)

(* The same random networks, proof-first beside the walk: every
   unmutated candidate is proven, every mutated one walks, and the two
   paths give one verdict. *)
let qcheck_random_networks_proof =
  QCheck.Test.make ~name:"random networks: the proof agrees with the walk" ~count:15
    QCheck.(int_range 0 100000)
    (fun seed ->
      let b, c, points = first_candidate (random_network_src seed) "net" in
      let kernels = Codegen.Kernel.lower_program c.v_ir points in
      let agrees mutate =
        let mutate_kernel = Option.map (fun m k -> fst (Check.Mutate.apply m k)) mutate in
        let mutated =
          match mutate with
          | None -> false
          | Some m -> List.exists (fun k -> snd (Check.Mutate.apply m k)) kernels
        in
        let v = proof_beside_walk ~rounds:1 ?mutate_kernel b c.ids c.v_ir points in
        v.kernel_proven = not mutated
      in
      agrees None && List.for_all (fun m -> agrees (Some m)) Check.Mutate.all)

let test_mutation_names_roundtrip () =
  List.iter
    (fun m ->
      match Check.Mutate.of_name (Check.Mutate.name m) with
      | Some m' -> check_bool "roundtrip" true (m = m')
      | None -> Alcotest.fail "name did not round-trip")
    Check.Mutate.all

let suite =
  [
    Alcotest.test_case "matmul equivalent" `Quick test_matmul_equivalent;
    Alcotest.test_case "digests: differing output names digested fresh" `Quick
      test_digest_when_names_differ;
    Alcotest.test_case "deterministic" `Quick test_validate_deterministic;
    Alcotest.test_case "rounds must be positive" `Quick test_rounds_must_be_positive;
    Alcotest.test_case "eqn1 all variants" `Slow test_eqn1_all_variants;
    Alcotest.test_case "permuted schedule equivalent" `Quick test_permuted_schedule_equivalent;
    Alcotest.test_case "nwchem d1 stage digests pinned" `Quick test_nwchem_d1_stage_digests;
    Alcotest.test_case "duplicated index fails at recipe" `Quick
      test_duplicated_index_fails_at_recipe;
    Alcotest.test_case "tcr corruption is BAR061" `Quick test_tcr_corruption_is_bar061;
    Alcotest.test_case "tcr: temporary injections are BAR061" `Quick
      test_tcr_temporary_injections;
    Alcotest.test_case "mismatch above the budget names fingerprints" `Quick
      test_mismatch_above_budget;
    Alcotest.test_case "reference with another shape aborts" `Quick test_reference_shape_aborts;
    Alcotest.test_case "bad red_order aborts" `Quick test_bad_red_order_aborts;
    Alcotest.test_case "mutation: swap-index" `Quick test_mutation_swap_index;
    Alcotest.test_case "mutation: corrupt-stride" `Quick test_mutation_corrupt_stride;
    Alcotest.test_case "mutation: drop-accumulation" `Quick test_mutation_drop_accumulation;
    Alcotest.test_case "kernel stage: out-of-bounds shared with Exec" `Quick
      test_kernel_oob_shared;
    Alcotest.test_case "kernel stage: catches the accumulation race" `Quick
      test_kernel_stage_catches_race;
    Alcotest.test_case "kernel stage: box proof edges in both instances" `Quick
      test_box_proof_edges;
    Alcotest.test_case "kernel proof: holds beside the walk" `Quick test_proof_holds_beside_walk;
    Alcotest.test_case "kernel proof: every applied mutation walks" `Quick
      test_proof_fails_on_mutations;
    Alcotest.test_case "kernel proof: a self-read or tx = bx walks" `Quick
      test_proof_failures_fall_back;
    Alcotest.test_case "mutation names roundtrip" `Quick test_mutation_names_roundtrip;
    Alcotest.test_case "rank-1: tune fails with a typed error" `Quick test_rank1_tune;
    Alcotest.test_case "access: clean summary" `Quick test_access_summary_clean;
    Alcotest.test_case "gate: fixed-seed tune proves its winner" `Quick
      test_semantic_gate_proves_winner;
    Alcotest.test_case "gate: oracle budget" `Quick test_semantic_gate_budget_skip;
    Alcotest.test_case "journal: semantic_ok codec and legacy decode" `Quick
      test_journal_semantic_ok;
    Alcotest.test_case "doctor: DR050 on a failed winner" `Quick test_doctor_dr050;
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [ qcheck_random_networks_validate; qcheck_random_networks_proof ]
