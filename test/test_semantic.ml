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
  Check.Semantic.validate ?rounds ?mutate_kernel ~label b.statements
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
        Check.Semantic.validate ~rounds:1 ~label:"eqn1" b.statements ~variant_ids:c.ids
          ~ir:c.v_ir ~points
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
    Check.Semantic.validate ~rounds:1 ~label:"eqn1" b.statements ~variant_ids:c.ids
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
   its walk forms. *)
let test_nwchem_d1_stage_digests () =
  let b = Benchsuite.Nwchem.benchmark ~n:4 Benchsuite.Nwchem.D1 ~index:1 in
  let c = List.hd (Autotune.Tuner.variant_choices b) in
  let points = List.map (fun s -> List.hd (Tcr.Space.enumerate s)) c.spaces.op_spaces in
  let v =
    Check.Semantic.validate ~label:b.label b.statements ~variant_ids:c.ids ~ir:c.v_ir ~points
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

(* The corrupted read fails inside a reduction run: the run's in-bounds
   prefix runs, then its first failing point raises the message a check
   at every point gives. *)
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

(* The walker's bounds check is shared: one block past the grid makes
   float execution raise Exec.Out_of_bounds, and translation validation
   report the same message as a kernel-stage BAR063. *)
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

(* ---------------- programs without a search point ---------------- *)

(* A rank-1 output has no decomposition (tx and bx need two distinct
   output indices), so its schedule space is empty. *)
let rank1_src = "dims: i=8 j=6\nC[i] = Sum([j], T[i j] * X[j])"

(* The CLI binary, built beside the test-suite (see test/dune): its exit
   code and its standard output and error together. *)
let run_cli args =
  let cli =
    List.fold_left Filename.concat
      (Filename.dirname Sys.executable_name)
      [ Filename.parent_dir_name; "bin"; "barracuda_cli.exe" ]
  in
  let out = Filename.temp_file "barracuda" ".out" in
  let code =
    Sys.command (Printf.sprintf "%s %s > %s 2>&1" (Filename.quote cli) args (Filename.quote out))
  in
  let text = In_channel.with_open_bin out In_channel.input_all in
  Sys.remove out;
  (code, text)

let test_rank1_check_semantic () =
  let code, text = run_cli ("check --semantic -e " ^ Filename.quote rank1_src) in
  check_int "exit 1" 1 code;
  check_bool "one BAR064 naming op1(C)" true
    (Astring_contains.contains text
       "[BAR064] error (semantic) tc: no search point for op1(C), so no candidate can be \
        validated");
  check_bool "nothing proven" true
    (Astring_contains.contains text "translation validation: nothing proven");
  check_bool "no internal error" false (Astring_contains.contains text "internal error")

let test_rank1_tune () =
  let b = Autotune.Tuner.benchmark_of_dsl ~label:"rank1" rank1_src in
  Alcotest.check_raises "fails before building a pool"
    (Autotune.Tuner.Empty_space "rank1: no search point for op1(C), so there is nothing to tune")
    (fun () ->
      ignore (Autotune.Tuner.tune ~rng:(Util.Rng.create 1) ~arch:Gpusim.Arch.gtx980 b));
  List.iter
    (fun cmd ->
      let code, text = run_cli (cmd ^ " -e " ^ Filename.quote rank1_src) in
      check_int (cmd ^ ": exit 1") 1 code;
      check_bool (cmd ^ ": names op1(C)") true
        (Astring_contains.contains text "no search point for op1(C)");
      check_bool (cmd ^ ": no gate warning") false
        (Astring_contains.contains text "static gate rejected");
      check_bool (cmd ^ ": no internal error") false
        (Astring_contains.contains text "internal error"))
    [ "tune"; "cuda" ]

(* A replay artifact of one request: [header] adjusts a valid header,
   and [record] is the request line as written. *)
let artifact ?(header = Fun.id) record =
  let h =
    {
      Obs.Replay.requests = 1;
      seed = 0;
      batch = 1;
      error_rate = 0.0;
      degrade = 1.0;
      degrade_at = 0;
      monitor = false;
      width = 10;
      buckets = 2;
      slo = Obs.Slo.default_spec;
      classes = [| { label = "mm"; dsl = matmul_src; key = "k"; run_id = None; weight = 1 } |];
    }
  in
  let path = Filename.temp_file "barracuda" ".jsonl" in
  Out_channel.with_open_bin path (fun oc ->
      output_string oc (Obs.Replay.header_line (header h));
      output_string oc record);
  path

(* A tensor used with two shapes: within one statement, and as one
   statement's output read by the next. *)
let shape_clashes =
  [
    "dims: i=3 j=5 k=7\nC[i j] = Sum([k], A[i k] * A[k j])";
    "dims: i=3 j=5 k=7 l=2\n\
     D[i j] = Sum([k l], A[i k] * B[k l] * E[l j])\n\
     F[i j] = Sum([k], D[i k] * G[k j])";
  ]

(* User errors - malformed input, a tensor used with two shapes, an
   unknown run id, a missing input, a program given beside --tcr or --net,
   a generated network below its shape's minimum size, a batch request
   without a search point - exit 1 with a one-line "barracuda: " message,
   never as an uncaught exception. *)
let test_user_errors_exit_1 () =
  let q = Filename.quote in
  let empty = Filename.temp_file "barracuda" ".tc" in
  let not_json = Filename.temp_file "barracuda" ".json" in
  Out_channel.with_open_bin not_json (fun oc -> output_string oc "not json\n");
  let record tick =
    Printf.sprintf
      "{\"tick\":%d,\"class\":0,\"served\":\"tuned\",\"ok\":true,\"mult\":1,\"costs\":[]}\n"
      tick
  in
  let torn = artifact "{\"tick\":0,\"cla" in
  let negative_tick = artifact (record (-1)) in
  let bad_spec slo = artifact ~header:(fun h -> { h with slo = slo h.slo }) (record 0) in
  let bad_percentile = bad_spec (fun s -> { s with latency_p = 150.0 }) in
  let no_short_window = bad_spec (fun s -> { s with short_epochs = 0 }) in
  let journal = Filename.temp_file "barracuda" ".jsonl" in
  List.iter
    (fun args ->
      let code, text = run_cli args in
      check_int (args ^ ": exit 1") 1 code;
      check_bool (args ^ ": barracuda: message") true
        (String.starts_with ~prefix:"barracuda: " text);
      check_bool (args ^ ": no internal error") false
        (Astring_contains.contains text "internal error"))
    ([
      "tune " ^ q empty;
      "space " ^ q empty;
      "c " ^ q empty;
      "check --semantic " ^ q empty;
      "tune -e " ^ q "C[i_j]=oops";
      "slo " ^ q not_json;
      "ledger " ^ q not_json;
      "whatif " ^ q not_json;
      "doctor --load " ^ q not_json;
      "slo " ^ q torn;
      "ledger " ^ q torn;
      "whatif " ^ q torn;
      "doctor --load " ^ q torn;
      "slo " ^ q negative_tick;
      "slo " ^ q bad_percentile;
      "slo " ^ q no_short_window;
      "explain --journal " ^ q journal ^ " nosuchrun";
      "replay --journal " ^ q journal ^ " nosuchrun";
      "tcr --variant 99 -e " ^ q matmul_src;
      "tcr --variant=-1 -e " ^ q matmul_src;
      "annotations --variant=-1 -e " ^ q matmul_src;
      "tune";
      "net --einsum " ^ q "ab,,->";
      "check --tcr " ^ q empty ^ " -e " ^ q matmul_src;
      "check --net " ^ q not_json ^ " " ^ q empty;
      "net --gen line -n 1";
      "net --gen ring -n 2";
      "net --gen power -n 2";
      "batch -e " ^ q rank1_src;
    ]
    @ List.concat_map
        (fun src ->
          List.map
            (fun cmd -> cmd ^ " -e " ^ q src)
            [ "tune"; "check --semantic"; "space"; "c"; "batch" ])
        shape_clashes);
  (* a torn artifact names its torn line *)
  let _, text = run_cli ("slo " ^ q torn) in
  check_bool "torn line named" true (Astring_contains.contains text "line 2:");
  (* the service reports the request's own names, not the canonical ones *)
  let _, text = run_cli ("batch -e " ^ q (List.hd shape_clashes)) in
  check_bool "batch names the clashing tensor" true
    (Astring_contains.contains text "tensor A is used with shapes [3x7] and [7x5]");
  let _, text = run_cli ("batch -e " ^ q rank1_src) in
  check_bool "batch names the rank-1 op" true
    (Astring_contains.contains text "expr1: no search point for op1(C)");
  List.iter Sys.remove
    [ empty; not_json; torn; negative_tick; bad_percentile; no_short_window; journal ]

(* A numeric flag below its bound is a usage error (exit 124) that names
   the bound, never an uncaught exception. The loadgen cases fail while
   parsing, before the (empty) journal is read. *)
let test_numeric_flags_bounded () =
  let q = Filename.quote in
  let mm = " -e " ^ q matmul_src in
  let journal = Filename.temp_file "barracuda" ".jsonl" in
  let loadgen = "loadgen --journal " ^ q journal in
  List.iter
    (fun (args, flag, value, least) ->
      let code, text = run_cli (Printf.sprintf "%s --%s=%d" args flag value) in
      check_int (args ^ ": exit 124") 124 code;
      check_bool (args ^ ": names the bound") true
        (Astring_contains.contains text
           (Printf.sprintf "'--%s': %d is below the minimum of %d" flag value least));
      check_bool (args ^ ": no internal error") false
        (Astring_contains.contains text "internal error"))
    (List.map
       (fun cmd -> (cmd ^ mm, "evals", 0, 1))
       [ "tune"; "cuda"; "c"; "driver"; "inspect"; "annotations --recipe"; "report"; "batch" ]
    @ [
        ("net --tune --einsum " ^ q "ab,bc->ac", "evals", 0, 1);
        ("check --semantic" ^ mm, "rounds", 0, 1);
        ("driver" ^ mm, "reps", 0, 1);
        (loadgen, "reps", 0, 1);
        (loadgen, "requests", 0, 1);
        (loadgen, "batch", 0, 1);
        (loadgen, "window-width", 0, 1);
        (loadgen, "window-buckets", 0, 1);
        (loadgen, "frames", -1, 0);
      ]);
  (* a float flag outside its range: the message may wrap, so compare
     whitespace-normalised text *)
  let words text =
    String.split_on_char '\n' text
    |> List.concat_map (String.split_on_char ' ')
    |> List.filter (( <> ) "")
    |> String.concat " "
  in
  List.iter
    (fun (args, flag, value, bound) ->
      let code, text = run_cli (Printf.sprintf "%s --%s=%s" args flag value) in
      check_int (args ^ " --" ^ flag ^ "=" ^ value ^ ": exit 124") 124 code;
      check_bool (flag ^ "=" ^ value ^ ": names the bound") true
        (Astring_contains.contains (words text)
           (Printf.sprintf "%s is not %s" value bound));
      check_bool (flag ^ "=" ^ value ^ ": no internal error") false
        (Astring_contains.contains text "internal error"))
    [
      (loadgen, "degrade", "nan", "> 0");
      (loadgen, "degrade", "-1", "> 0");
      (loadgen, "p99-budget", "nan", "finite and >= 0");
      (loadgen, "p99-budget", "inf", "finite and >= 0");
      (loadgen, "error-rate", "-1", "in [0, 1]");
      (loadgen, "error-objective", "1.5", "in [0, 1]");
      ("whatif", "factors", "0", "finite and > 0");
      ("whatif", "factors", "nan", "finite and > 0");
      ("whatif", "factors", "-1", "finite and > 0");
      ("whatif", "factors", "inf", "finite and > 0");
    ];
  Sys.remove journal

(* The commands of the usage screen: the lines between "commands:" and
   the blank line after them. *)
let usage_commands text =
  let rec after_header = function
    | [] -> []
    | "commands:" :: rest -> rest
    | _ :: rest -> after_header rest
  in
  let rec until_blank = function
    | [] | "" :: _ -> []
    | line :: rest -> List.hd (String.split_on_char ' ' (String.trim line)) :: until_blank rest
  in
  until_blank (after_header (String.split_on_char '\n' text))

(* Each job has one command: the roofline profile is tune --profile-out,
   the pipeline trace is report --trace-out, and the live dashboard is
   loadgen --frames. trace, profile and dash are unknown commands. *)
let test_cli_one_command_per_job () =
  let q = Filename.quote in
  let mm = " -e " ^ q matmul_src ^ " --evals 8" in
  let tmp ext = Filename.temp_file "barracuda" ext in
  let profile = tmp ".txt" and trace = tmp ".json" and journal = tmp ".jsonl" in
  let read path = In_channel.with_open_bin path In_channel.input_all in
  let code, _ = run_cli ("tune" ^ mm ^ " --profile-out " ^ q profile) in
  check_int "tune --profile-out: exit 0" 0 code;
  let report = read profile in
  check_bool "profile: roofline bound" true (Astring_contains.contains report "roofline bound");
  check_bool "profile: divergence" true (Astring_contains.contains report "divergence");
  let code, text = run_cli ("report" ^ mm ^ " --trace-out " ^ q trace) in
  check_int "report --trace-out: exit 0" 0 code;
  check_bool "report still printed" true (Astring_contains.contains text "convergence:");
  let events = Obs.Json.arr "traceEvents" (Obs.Json.parse_exn (read trace)) in
  let count ph cat =
    List.length
      (List.filter
         (fun e ->
           Option.bind (Obs.Json.member "ph" e) Obs.Json.get_str = Some ph
           && Option.bind (Obs.Json.member "cat" e) Obs.Json.get_str = Some cat)
         events)
  in
  List.iter
    (fun cat ->
      let b = count "B" cat in
      check_bool ("trace: " ^ cat ^ " spans") true (b > 0);
      check_int ("trace: " ^ cat ^ " B/E balanced") b (count "E" cat))
    [ "octopi"; "tcr"; "codegen"; "surf"; "service" ];
  let code, _ = run_cli ("tune" ^ mm ^ " --journal " ^ q journal) in
  check_int "journaled tune: exit 0" 0 code;
  let code, text =
    run_cli ("loadgen --journal " ^ q journal ^ " --requests 400 --frames 2")
  in
  check_int "loadgen --frames: exit 0" 0 code;
  check_int "two frames" 2 (Astring_contains.count text "--- tick ");
  check_bool "final report" true (Astring_contains.contains text "replayed 400 requests");
  List.iter
    (fun cmd ->
      let code, text = run_cli cmd in
      check_int (cmd ^ ": exit 2") 2 code;
      check_bool (cmd ^ ": unknown") true
        (Astring_contains.contains text (Printf.sprintf "unknown command %S" cmd));
      let listed = usage_commands text in
      check_int (cmd ^ ": usage lists 23 commands") 23 (List.length listed);
      check_bool (cmd ^ ": not listed") false (List.mem cmd listed))
    [ "trace"; "profile"; "dash" ];
  List.iter Sys.remove [ profile; trace; journal ]

(* One loadgen replay records one artifact, and every replay reader takes
   it: slo, ledger (with its Prometheus exposition), whatif and doctor
   --load. An infinitely degraded replay pages, live and read back. *)
let test_cli_replay_readers () =
  let q = Filename.quote in
  let tmp ext = Filename.temp_file "barracuda" ext in
  let journal = tmp ".jsonl" and load = tmp ".jsonl" and prom = tmp ".prom" in
  let inf_load = tmp ".jsonl" in
  let read path = In_channel.with_open_bin path In_channel.input_all in
  let code, _ =
    run_cli ("tune -e " ^ q matmul_src ^ " --evals 8 --journal " ^ q journal)
  in
  check_int "journaled tune: exit 0" 0 code;
  let code, _ =
    run_cli ("loadgen --journal " ^ q journal ^ " --requests 400 --out " ^ q load)
  in
  check_int "loadgen --out: exit 0" 0 code;
  let code, text = run_cli ("slo " ^ q load) in
  check_int "slo: exit 0" 0 code;
  check_bool "slo: verdict" true (Astring_contains.contains text "SLO serving @ tick 399");
  let code, text = run_cli ("ledger " ^ q load ^ " --prom-out " ^ q prom) in
  check_int "ledger --prom-out: exit 0" 0 code;
  check_bool "ledger: report" true (Astring_contains.contains text "ledger: 400 requests");
  let exposition = read prom in
  check_bool "prom: request counter" true
    (Astring_contains.contains exposition "barracuda_ledger_requests_total 400");
  check_bool "prom: a phase histogram" true
    (Astring_contains.contains exposition "# TYPE barracuda_phase_cold_measure_seconds histogram");
  let code, text = run_cli ("whatif " ^ q load ^ " --expect-top measure") in
  check_int "whatif: exit 0" 0 code;
  check_bool "whatif: ranking" true
    (Astring_contains.contains text "what-if over 400 recorded requests");
  let code, text = run_cli ("doctor --journal " ^ q journal ^ " --load " ^ q load) in
  check_int "doctor --load: exit 0" 0 code;
  check_bool "doctor: ledger findings" true (Astring_contains.contains text "DR040");
  let code, text =
    run_cli
      ("loadgen --journal " ^ q journal ^ " --requests 100 --degrade=inf --out "
     ^ q inf_load)
  in
  check_int "degrade=inf: exit 1" 1 code;
  check_bool "degrade=inf: p99 pages" true (Astring_contains.contains text "[PAGE] p99 page");
  let code, _ = run_cli ("slo " ^ q inf_load) in
  check_int "degrade=inf read back: slo exit 1" 1 code;
  List.iter Sys.remove [ journal; load; prom; inf_load ]

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
    check_int "all five stages digested" 5 (List.length v.stages)
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

(* End-to-end soundness sweep: random tensor networks lowered through the
   real pipeline (greedy tree -> DSL -> variants -> TCR -> recipe ->
   kernel) validate across all five stages with no diagnostics, and every
   kernel mutation that changes the sum fails at the kernel stage with
   BAR063. Small extents keep the kernel walks cheap. *)
let qcheck_random_networks_validate =
  QCheck.Test.make ~name:"random networks validate end to end" ~count:15
    QCheck.(int_range 0 100000)
    (fun seed ->
      let rng = Util.Rng.create seed in
      let n = 3 + Util.Rng.int rng 3 in
      (* line networks only: a ring's rank-0 output has no indices to
         decompose, so its schedule space is empty by construction *)
      let net = Netopt.Gen.line ~extents:[ 2; 3; 4 ] ~n rng in
      let tree = Netopt.Greedy.optimize net in
      let src = Netopt.Lower.to_dsl net tree in
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
    Alcotest.test_case "mutation names roundtrip" `Quick test_mutation_names_roundtrip;
    Alcotest.test_case "rank-1: check --semantic reports BAR064" `Quick
      test_rank1_check_semantic;
    Alcotest.test_case "rank-1: tune fails with a typed error" `Quick test_rank1_tune;
    Alcotest.test_case "cli: user errors exit 1" `Quick test_user_errors_exit_1;
    Alcotest.test_case "cli: numeric flags are bounded" `Quick test_numeric_flags_bounded;
    Alcotest.test_case "cli: one command per job" `Quick test_cli_one_command_per_job;
    Alcotest.test_case "cli: every replay reader takes the artifact" `Quick
      test_cli_replay_readers;
    Alcotest.test_case "access: clean summary" `Quick test_access_summary_clean;
    Alcotest.test_case "gate: fixed-seed tune proves its winner" `Quick
      test_semantic_gate_proves_winner;
    Alcotest.test_case "gate: oracle budget" `Quick test_semantic_gate_budget_skip;
    Alcotest.test_case "journal: semantic_ok codec and legacy decode" `Quick
      test_journal_semantic_ok;
    Alcotest.test_case "doctor: DR050 on a failed winner" `Quick test_doctor_dr050;
  ]
  @ List.map QCheck_alcotest.to_alcotest [ qcheck_random_networks_validate ]
