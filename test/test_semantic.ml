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

(* Stage digests at the default rounds and seed. A stage that agrees with
   its parent over the same output names takes the parent's digest; the
   pinned bytes show it is the digest a fresh one would give. *)
let mm_digest = "46ef140b6e1582da2e88d9fcc7fbfee6"

let stage_digests = Alcotest.(check (list (pair string string)))

let test_matmul_equivalent () =
  let v = validate matmul_src "mm" in
  check_bool "equivalent" true v.Check.Semantic.equivalent;
  check_int "no diags" 0 (List.length v.diags);
  stage_digests "five stages in order, pinned"
    (List.map (fun s -> (s, mm_digest)) [ "dsl"; "variant"; "tcr"; "recipe"; "kernel" ])
    v.stages

(* Two statements accumulating into C list C twice at dsl and variant but
   once from tcr on: the stages agree, yet tcr is digested fresh. *)
let test_digest_when_names_differ () =
  let src =
    "dims: i=4 j=3 k=5\n\
     C[i j] = Sum([k], A[i k] * B[k j])\n\
     C[i j] = Sum([k], D[i k] * E[k j])"
  in
  let v = validate src "acc" in
  check_bool "equivalent" true v.Check.Semantic.equivalent;
  let twice = "db0c0a2427d7fdce0771b07ac3b67c55" and once = "397849c0ffade20dfeaa6c700c5b45df" in
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
   stages share one evaluation per round, the kernel walk is its own. *)
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
       (fun s -> (s, "c1f2a8daaeb580e4c0873fff6a20dc25"))
       [ "dsl"; "variant"; "tcr"; "recipe"; "kernel" ])
    v.stages

(* A recipe that maps j twice (tx = bx = j) iterates j twice: its loop
   indices, sorted with duplicates kept, differ from the tcr program's, so
   it is evaluated on its own and still fails at the recipe stage. A key
   that dropped duplicates would share tcr's arrays and move the failure
   to the kernel stage. *)
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
  let shared = "4beb8174e1a4843c1b930884612dc6ae" in
  stage_digests "recipe digested fresh"
    [
      ("dsl", shared);
      ("variant", shared);
      ("tcr", shared);
      ("recipe", "6bc755fe0d40b273564d06d2d60d9810");
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

(* The stage that disagrees with its parent is digested fresh. *)
let test_mutation_swap_index () =
  let applied, v = mutation_caught Check.Mutate.Swap_factor_indices in
  check_bool "applied" true applied;
  check_bool "caught" false v.Check.Semantic.equivalent;
  stage_digests "failing kernel stage digested"
    (List.map (fun s -> (s, mm_digest)) [ "dsl"; "variant"; "tcr"; "recipe" ]
    @ [ ("kernel", "0d02ad7e00af666071c48330e6792127") ])
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

(* User errors - malformed input, an unknown run id, a missing input - exit
   1 with a one-line "barracuda: " message, never as an uncaught exception. *)
let test_user_errors_exit_1 () =
  let q = Filename.quote in
  let empty = Filename.temp_file "barracuda" ".tc" in
  let not_json = Filename.temp_file "barracuda" ".json" in
  Out_channel.with_open_bin not_json (fun oc -> output_string oc "not json\n");
  let journal = Filename.temp_file "barracuda" ".jsonl" in
  List.iter
    (fun args ->
      let code, text = run_cli args in
      check_int (args ^ ": exit 1") 1 code;
      check_bool (args ^ ": barracuda: message") true
        (String.starts_with ~prefix:"barracuda: " text);
      check_bool (args ^ ": no internal error") false
        (Astring_contains.contains text "internal error"))
    [
      "tune " ^ q empty;
      "space " ^ q empty;
      "c " ^ q empty;
      "check --semantic " ^ q empty;
      "tune -e " ^ q "C[i_j]=oops";
      "slo " ^ q not_json;
      "ledger " ^ q not_json;
      "whatif " ^ q not_json;
      "doctor --slo " ^ q not_json;
      "explain --journal " ^ q journal ^ " nosuchrun";
      "replay --journal " ^ q journal ^ " nosuchrun";
      "tcr --variant 99 -e " ^ q matmul_src;
      "tcr --variant=-1 -e " ^ q matmul_src;
      "annotations --variant=-1 -e " ^ q matmul_src;
      "tune";
      "net --einsum " ^ q "ab,,->";
    ];
  List.iter Sys.remove [ empty; not_json; journal ]

(* ---------------- symbolic access analysis ---------------- *)

let mm_point_kernel () =
  let _, c, points = first_candidate matmul_src "mm" in
  List.hd (Codegen.Kernel.lower_program c.Autotune.Tuner.v_ir points)

(* The clean matmul kernel: exact and model coalescing agree on every
   reference (aligned 32-extent tiles keep every warp representative), and
   the error pass is empty. *)
let test_access_summary_clean () =
  let k = mm_point_kernel () in
  List.iter
    (fun (name, dims) ->
      let exact = Gpusim.Coalesce.exact_transactions_per_warp k dims in
      let model = Gpusim.Coalesce.transactions_per_warp k dims in
      check_bool
        (Printf.sprintf "%s: exact %.2f within [1, 32]" name exact)
        true
        (exact >= 1.0 && exact <= 32.0);
      check_bool
        (Printf.sprintf "%s: model agrees with exact grid average" name)
        true
        (Float.abs (model -. exact) <= Check.Access.model_divergence_threshold))
    ((k.op.out, k.op.out_indices) :: k.op.factors);
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

(* End-to-end soundness sweep: random tensor networks lowered through the
   real pipeline (greedy tree -> DSL -> variants -> TCR -> recipe ->
   kernel) validate across all five stages with no diagnostics. Small
   extents keep the naive oracle cheap. *)
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
      v.Check.Semantic.equivalent && v.diags = [])

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
    Alcotest.test_case "access: clean summary" `Quick test_access_summary_clean;
    Alcotest.test_case "gate: fixed-seed tune proves its winner" `Quick
      test_semantic_gate_proves_winner;
    Alcotest.test_case "gate: oracle budget" `Quick test_semantic_gate_budget_skip;
    Alcotest.test_case "journal: semantic_ok codec and legacy decode" `Quick
      test_journal_semantic_ok;
    Alcotest.test_case "doctor: DR050 on a failed winner" `Quick test_doctor_dr050;
  ]
  @ List.map QCheck_alcotest.to_alcotest [ qcheck_random_networks_validate ]
