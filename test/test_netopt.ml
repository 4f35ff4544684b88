(* Contraction-order optimizer: network IR validation (BAR05x), spec
   parsing, greedy and TreeSA trees, the einsum oracle, lowering into the
   tuning pipeline, and journal provenance.

   The headline acceptance scenario is [test_treesa_beats_greedy_end_to_end]:
   a fixed-seed 20-tensor chain where TreeSA beats greedy on read/write
   volume under a binding sc_target that greedy violates, and the winning
   tree's lowered program tunes and verifies clean. *)

let arch = Gpusim.Arch.gtx980
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  go 0

let codes diags = List.map (fun (d : Check.Diag.t) -> d.code) diags

let has_code c diags = List.mem c (codes diags)

(* ---------------- network IR and validation ---------------- *)

let chain4 =
  Netopt.Network.parse
    "tensor A i j\n\
     tensor B j k\n\
     tensor C k l\n\
     tensor D l m\n\
     extent i 8\nextent j 4\nextent k 16\nextent l 4\nextent m 8\n\
     output i m\n"

let test_parse_round_trip () =
  let again = Netopt.Network.parse (Netopt.Network.to_string chain4) in
  Alcotest.(check string)
    "spec text round-trips"
    (Netopt.Network.to_string chain4)
    (Netopt.Network.to_string again);
  check_int "four tensors" 4 (List.length chain4.tensors);
  check_int "extent k" 16 (Netopt.Network.extent_of chain4 "k");
  check_int "clean network has no diags" 0
    (List.length (Netopt.Network.validate chain4))

let test_parse_inline_extents_and_comments () =
  let net =
    Netopt.Network.parse
      "# comment line\ntensor A i:3 j\ntensor B j:5 k\noutput i k  # trailing\n"
  in
  check_int "inline extent" 3 (Netopt.Network.extent_of net "i");
  check_int "inline extent on shared index" 5 (Netopt.Network.extent_of net "j");
  check_int "undeclared extent falls back to the DSL default"
    Octopi.Contraction.default_extent
    (Netopt.Network.extent_of net "k")

let test_parse_errors () =
  let raises s =
    match Netopt.Network.parse s with
    | exception Netopt.Network.Parse_error _ -> true
    | _ -> false
  in
  check_bool "unknown directive" true (raises "frobnicate A i j\n");
  check_bool "tensor without indices" true (raises "tensor A\n");
  check_bool "bad extent" true (raises "tensor A i\nextent i zero\n")

let diag_of_network spec = Netopt.Network.validate (Netopt.Network.parse spec)

let test_validate_codes () =
  check_bool "BAR050 unknown output index" true
    (has_code "BAR050" (diag_of_network "tensor A i j\noutput i z\n"));
  check_bool "BAR051 extent conflict" true
    (has_code "BAR051"
       (diag_of_network "tensor A i:3 j\ntensor B j i:4\noutput j\n"));
  check_bool "BAR052 repeated index in tensor" true
    (has_code "BAR052" (diag_of_network "tensor A i i\noutput i\n"));
  check_bool "BAR053 repeated output index" true
    (has_code "BAR053" (diag_of_network "tensor A i j\noutput i i\n"));
  check_bool "BAR054 empty network" true
    (has_code "BAR054" (Netopt.Network.validate (Netopt.Network.make [])));
  (* j appears in exactly one tensor and is not an output: summed axis of a
     single tensor, legal but suspicious *)
  let d = diag_of_network "tensor A i j\ntensor B i k\noutput k\n" in
  check_bool "BAR055 dangling index is a warning" true (has_code "BAR055" d);
  check_bool "BAR055 is not an error" false (Check.Diag.has_errors d)

let test_einsum_front_end () =
  let net = Netopt.Network.of_einsum "ab,bc,cd->ad" in
  check_int "three factors" 3 (List.length net.tensors);
  Alcotest.(check (list string)) "output order preserved" [ "a"; "d" ] net.output;
  (* more than eight factors: names continue past the paper's A..H *)
  let big = Netopt.Network.of_einsum "ab,bc,cd,de,ef,fg,gh,hi,ij,jk->ak" in
  check_int "ten factors" 10 (List.length big.tensors);
  let names = List.map (fun t -> t.Netopt.Network.t_name) big.tensors in
  check_bool "generated ninth name" true (List.mem "T8" names);
  check_bool "generated tenth name" true (List.mem "T9" names)

(* ---------------- trees, costs, diagnostics ---------------- *)

let test_greedy_matrix_chain () =
  let tree = Netopt.Greedy.optimize chain4 in
  check_bool "full binary tree over all tensors" true
    (Netopt.Tree.is_valid chain4 tree);
  let c = Netopt.Tree.cost chain4 tree in
  (* the (A(BC))D association contracts the extent-16 index first *)
  check_bool "cost is finite" true
    (Float.is_finite c.tc && Float.is_finite c.sc && Float.is_finite c.rw);
  (* worst association multiplies through the extent-16 bond *)
  let worst =
    Netopt.Tree.(Node (Node (Leaf 0, Leaf 3), Node (Leaf 1, Leaf 2)))
  in
  check_bool "greedy beats the worst association" true
    (c.tc < (Netopt.Tree.cost chain4 worst).tc)

let test_tree_check_codes () =
  let net = Netopt.Gen.line ~n:8 (Util.Rng.create 3) in
  let tree = Netopt.Greedy.optimize net in
  let tight = Netopt.Tree.check ~sc_target:1.0 net tree in
  check_bool "BAR056 when an intermediate exceeds sc_target" true
    (has_code "BAR056" tight);
  check_bool "sc_target findings are warnings, not errors" false
    (Check.Diag.has_errors tight);
  let loose = Netopt.Tree.check ~sc_target:64.0 net tree in
  check_bool "no BAR056 under a loose target" false (has_code "BAR056" loose);
  (* a ring contracts to a rank-0 scalar: only the root step may sit below
     rank 2, and it is flagged *)
  let ring = Netopt.Gen.ring ~n:5 (Util.Rng.create 1) in
  let rdiags =
    Netopt.Tree.check ~sc_target:64.0 ring (Netopt.Greedy.optimize ring)
  in
  check_bool "BAR057 on a rank-0 network output" true (has_code "BAR057" rdiags)

let test_rank_padding () =
  (* interior steps never retain fewer than two indices: small summed
     indices are deferred to the parent instead *)
  let net = Netopt.Gen.line ~n:10 (Util.Rng.create 5) in
  let tree = Netopt.Treesa.optimize ~rng:(Util.Rng.create 5) net in
  let steps = Netopt.Tree.steps net tree in
  let last = List.length steps - 1 in
  List.iteri
    (fun i (s : Netopt.Tree.step) ->
      if i < last then
        check_bool
          (Printf.sprintf "step %d retains at least two indices" i)
          true
          (List.length s.out >= 2))
    steps

(* ---------------- qcheck properties ---------------- *)

let random_net rng =
  let n = 3 + Util.Rng.int rng 10 in
  if Util.Rng.int rng 2 = 0 then Netopt.Gen.line ~n rng
  else Netopt.Gen.power_law ~n rng

let small_config = { Netopt.Treesa.default_config with sa_iters = 300 }

let qcheck_trees_valid =
  QCheck.Test.make ~name:"optimizer trees are full binary over the inputs"
    ~count:40
    QCheck.(int_range 0 100000)
    (fun seed ->
      let rng = Util.Rng.create seed in
      let net = random_net rng in
      let greedy = Netopt.Greedy.optimize net in
      let treesa =
        Netopt.Treesa.optimize ~config:small_config ~rng net
      in
      Netopt.Tree.is_valid net greedy && Netopt.Tree.is_valid net treesa)

(* The einsum oracle over all operands at once is only feasible on small
   networks (a 20-tensor contraction enumerates an astronomically large
   iteration space), so numerical equivalence is pinned on n <= 5. *)
let small_net rng =
  let n = 3 + Util.Rng.int rng 3 in
  if Util.Rng.int rng 2 = 0 then Netopt.Gen.line ~extents:[ 2; 3 ] ~n rng
  else Netopt.Gen.power_law ~extents:[ 2; 3 ] ~n rng

let random_operands rng (net : Netopt.Network.t) =
  net.tensors
  |> List.map (fun (t : Netopt.Network.tensor) ->
         let shape =
           Tensor.Shape.of_list
             (List.map (Netopt.Network.extent_of net) t.t_indices)
         in
         Tensor.Dense.init shape (fun _ -> Util.Rng.float rng 2.0 -. 1.0))
  |> Array.of_list

let oracle (net : Netopt.Network.t) operands =
  Tensor.Einsum.contract ~output_indices:net.output
    (List.mapi
       (fun i (t : Netopt.Network.tensor) ->
         Tensor.Einsum.operand operands.(i) t.t_indices)
       net.tensors)

let qcheck_trees_match_oracle =
  QCheck.Test.make
    ~name:"greedy and treesa trees reproduce the einsum oracle" ~count:25
    QCheck.(int_range 0 100000)
    (fun seed ->
      let rng = Util.Rng.create seed in
      let net = small_net rng in
      let operands = random_operands rng net in
      let reference = oracle net operands in
      let close tree =
        Tensor.Dense.approx_equal ~tol:1e-9 reference
          (Netopt.Tree.eval net operands tree)
      in
      close (Netopt.Greedy.optimize net)
      && close (Netopt.Treesa.optimize ~config:small_config ~rng net))

let qcheck_treesa_no_worse_than_greedy =
  QCheck.Test.make ~name:"treesa final score <= greedy score" ~count:40
    QCheck.(int_range 0 100000)
    (fun seed ->
      let rng = Util.Rng.create seed in
      let net = random_net rng in
      let score = { Netopt.Tree.default_score with sc_target = 12.0 } in
      let greedy = Netopt.Greedy.optimize net in
      let treesa =
        Netopt.Treesa.optimize ~config:small_config ~score ~rng net
      in
      Netopt.Tree.score score (Netopt.Tree.cost net treesa)
      <= Netopt.Tree.score score (Netopt.Tree.cost net greedy))

(* ---------------- the acceptance scenario ---------------- *)

(* Fixed seeds: line-shaped 20-tensor network (gen seed 2), TreeSA chain
   seed 2007, sc_target 6.0. Greedy's best tree needs a 2^8-element
   intermediate; TreeSA finds an order that stays within 2^6 AND moves
   less data. *)
let acceptance_net = lazy (Netopt.Gen.line ~n:20 (Util.Rng.create 2))

let acceptance_score = { Netopt.Tree.default_score with sc_target = 6.0 }

let acceptance_trees =
  lazy
    (let net = Lazy.force acceptance_net in
     let greedy = Netopt.Greedy.optimize net in
     let treesa =
       Netopt.Treesa.optimize ~score:acceptance_score
         ~rng:(Util.Rng.create 2007) net
     in
     (greedy, treesa))

let test_treesa_beats_greedy () =
  let net = Lazy.force acceptance_net in
  let greedy, treesa = Lazy.force acceptance_trees in
  let cg = Netopt.Tree.cost net greedy and ct = Netopt.Tree.cost net treesa in
  check_bool "greedy violates the sc_target" true (cg.sc > 6.0);
  check_bool "treesa satisfies the sc_target" true (ct.sc <= 6.0);
  check_bool "treesa moves less data than greedy" true (ct.rw < cg.rw);
  check_bool "no BAR056 for the treesa tree" false
    (has_code "BAR056" (Netopt.Tree.check ~sc_target:6.0 net treesa));
  check_bool "BAR056 for the greedy tree" true
    (has_code "BAR056" (Netopt.Tree.check ~sc_target:6.0 net greedy))

let test_treesa_beats_greedy_end_to_end () =
  let net = Lazy.force acceptance_net in
  let _, treesa = Lazy.force acceptance_trees in
  let dsl = Netopt.Lower.to_dsl net treesa in
  let b = Autotune.Tuner.benchmark_of_dsl ~label:"line20" dsl in
  check_int "one statement per contraction step" 19 (List.length b.statements);
  let cfg =
    { Surf.Search.default_config with max_evals = 12; batch_size = 4 }
  in
  let result, entries =
    Obs.Journal.collect (fun () ->
        Autotune.Tuner.tune
          ~strategy:(Autotune.Tuner.Surf_search cfg)
          ~pool_per_variant:40 ~reps:3 ~journal_seed:2007
          ~journal_net:
            (Netopt.Lower.provenance ~meth:"treesa" ~score:acceptance_score net
               treesa)
          ~rng:(Util.Rng.create 2007) ~arch b)
  in
  check_bool "tuned winner proved equivalent" true
    (match result.semantic with Some v -> v.Check.Semantic.equivalent | None -> false);
  check_bool "CUDA emits" true
    (String.length (Autotune.Tuner.emit_cuda result) > 1000);
  let report =
    Check.Verify.program ~arch
      [ ("line20", Tcr.Space.of_ir result.best.ir) ]
  in
  check_int "static verifier finds no errors" 0
    (List.length (Check.Diag.errors report.diags));
  (* contraction-order provenance lands in the journal entry *)
  match entries with
  | [ entry ] -> (
    match entry.network with
    | None -> Alcotest.fail "journal entry should carry the network record"
    | Some n ->
      Alcotest.(check string) "method" "treesa" n.net_method;
      Alcotest.(check string)
        "order" (Netopt.Tree.to_string net treesa) n.net_order;
      check_bool "explain renders the contraction order" true
        (contains (Obs.Journal.render_explain entry) "contraction order"))
  | es -> Alcotest.failf "expected one journal entry, got %d" (List.length es)

(* ---------------- journal codec compatibility ---------------- *)

let test_journal_network_codec () =
  let net = Lazy.force acceptance_net in
  let _, treesa = Lazy.force acceptance_trees in
  let prov =
    Netopt.Lower.provenance ~meth:"treesa" ~score:acceptance_score net treesa
  in
  (* a pre-netopt journal line has no "network" field and must decode *)
  let b = Benchsuite.Suite.eqn1 ~n:4 () in
  let cfg = { Surf.Search.default_config with max_evals = 8; batch_size = 4 } in
  let tune ?journal_net () =
    Obs.Journal.collect (fun () ->
        Autotune.Tuner.tune
          ~strategy:(Autotune.Tuner.Surf_search cfg)
          ~pool_per_variant:20 ~reps:2 ?journal_net ~rng:(Util.Rng.create 4)
          ~arch b)
    |> snd |> List.hd
  in
  let legacy = tune () in
  let legacy_json = Obs.Json.to_string (Obs.Journal.to_json legacy) in
  check_bool "entries without a network omit the field" false
    (contains legacy_json "\"network\"");
  let reparse text =
    match Obs.Json.parse text with
    | Ok j -> Obs.Journal.of_json j
    | Error msg -> Error msg
  in
  (match reparse legacy_json with
  | Ok e -> check_bool "legacy lines decode to None" true (e.network = None)
  | Error msg -> Alcotest.fail msg);
  let carried = tune ~journal_net:prov () in
  match reparse (Obs.Json.to_string (Obs.Journal.to_json carried)) with
  | Ok e -> check_bool "network record round-trips" true (e.network = Some prov)
  | Error msg -> Alcotest.fail msg

let suite =
  List.map QCheck_alcotest.to_alcotest
    [
      qcheck_trees_valid; qcheck_trees_match_oracle;
      qcheck_treesa_no_worse_than_greedy;
    ]
  @ [
      Alcotest.test_case "spec parse round-trip" `Quick test_parse_round_trip;
      Alcotest.test_case "inline extents and comments" `Quick
        test_parse_inline_extents_and_comments;
      Alcotest.test_case "parse errors" `Quick test_parse_errors;
      Alcotest.test_case "BAR050-BAR055 validation codes" `Quick
        test_validate_codes;
      Alcotest.test_case "einsum front end" `Quick test_einsum_front_end;
      Alcotest.test_case "greedy on a matrix chain" `Quick
        test_greedy_matrix_chain;
      Alcotest.test_case "BAR056/BAR057 tree diagnostics" `Quick
        test_tree_check_codes;
      Alcotest.test_case "interior steps keep rank >= 2" `Quick
        test_rank_padding;
      Alcotest.test_case "treesa beats greedy at fixed seed" `Quick
        test_treesa_beats_greedy;
      Alcotest.test_case "acceptance: lowered winner tunes and verifies"
        `Slow test_treesa_beats_greedy_end_to_end;
      Alcotest.test_case "journal network codec compatibility" `Quick
        test_journal_network_codec;
    ]
