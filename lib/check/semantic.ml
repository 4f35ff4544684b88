(* Translation validation: prove that every lowered kernel computes its
   contraction.

   Each pipeline stage of a tuned candidate's lineage - DSL statement ->
   OCTOPI variant (strength-reduction plan) -> merged TCR program ->
   recipe (search point's schedule) -> lowered kernel - denotes a
   polynomial in the input tensor entries: a sum of products with
   non-negative integer coefficients. Two stages are equivalent iff those
   polynomials are identical, and by Schwartz-Zippel two distinct
   polynomials of total degree d agree on uniformly random points of the
   prime field F_p with probability at most d/p per round. With
   p = 2^31 - 1 and the pipeline's tiny degrees (one per factor), a
   handful of rounds makes a false "equivalent" verdict astronomically
   unlikely - while a false "different" verdict is impossible, since every
   stage is evaluated exactly (no rounding).

   Each stage is evaluated with its own iteration structure, not a shared
   one: the DSL as the direct einsum, the variant as its binary-contraction
   plan over temporaries, the TCR program following each op's loop_order,
   the recipe through Space.serial_schedule (mapped indices x serial
   schedule), and the kernel through Codegen.Exec.walk - the interpreter
   float execution runs too - with F_p arithmetic: grid/block loops,
   unrolled main loop plus epilogue, scalar replacement, and addresses
   formed from the KERNEL'S OWN extents table so that corrupted strides
   surface as wrong values or out-of-bounds accesses rather than being
   silently normalized away. Every kernel access is bounds-checked against
   the true allocation; an out-of-bounds read is reported as the stage's
   divergence. The first four stages never touch the walker, so a bug in
   it still shows up as a kernel-stage disagreement.

   Codes (stage = the earliest one that stopped agreeing with its parent):
     BAR060  variant disagrees with the DSL einsum
     BAR061  TCR program disagrees with the variant
     BAR062  recipe schedule disagrees with the TCR program
     BAR063  lowered kernel disagrees with the recipe (including OOB)
     BAR064  evaluation aborted (structural failure before comparison) *)

exception Abort of string

let abort fmt = Printf.ksprintf (fun s -> raise (Abort s)) fmt

(* F_p arithmetic, p = 2^31 - 1 (Mersenne). Products fit 63-bit native
   ints: (p-1)^2 = (2^31-2)^2 < 2^62 <= max_int. Every tensor entry is
   already reduced (inputs are drawn from [0, p), outputs start at 0), so a
   product starts from its first factor rather than from 1. *)
let prime = 2147483647

let addp a b =
  let s = a + b in
  if s >= prime then s - prime else s

let mulp a b = a * b mod prime

(* ------------------------------------------------------------------ *)
(* Field tensors *)

type tensor = { dims : string list; data : int array }

type env = (string, tensor) Hashtbl.t

let find (env : env) name =
  match Hashtbl.find_opt env name with
  | Some t -> t
  | None -> abort "unbound tensor %s" name

let ext_of extents i =
  match List.assoc_opt i extents with
  | Some e -> e
  | None -> abort "no extent for index %s" i

let shape_of extents dims = List.map (ext_of extents) dims
let size_of shape = List.fold_left ( * ) 1 shape

let alloc extents dims = { dims; data = Array.make (size_of (shape_of extents dims)) 0 }

(* Fresh random inputs for one round, drawn in declaration order so the
   whole validation is a pure function of the seed. *)
let random_inputs rng extents (inputs : (string * string list) list) : env =
  let env = Hashtbl.create 16 in
  List.iter
    (fun (name, dims) ->
      let t = alloc extents dims in
      for i = 0 to Array.length t.data - 1 do
        t.data.(i) <- Util.Rng.int rng prime
      done;
      Hashtbl.replace env name t)
    inputs;
  env

let with_produced (inputs : env) extents (produced : (string * string list) list) : env =
  let env = Hashtbl.copy inputs in
  List.iter
    (fun (name, dims) ->
      if not (Hashtbl.mem env name) then Hashtbl.replace env name (alloc extents dims))
    produced;
  env

(* ------------------------------------------------------------------ *)
(* Generic sum-of-products evaluation: out[out_dims] += prod factors,
   iterating [order] (which must drive every referenced index; a wrong
   order - missing, duplicated or extra indices - either aborts or shows
   up as a wrong value, exactly what the validation is for). Offsets are
   running sums: loop level [s] alone binds slot [s] (a duplicated index
   carries its strides on its first slot only), so each iteration adds the
   slot's strides and the loop's end takes back [extent x stride]. *)

let eval_sop ~extents (env : env) ~out:(oname, odims) ~factors ~order =
  let slots = Array.of_list order in
  let nslots = Array.length slots in
  let slot name =
    let rec go i =
      if i >= nslots then abort "index %s of %s is not driven by the loop order" name oname
      else if slots.(i) = name then i
      else go (i + 1)
    in
    go 0
  in
  let compile (name, dims) =
    let t = find env name in
    let strides = Tensor.Shape.strides (Array.of_list (shape_of extents dims)) in
    let s = Array.make nslots 0 in
    List.iteri (fun pos dim -> s.(slot dim) <- s.(slot dim) + strides.(pos)) dims;
    (t.data, s)
  in
  let odata, ostrides = compile (oname, odims) in
  let factor_refs = Array.of_list (List.map compile factors) in
  let exts = Array.of_list (List.map (ext_of extents) order) in
  let nf = Array.length factor_refs in
  let fdata = Array.map fst factor_refs in
  (* column [s]: each factor's stride at slot [s] *)
  let fcols = Array.init nslots (fun s -> Array.map (fun (_, str) -> str.(s)) factor_refs) in
  let ooff = ref 0 in
  let offs = Array.make nf 0 in
  let advance s by =
    ooff := !ooff + (ostrides.(s) * by);
    let col = fcols.(s) in
    for f = 0 to nf - 1 do
      offs.(f) <- offs.(f) + (col.(f) * by)
    done
  in
  let rec go s =
    if s = nslots then begin
      let p = ref (if nf = 0 then 1 else fdata.(0).(offs.(0))) in
      for f = 1 to nf - 1 do
        p := mulp !p fdata.(f).(offs.(f))
      done;
      let o = !ooff in
      odata.(o) <- addp odata.(o) !p
    end
    else begin
      let e = exts.(s) in
      for _ = 1 to e do
        go (s + 1);
        advance s 1
      done;
      advance s (-e)
    end
  in
  go 0

(* ------------------------------------------------------------------ *)
(* Stage evaluators. Each returns the output tensors as (name, data). *)

let refs_of (frs : Octopi.Ast.tensor_ref list) =
  List.map (fun (f : Octopi.Ast.tensor_ref) -> (f.name, f.indices)) frs

(* Stage 1 - dsl: the direct einsum of each statement. Outputs shared
   across statements (repeated outputs accumulate, as on the device). *)
let eval_dsl ~extents inputs (statements : Octopi.Contraction.t list) =
  let produced =
    List.map (fun (c : Octopi.Contraction.t) -> (c.output, c.output_indices)) statements
  in
  let env = with_produced inputs extents produced in
  List.iter
    (fun (c : Octopi.Contraction.t) ->
      eval_sop ~extents env
        ~out:(c.output, c.output_indices)
        ~factors:(refs_of c.factors)
        ~order:(c.output_indices @ c.sum_indices))
    statements;
  List.map (fun (name, _) -> (name, (find env name).data)) produced

(* Stage 2 - variant: each statement's strength-reduction plan, evaluated
   op by op over its temporaries. Temporaries are renamed apart across
   statements (as Combine.merge does) so they cannot collide. *)
let eval_variant ~extents inputs
    (choices : (Octopi.Contraction.t * Octopi.Variants.variant) list) =
  let outputs =
    List.map (fun ((c : Octopi.Contraction.t), _) -> (c.output, c.output_indices)) choices
  in
  let env = with_produced inputs extents outputs in
  List.iteri
    (fun si ((c : Octopi.Contraction.t), (v : Octopi.Variants.variant)) ->
      let rename name =
        if name = c.output then name
        else if List.exists (fun (op : Octopi.Plan.op) -> op.out = name) v.ops then
          Printf.sprintf "s%d_%s" (si + 1) name
        else name
      in
      List.iter
        (fun (op : Octopi.Plan.op) ->
          let out = rename op.out in
          let factors = List.map (fun (n, d) -> (rename n, d)) op.factors in
          if not (Hashtbl.mem env out) then
            Hashtbl.replace env out (alloc extents op.out_indices);
          let red =
            List.sort_uniq compare (List.concat_map snd factors)
            |> List.filter (fun i -> not (List.mem i op.out_indices))
          in
          eval_sop ~extents env ~out:(out, op.out_indices) ~factors
            ~order:(op.out_indices @ red))
        v.ops)
    choices;
  List.map (fun (name, _) -> (name, (find env name).data)) outputs

let ir_produced (ir : Tcr.Ir.t) =
  List.filter_map
    (fun (v : Tcr.Ir.var) ->
      if v.role = Tcr.Ir.Input then None else Some (v.name, v.dims))
    ir.vars

let ir_outputs (ir : Tcr.Ir.t) =
  List.filter_map
    (fun (v : Tcr.Ir.var) ->
      if v.role = Tcr.Ir.Output then Some v.name else None)
    ir.vars

(* Stage 3 - tcr: the merged program, each op iterated by its own
   loop_order. *)
let eval_tcr ~extents inputs (ir : Tcr.Ir.t) =
  let env = with_produced inputs extents (ir_produced ir) in
  List.iter
    (fun (op : Tcr.Ir.op) ->
      eval_sop ~extents env ~out:(op.out, op.out_indices) ~factors:op.factors
        ~order:op.loop_order)
    ir.ops;
  List.map (fun name -> (name, (find env name).data)) (ir_outputs ir)

(* Stage 4 - recipe: each op under its search point, iterating the mapped
   indices then the serial schedule (the single definition shared with the
   kernel lowering). *)
let eval_recipe ~extents inputs (ir : Tcr.Ir.t) (points : Tcr.Space.point list) =
  if List.length points <> List.length ir.ops then abort "one point per op required";
  let env = with_produced inputs extents (ir_produced ir) in
  List.iter2
    (fun (op : Tcr.Ir.op) (point : Tcr.Space.point) ->
      let mapped = Tcr.Space.mapped_indices point.decomp in
      let parallel_serial, reductions = Tcr.Space.serial_schedule op point in
      eval_sop ~extents env ~out:(op.out, op.out_indices) ~factors:op.factors
        ~order:(mapped @ parallel_serial @ reductions))
    ir.ops points;
  List.map (fun name -> (name, (find env name).data)) (ir_outputs ir)

(* ------------------------------------------------------------------ *)
(* Stage 5 - kernel: the F_p instance of Codegen.Exec.walk, the kernel
   interpreter float execution also runs. The walker forms addresses from
   the kernel's OWN extents table and bounds-checks them, so stride
   corruption is observed rather than normalized away; its layout errors
   (a missing extent or slot) abort the stage. *)

let eval_kernel (env : env) (k : Codegen.Kernel.t) =
  let data name = (find env name).data in
  let out = data k.op.out in
  let factors = Array.of_list (List.map (fun (name, _) -> data name) k.op.factors) in
  let nf = Array.length factors in
  let acc = ref 0 in
  let output off reduce =
    if k.scalar_replaced then begin
      acc := out.(off);
      reduce ();
      out.(off) <- !acc
    end
    else begin
      acc := 0;
      let saved = out.(off) in
      reduce ();
      out.(off) <- addp saved !acc
    end
  in
  let point offs =
    let p = ref (if nf = 0 then 1 else factors.(0).(offs.(0))) in
    for f = 1 to nf - 1 do
      p := mulp !p factors.(f).(offs.(f))
    done;
    acc := addp !acc !p
  in
  try
    Codegen.Exec.walk k
      ~elements:(fun name -> Array.length (data name))
      ~output ~point
  with Invalid_argument msg -> raise (Abort msg)

let eval_kernels ~extents inputs (ir : Tcr.Ir.t) kernels =
  let env = with_produced inputs extents (ir_produced ir) in
  List.iter (eval_kernel env) kernels;
  List.map (fun name -> (name, (find env name).data)) (ir_outputs ir)

(* ------------------------------------------------------------------ *)
(* Verdict *)

type verdict = {
  equivalent : bool;
  failed_stage : string option;  (* earliest non-equivalent stage *)
  rounds_run : int;
  stages : (string * string) list;  (* per-stage output digest, round 1 *)
  diags : Diag.t list;
}

(* Appends a field element (in [0, p)) in decimal, as [string_of_int]
   prints it. *)
let rec add_decimal buf n =
  if n >= 10 then add_decimal buf (n / 10);
  Buffer.add_char buf (Char.unsafe_chr (Char.code '0' + (n mod 10)))

(* MD5 hex of a stage's outputs: each output is [name:] and its elements in
   decimal joined by [,], and the outputs are joined by [;]. *)
let digest outs =
  let buf =
    Buffer.create (List.fold_left (fun n (_, data) -> n + 16 + (11 * Array.length data)) 0 outs)
  in
  List.iteri
    (fun i (name, data) ->
      if i > 0 then Buffer.add_char buf ';';
      Buffer.add_string buf name;
      Buffer.add_char buf ':';
      Array.iteri
        (fun j x ->
          if j > 0 then Buffer.add_char buf ',';
          add_decimal buf x)
        data)
    outs;
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* First element on which two stages' outputs disagree. *)
let first_mismatch parent child =
  List.fold_left
    (fun acc (name, pdata) ->
      match acc with
      | Some _ -> acc
      | None -> (
        match List.assoc_opt name child with
        | None -> Some (name, -1, 0, 0)
        | Some cdata ->
          let n = min (Array.length pdata) (Array.length cdata) in
          let rec scan i =
            if i >= n then
              if Array.length pdata <> Array.length cdata then Some (name, n, 0, 0) else None
            else if pdata.(i) <> cdata.(i) then Some (name, i, pdata.(i), cdata.(i))
            else scan (i + 1)
          in
          scan 0))
    None parent

let stage_code = function
  | "variant" -> "BAR060"
  | "tcr" -> "BAR061"
  | "recipe" -> "BAR062"
  | "kernel" -> "BAR063"
  | _ -> "BAR064"

let default_rounds = 2
let default_seed = 0x5eed

(* Points the DSL oracle iterates per round: the saturating sum over
   statements of the product of every driven extent. The naive einsum is
   the spec, so its cost is irreducible - tuner gates skip validation when
   it exceeds [gate_budget] (e.g. the O(n^10) TCE example exists precisely
   because its naive nest is infeasible). *)
let cost (statements : Octopi.Contraction.t list) =
  List.fold_left
    (fun acc (c : Octopi.Contraction.t) ->
      let pts =
        List.fold_left
          (fun p i ->
            let e = Octopi.Contraction.extent c i in
            if e > 0 && p > max_int / e then max_int else p * e)
          1
          (c.output_indices @ c.sum_indices)
      in
      if acc > max_int - pts then max_int else acc + pts)
    0 statements

let gate_budget = 4_000_000

(* Validate one tuned candidate's full lineage. [mutate_kernel] rewrites
   each lowered kernel before interpretation (the mutation self-test
   harness); [rounds] (at least one) Schwartz-Zippel rounds with fresh
   random inputs each, all derived from [seed]. *)
let validate ?(rounds = default_rounds) ?(seed = default_seed) ?mutate_kernel ~label
    (statements : Octopi.Contraction.t list) ~variant_ids ~(ir : Tcr.Ir.t) ~points =
  if rounds < 1 then invalid_arg "Semantic.validate: rounds must be >= 1";
  let site = label in
  let abort_diag stage msg =
    Diag.error Diag.Semantic ~code:"BAR064" ~site
      "semantic evaluation aborted at the %s stage: %s" stage msg
  in
  let aborted stage msg =
    {
      equivalent = false;
      failed_stage = Some stage;
      rounds_run = 0;
      stages = [];
      diags = [ abort_diag stage msg ];
    }
  in
  match
    if List.length variant_ids <> List.length statements then
      abort "%d variant ids for %d statements" (List.length variant_ids)
        (List.length statements);
    let choices =
      List.map2
        (fun c id -> (c, Octopi.Variants.find (Octopi.Variants.of_contraction c) id))
        statements variant_ids
    in
    let kernels = Codegen.Kernel.lower_program ir points in
    let kernels =
      match mutate_kernel with None -> kernels | Some f -> List.map f kernels
    in
    (choices, kernels)
  with
  | exception Abort msg -> aborted "dsl" msg
  | exception Invalid_argument msg -> aborted "dsl" msg
  | choices, kernels ->
    let extents = ir.extents in
    let inputs_spec =
      List.map (fun (v : Tcr.Ir.var) -> (v.name, v.dims)) (Tcr.Ir.inputs ir)
    in
    let chain =
      [
        ("dsl", fun inputs -> eval_dsl ~extents inputs statements);
        ("variant", fun inputs -> eval_variant ~extents inputs choices);
        ("tcr", fun inputs -> eval_tcr ~extents inputs ir);
        ("recipe", fun inputs -> eval_recipe ~extents inputs ir points);
        ("kernel", fun inputs -> eval_kernels ~extents inputs ir kernels);
      ]
    in
    let rng = Util.Rng.create seed in
    let stages = ref [] in
    (* Round 1's digests, newest first, so the head is the parent's. A
       stage that agrees with its parent over the same output names has the
       parent's digest text (a name repeated within one stage is one
       array), so it takes the parent's digest; the first stage and a stage
       that differs are digested. *)
    let record stage parent outs mismatch =
      let d =
        match (parent, mismatch, !stages) with
        | Some parent, None, (_, parent_digest) :: _
          when List.equal (fun (a, _) (b, _) -> String.equal a b) parent outs ->
          parent_digest
        | _ -> digest outs
      in
      stages := (stage, d) :: !stages
    in
    let rec run round =
      if round >= rounds then
        {
          equivalent = true;
          failed_stage = None;
          rounds_run = rounds;
          stages = List.rev !stages;
          diags = [];
        }
      else begin
        let inputs = random_inputs rng extents inputs_spec in
        (* each stage is compared with the one before it, so the first
           disagreement (or abort) names the earliest broken translation *)
        let step parent (stage, eval) =
          match eval inputs with
          | exception Abort msg -> Error (abort_diag stage msg, stage)
          | exception Codegen.Exec.Out_of_bounds msg ->
            Error
              ( Diag.error Diag.Semantic ~code:(stage_code stage) ~site
                  "%s stage: %s (round %d of %d)" stage msg (round + 1) rounds,
                stage )
          | outs -> (
            let mismatch = Option.bind parent (fun parent -> first_mismatch parent outs) in
            if round = 0 then record stage parent outs mismatch;
            match mismatch with
            | None -> Ok (Some outs)
            | Some (name, i, pv, cv) ->
              Error
                ( Diag.error Diag.Semantic ~code:(stage_code stage) ~site
                    "%s stage disagrees with its parent on %s[%d]: %d vs %d (mod %d, \
                     round %d of %d)"
                    stage name i pv cv prime (round + 1) rounds,
                  stage ))
        in
        let outcome =
          List.fold_left
            (fun acc link -> Result.bind acc (fun parent -> step parent link))
            (Ok None) chain
        in
        match outcome with
        | Ok _ -> run (round + 1)
        | Error (diag, stage) ->
          {
            equivalent = false;
            failed_stage = Some stage;
            rounds_run = round + 1;
            stages = List.rev !stages;
            diags = [ diag ];
          }
      end
    in
    run 0
