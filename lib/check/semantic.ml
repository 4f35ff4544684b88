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

   The reference stages (dsl, variant, tcr, recipe) are described as data:
   the tensors they zero-initialize, whether they allocate temporaries on
   first write, and their ops (out[...] += product of factors, iterating a
   loop order) - the DSL as the direct einsum, the variant as its
   binary-contraction plan over temporaries, the TCR program following each
   op's loop_order, the recipe through Space.serial_schedule (mapped
   indices x serial schedule). One evaluator runs a description. Each round
   evaluates each distinct description once: F_p addition is exact and
   commutative, so an op's outputs depend only on its references and on
   the multiset of loop indices it iterates, and two stages whose
   descriptions agree on those (the key: produced tensors, temporaries
   rule, and per op its output, its factors and its sorted loop indices,
   duplicates kept) compute equal arrays bit for bit. A missing, duplicated
   or extra index changes the key, so that stage is evaluated on its own
   and fails as it would alone. An op that reads its own output keeps its
   loop order in the key, and a stage that writes an input tensor is
   always evaluated. The sharing table lives inside one round, after that
   round's inputs are drawn.

   The kernel stage is always evaluated, through Codegen.Exec.walk - the
   interpreter float execution runs too - with F_p arithmetic: grid/block
   loops, unrolled main loop plus epilogue, scalar replacement, and
   addresses formed from the KERNEL'S OWN extents table so that corrupted
   strides surface as wrong values or out-of-bounds accesses rather than
   being silently normalized away. Every kernel access is bounds-checked
   against the true allocation; an out-of-bounds read is reported as the
   stage's divergence. The reference stages never touch the walker, so a
   bug in it still shows up as a kernel-stage disagreement.

   Codes (stage = the earliest one that stopped agreeing with its parent):
     BAR060  variant disagrees with the DSL einsum
     BAR061  TCR program disagrees with the variant
     BAR062  recipe schedule disagrees with the TCR program
     BAR063  lowered kernel disagrees with the recipe (including OOB)
     BAR064  evaluation aborted (structural failure before comparison) *)

exception Abort of string

let abort fmt = Printf.ksprintf (fun s -> raise (Abort s)) fmt

(* F_p arithmetic, p = 2^31 - 1 (Mersenne), without data-dependent
   branches. Every tensor entry is already reduced (inputs are drawn from
   [0, p), outputs start at 0), and for such entries [addp] and [mulp]
   equal (a + b) mod p and a * b mod p. Both form a value in [-p, p) and
   add p back through the sign mask of the 63-bit native int. A product
   fits it ((p-1)^2 < 2^62), and since 2^31 = 1 (mod p) it folds once into
   its high and low 31 bits, whose sum is below 2p. A product starts from
   its first factor rather than from 1. *)
let prime = 2147483647

let[@inline] canonical s = s + (prime land (s asr 62))
let[@inline] addp a b = canonical (a + b - prime)

let[@inline] mulp a b =
  let x = a * b in
  canonical ((x lsr 31) + (x land prime) - prime)

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

(* The product at point [t] of a run: factor [f] is read at
   [offs.(f) + t * steps.(f)]. *)
let[@inline] product (data : int array array) offs steps t =
  let nf = Array.length data in
  let p = ref (if nf = 0 then 1 else data.(0).(offs.(0) + (t * steps.(0)))) in
  for f = 1 to nf - 1 do
    p := mulp !p data.(f).(offs.(f) + (t * steps.(f)))
  done;
  !p

(* ------------------------------------------------------------------ *)
(* Generic sum-of-products evaluation: out[out_dims] += prod factors,
   iterating [order] (which must drive every referenced index; a wrong
   order - missing, duplicated or extra indices - either aborts or shows
   up as a wrong value, exactly what the validation is for). Loop level
   [s] alone binds slot [s] (a duplicated index carries its strides on its
   first slot only). The nest runs as an odometer: the innermost level is
   one loop over offsets [base + t x step], and each outer level advances
   the base offsets by a precomputed delta (its stride, less the inner
   levels' wrap from e-1 to 0). Points come in the recursion's order. A
   run over a reduction (output stride 0) whose factors are not the output
   tensor accumulates in a local and stores once; otherwise every point
   updates the output, so a factor reading it sees every update. *)

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
  if Array.for_all (fun e -> e > 0) exts then begin
    let nf = Array.length factor_refs in
    let fdata = Array.map fst factor_refs in
    let fstrides = Array.map snd factor_refs in
    let inner = nslots - 1 in
    let len = if nslots = 0 then 1 else exts.(inner) in
    let at strides = if nslots = 0 then 0 else strides.(inner) in
    let ostep = at ostrides and fsteps = Array.map at fstrides in
    let delta strides s =
      let d = ref strides.(s) in
      for r = s + 1 to inner - 1 do
        d := !d - ((exts.(r) - 1) * strides.(r))
      done;
      !d
    in
    let odelta = Array.init (max 0 inner) (delta ostrides) in
    let fdelta = Array.init (max 0 inner) (fun s -> Array.map (fun st -> delta st s) fstrides) in
    let local = ostep = 0 && not (Array.exists (fun d -> d == odata) fdata) in
    let idx = Array.make nslots 0 in
    let ooff = ref 0 and foffs = Array.make nf 0 in
    let level = ref 0 in
    while !level >= 0 do
      let o = !ooff in
      if local then begin
        let acc = ref odata.(o) in
        for t = 0 to len - 1 do
          acc := addp !acc (product fdata foffs fsteps t)
        done;
        odata.(o) <- !acc
      end
      else
        for t = 0 to len - 1 do
          let i = o + (t * ostep) in
          odata.(i) <- addp odata.(i) (product fdata foffs fsteps t)
        done;
      (* advance the odometer: the innermost outer level that has not
         reached its last value steps, and every level inside it wraps *)
      level := inner - 1;
      while !level >= 0 && idx.(!level) = exts.(!level) - 1 do
        idx.(!level) <- 0;
        decr level
      done;
      if !level >= 0 then begin
        let s = !level in
        idx.(s) <- idx.(s) + 1;
        ooff := !ooff + odelta.(s);
        let col = fdelta.(s) in
        for f = 0 to nf - 1 do
          foffs.(f) <- foffs.(f) + col.(f)
        done
      end
    done
  end

(* ------------------------------------------------------------------ *)
(* Reference stages as data. An op is out[...] += product of factors,
   iterating [order]; a description lists the tensors it zero-initializes
   (in order), whether an op allocates its output on first write when it
   is not yet bound (the variant stage's temporaries), its ops, and the
   output names the stage reports. *)

type ref_op = {
  out : string * string list;
  factors : (string * string list) list;
  order : string list;
}

type description = {
  produced : (string * string list) list;
  temporaries : bool;
  ops : ref_op list;
  outputs : string list;
}

let refs_of (frs : Octopi.Ast.tensor_ref list) =
  List.map (fun (f : Octopi.Ast.tensor_ref) -> (f.name, f.indices)) frs

(* Stage 1 - dsl: the direct einsum of each statement. Outputs shared
   across statements (repeated outputs accumulate, as on the device). *)
let describe_dsl (statements : Octopi.Contraction.t list) =
  let produced =
    List.map (fun (c : Octopi.Contraction.t) -> (c.output, c.output_indices)) statements
  in
  {
    produced;
    temporaries = false;
    ops =
      List.map
        (fun (c : Octopi.Contraction.t) ->
          {
            out = (c.output, c.output_indices);
            factors = refs_of c.factors;
            order = c.output_indices @ c.sum_indices;
          })
        statements;
    outputs = List.map fst produced;
  }

(* Stage 2 - variant: each statement's strength-reduction plan, op by op
   over its temporaries. Temporaries are renamed apart across statements
   (as Combine.merge does) so they cannot collide. A variant whose ops all
   write statement outputs allocates nothing, so its rule is the dsl's. *)
let describe_variant (choices : (Octopi.Contraction.t * Octopi.Variants.variant) list) =
  let produced =
    List.map (fun ((c : Octopi.Contraction.t), _) -> (c.output, c.output_indices)) choices
  in
  let ops =
    List.concat
      (List.mapi
         (fun si ((c : Octopi.Contraction.t), (v : Octopi.Variants.variant)) ->
           let rename name =
             if name = c.output then name
             else if List.exists (fun (op : Octopi.Plan.op) -> op.out = name) v.ops then
               Printf.sprintf "s%d_%s" (si + 1) name
             else name
           in
           List.map
             (fun (op : Octopi.Plan.op) ->
               let factors = List.map (fun (n, d) -> (rename n, d)) op.factors in
               let red =
                 List.sort_uniq compare (List.concat_map snd factors)
                 |> List.filter (fun i -> not (List.mem i op.out_indices))
               in
               { out = (rename op.out, op.out_indices); factors; order = op.out_indices @ red })
             v.ops)
         choices)
  in
  {
    produced;
    temporaries = List.exists (fun op -> not (List.mem_assoc (fst op.out) produced)) ops;
    ops;
    outputs = List.map fst produced;
  }

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

let describe_ir (ir : Tcr.Ir.t) ordered =
  {
    produced = ir_produced ir;
    temporaries = false;
    ops =
      List.map
        (fun (op, order) -> { out = (op.Tcr.Ir.out, op.out_indices); factors = op.factors; order })
        ordered;
    outputs = ir_outputs ir;
  }

(* Stage 3 - tcr: the merged program, each op iterated by its own
   loop_order. *)
let describe_tcr ir =
  describe_ir ir (List.map (fun (op : Tcr.Ir.op) -> (op, op.loop_order)) ir.ops)

(* Stage 4 - recipe: each op under its search point, iterating the mapped
   indices then the serial schedule (the single definition shared with the
   kernel lowering). *)
let describe_recipe (ir : Tcr.Ir.t) (points : Tcr.Space.point list) =
  if List.length points <> List.length ir.ops then abort "one point per op required";
  describe_ir ir
    (List.map2
       (fun (op : Tcr.Ir.op) (point : Tcr.Space.point) ->
         let mapped = Tcr.Space.mapped_indices point.decomp in
         let parallel_serial, reductions = Tcr.Space.serial_schedule op point in
         (op, mapped @ parallel_serial @ reductions))
       ir.ops points)

let evaluate ~extents inputs d =
  let env = with_produced inputs extents d.produced in
  List.iter
    (fun op ->
      let name, dims = op.out in
      if d.temporaries && not (Hashtbl.mem env name) then
        Hashtbl.replace env name (alloc extents dims);
      eval_sop ~extents env ~out:op.out ~factors:op.factors ~order:op.order)
    d.ops;
  env

(* Two descriptions with equal keys compute equal arrays. An op that reads
   its own output sees its updates in loop order, so its key keeps the
   order as given. *)
let key d =
  ( d.produced,
    d.temporaries,
    List.map
      (fun op ->
        let order =
          if List.mem_assoc (fst op.out) op.factors then op.order
          else List.sort compare op.order
        in
        (op.out, op.factors, order))
      d.ops )

(* One round's sharing: each distinct key is evaluated once over the
   round's inputs, and a stage reads its outputs from the stored
   environment by its own output names. A stage that writes into an input
   tensor changes what later stages read, so it is always evaluated. *)
let shared_outputs ~extents inputs shared d =
  let env =
    if List.exists (fun op -> Hashtbl.mem inputs (fst op.out)) d.ops then
      evaluate ~extents inputs d
    else
      let k = key d in
      match Hashtbl.find_opt shared k with
      | Some env -> env
      | None ->
        let env = evaluate ~extents inputs d in
        Hashtbl.replace shared k env;
        env
  in
  List.map (fun name -> (name, (find env name).data)) d.outputs

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
  let run offs steps len =
    let a = ref !acc in
    for t = 0 to len - 1 do
      a := addp !a (product factors offs steps t)
    done;
    acc := !a
  in
  try
    Codegen.Exec.walk k
      ~elements:(fun name -> Array.length (data name))
      ~output ~run
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

let rec decimal_width n w = if n < 10 then w else decimal_width (n / 10) (w + 1)

let rec fill_decimal b i n =
  Bytes.set b i (Char.unsafe_chr (Char.code '0' + (n mod 10)));
  if n >= 10 then fill_decimal b (i - 1) (n / 10)

(* Writes a field element (in [0, p), so at most ten digits) in decimal at
   [pos], as [string_of_int] prints it, and returns the position after
   it. *)
let write_decimal b pos n =
  let last = pos + (if n >= 1_000_000_000 then 10 else decimal_width n 1) - 1 in
  fill_decimal b last n;
  last + 1

(* MD5 hex of a stage's outputs: each output is [name:] and its elements in
   decimal joined by [,], and the outputs are joined by [;]. The text is
   written into one buffer sized for ten digits and a separator per
   element. *)
let digest outs =
  let b =
    Bytes.create
      (List.fold_left
         (fun n (name, data) -> n + String.length name + 2 + (11 * Array.length data))
         0 outs)
  in
  let pos = ref 0 in
  let add_char c =
    Bytes.set b !pos c;
    incr pos
  in
  List.iteri
    (fun i (name, data) ->
      if i > 0 then add_char ';';
      Bytes.blit_string name 0 b !pos (String.length name);
      pos := !pos + String.length name;
      add_char ':';
      for j = 0 to Array.length data - 1 do
        if j > 0 then add_char ',';
        pos := write_decimal b !pos data.(j)
      done)
    outs;
  Digest.to_hex (Digest.subbytes b 0 !pos)

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
        let shared = Hashtbl.create 4 in
        let reference describe () = shared_outputs ~extents inputs shared (describe ()) in
        let chain =
          [
            ("dsl", reference (fun () -> describe_dsl statements));
            ("variant", reference (fun () -> describe_variant choices));
            ("tcr", reference (fun () -> describe_tcr ir));
            ("recipe", reference (fun () -> describe_recipe ir points));
            ("kernel", fun () -> eval_kernels ~extents inputs ir kernels);
          ]
        in
        (* each stage is compared with the one before it, so the first
           disagreement (or abort) names the earliest broken translation *)
        let step parent (stage, eval) =
          match eval () with
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
