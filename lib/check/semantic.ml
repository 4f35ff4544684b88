(* Translation validation: prove that every lowered kernel computes its
   contraction.

   Each pipeline stage of a tuned candidate's lineage - DSL statement ->
   OCTOPI variant (strength-reduction plan) -> merged TCR program ->
   recipe (search point's schedule) -> lowered kernel - denotes a
   polynomial in the input tensor entries: a sum of products with
   non-negative integer coefficients. Two stages are equivalent iff those
   polynomials are identical. Each round draws the inputs uniformly from
   the prime field F_p (p = 2^31 - 1) and, from a generator of its own, one
   vector r_a per axis a of every output tensor, and compares the stages'
   fingerprints  sum_x C[x] * prod_a r_a[x_a]  of every output C
   (Freivalds' check). Two stages' fingerprints differ by a polynomial in
   the inputs and the vectors of degree at most the number of factors plus
   the output rank, so by Schwartz-Zippel a false "equivalent" has
   probability at most d/p per round, while a false "different" is
   impossible: every stage is evaluated exactly (no rounding), and equal
   polynomials give equal fingerprints.

   The reference stages (dsl, variant, tcr, recipe) are described as data:
   the tensors they zero-initialize, whether they allocate temporaries on
   first write, and their ops (out[...] += product of factors, iterating a
   loop order) - the DSL as the direct einsum, the variant as its
   binary-contraction plan over temporaries, the TCR program following each
   op's loop_order, the recipe through Space.serial_schedule (mapped
   indices x serial schedule). One evaluator runs a description. A tensor
   that no op of the stage reads - every final output - is never formed:
   each op that writes it adds its share of the fingerprint directly, with
   the vectors multiplied into the factors that carry their indices and
   every index left in one factor only summed out first. A tensor some op
   reads (a temporary, a statement output a later statement reads) and an
   input the stage writes are formed, and an output among them is
   fingerprinted by one pass.

   The kernel stage is proven first. From each kernel's access map and
   the op it was lowered from, five facts ([proves]: same op, the IR's
   extents, an exact cover of the op's indices, the row-major map, no
   self-read) establish that the kernel computes exactly that op; then
   every output element ends at its recipe value, so when every kernel
   of the candidate is proven the stage's fingerprints are the recipe
   stage's of the same round, and nothing is walked, allocated or
   fingerprinted. This is the tuner gate's path. When a fact fails (a
   mutated kernel, a statement that reads its own output, tx and bx on
   one index, a hand-built kernel), or when the caller asks for the walk
   ([check --semantic], [--diff], [--mutate], and the tests as the
   cross-check), the stage walks: it runs Codegen.Exec's loop plan - the
   plan float execution runs too - with F_p arithmetic inline: grid/block
   loops, every reduction point in the printed order, and addresses from
   the kernel's access map, formed from the KERNEL'S OWN extents table so
   that corrupted strides surface as wrong values or out-of-bounds
   accesses rather than being silently normalized away. The plan proves
   its whole iteration box against the true allocation before anything
   runs; a box it cannot prove is reported as the stage's divergence,
   naming the first out-of-bounds point. Each output element keeps a
   private accumulator and is stored once, as the printed kernel does
   with scalar replacement, so a statement that reads its own
   accumulation target (a BAR017 race) reads what the kernel would. Its
   outputs are then fingerprinted by one pass. The reference stages never
   touch the plan, so a bug in it still shows up as a kernel-stage
   disagreement.

   When a stage's fingerprints differ from its parent's and the DSL
   oracle's cost fits [gate_budget], both stages are evaluated again
   element by element, so the diagnostic names the first element that
   differs; above the budget it names the output and both fingerprints.

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
   fits it ((p-1)^2 < 2^62), and since 2^31 = 1 (mod p) [fold] takes any
   x below 2^62 to the sum of its high and low 31 bits, congruent to x
   and below 2^32; a product's fold is below 2p. A product starts from its
   first factor rather than from 1. *)
let prime = 2147483647

let[@inline] canonical s = s + (prime land (s asr 62))
let[@inline] addp a b = canonical (a + b - prime)
let[@inline] fold x = (x lsr 31) + (x land prime)
let[@inline] mulp a b = canonical (fold (a * b) - prime)

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
let show_shape shape = "[" ^ String.concat "x" (List.map string_of_int shape) ^ "]"

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
(* Generic sum-of-products evaluation: out += prod factors over a nest
   whose level [s] has extent [exts.(s)]; a reference reads its array at
   the dot product of its per-level strides and the point. The nest runs
   as an odometer: the innermost level is one loop over offsets
   [base + t x step], and each outer level advances the base offsets by a
   precomputed delta (its stride, less the inner levels' wrap from e-1 to
   0). Points come in the recursion's order. A run over a reduction
   (output stride 0) whose factors are not the output array accumulates in
   a local and stores once; otherwise every point updates the output, so a
   factor reading it sees every update. A level of extent 0 or less makes
   the nest empty. *)

let nest exts (odata, ostrides) (fdata : int array array) fstrides =
  let nslots = Array.length exts in
  if Array.for_all (fun e -> e > 0) exts then begin
    let nf = Array.length fdata in
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

(* An op iterates [order] (which must drive every referenced index; a
   wrong order - missing, duplicated or extra indices - either aborts or
   shows up as a wrong value, exactly what the validation is for). Loop
   level [s] alone binds slot [s]: a duplicated index carries its strides
   on its first slot only. *)
let slot_of ~oname slots name =
  let rec go i =
    if i >= Array.length slots then
      abort "index %s of %s is not driven by the loop order" name oname
    else if slots.(i) = name then i
    else go (i + 1)
  in
  go 0

(* Per-slot strides of reference [name[dims]] to tensor [t]. A reference
   must have its tensor's allocated shape: one with another shape would
   read past the allocation, or read its elements on other axes. *)
let compile ~extents ~oname slots (t : tensor) (name, dims) =
  let shape = shape_of extents dims in
  let allocated = shape_of extents t.dims in
  if shape <> allocated then
    abort "%s[%s] has shape %s, but %s is allocated as %s" name (String.concat " " dims)
      (show_shape shape) name (show_shape allocated);
  let strides = Tensor.Shape.strides (Array.of_list shape) in
  let s = Array.make (Array.length slots) 0 in
  List.iteri
    (fun pos dim ->
      let k = slot_of ~oname slots dim in
      s.(k) <- s.(k) + strides.(pos))
    dims;
  s

(* out[odims] += prod factors, iterating [order]. *)
let eval_sop ~extents (env : env) ~out:(oname, odims) ~factors ~order =
  let slots = Array.of_list order in
  let compile (name, dims) =
    let t = find env name in
    (t.data, compile ~extents ~oname slots t (name, dims))
  in
  let odata, ostrides = compile (oname, odims) in
  let refs = Array.of_list (List.map compile factors) in
  let exts = Array.of_list (List.map (ext_of extents) order) in
  nest exts (odata, ostrides) (Array.map fst refs) (Array.map snd refs)

(* ------------------------------------------------------------------ *)
(* Fingerprints *)

(* sum_x data[x] * prod_a r.(a)[x_a] over a row-major tensor whose axis
   [a] has extent [Array.length r.(a)]: repeated tensor-times-vector, the
   last axis first. *)
let fingerprint r data =
  let cur = ref data in
  for a = Array.length r - 1 downto 0 do
    let v = r.(a) and src = !cur in
    let n = Array.length v in
    let dst = Array.make (if n = 0 then 0 else Array.length src / n) 0 in
    for i = 0 to Array.length dst - 1 do
      let acc = ref 0 and base = i * n in
      for t = 0 to n - 1 do
        acc := addp !acc (mulp src.(base + t) v.(t))
      done;
      dst.(i) <- !acc
    done;
    cur := dst
  done;
  if Array.length !cur = 0 then 0 else (!cur).(0)

(* One round's vectors: [vectors name shape] draws one per axis of output
   [name] the first time a stage asks, and gives every later stage the
   same ones. A stage that asks with another shape has the output on other
   axes, so it aborts. *)
let vector_table vrng =
  let drawn = Hashtbl.create 4 in
  fun name shape ->
    match Hashtbl.find_opt drawn name with
    | Some (s, r) ->
      if s <> shape then
        abort "output %s has shape %s here but %s at an earlier stage" name (show_shape shape)
          (show_shape s);
      r
    | None ->
      let r =
        Array.of_list (List.map (fun e -> Array.init e (fun _ -> Util.Rng.int vrng prime)) shape)
      in
      Hashtbl.replace drawn name (shape, r);
      r

(* What op [out[odims] += prod factors] adds to the fingerprint of an
   output [oname] that is never formed: sum over the op's points of its
   product times prod_a r.(a)[x at odims(a)], with the op's own aborts
   (the output reference is checked against its [allocated] dims). Each
   vector joins the first factor carrying its index, or stands alone when
   none does; each such group is one pass of [nest] that multiplies its
   vectors in and sums out the indices no other group carries. The
   indices left, each carried by two groups or more, are the remaining
   nest, and a loop level that no reference uses repeats every point. So
   the op costs a pass over each factor plus a nest over a subset of its
   own indices: on a binary contraction, the indices it sums. *)
let fingerprint_op ~extents env ~out:(oname, odims) ~allocated ~r ~factors ~order =
  let slots = Array.of_list order in
  let nslots = Array.length slots in
  ignore (compile ~extents ~oname slots { dims = allocated; data = [||] } (oname, odims));
  let refs =
    List.map
      (fun (name, dims) ->
        let t = find env name in
        (t.data, compile ~extents ~oname slots t (name, dims)))
      factors
  in
  let exts = Array.of_list (List.map (ext_of extents) order) in
  if not (Array.for_all (fun e -> e > 0) exts) then 0
  else begin
    let carries (_, strides) s = strides.(s) <> 0 in
    let groups =
      List.fold_left
        (fun groups (a, dim) ->
          let s = slot_of ~oname slots dim in
          let v = (r.(a), Array.init nslots (fun k -> if k = s then 1 else 0)) in
          let rec join = function
            | [] -> [ (v, []) ]
            | (base, vs) :: rest when carries base s -> (base, v :: vs) :: rest
            | g :: rest -> g :: join rest
          in
          join groups)
        (List.map (fun f -> (f, [])) refs)
        (List.mapi (fun a dim -> (a, dim)) odims)
    in
    let carriers s = List.length (List.filter (fun (base, _) -> carries base s) groups) in
    let all = List.init nslots Fun.id in
    (* out[levels] += prod terms over the given slots, as a fresh tensor
       over the [kept] ones *)
    let contract kept levels terms =
      let levels = Array.of_list levels in
      let shape = List.map (fun s -> exts.(s)) kept in
      let row = Tensor.Shape.strides (Array.of_list shape) in
      let data = Array.make (size_of shape) 0 in
      let at (_, strides) = Array.map (fun s -> strides.(s)) levels in
      let ostrides = Array.mapi (fun l _ -> if l < Array.length row then row.(l) else 0) levels in
      nest (Array.map (fun s -> exts.(s)) levels) (data, ostrides)
        (Array.of_list (List.map fst terms))
        (Array.of_list (List.map at terms));
      let strides = Array.make nslots 0 in
      List.iteri (fun l s -> strides.(s) <- row.(l)) kept;
      (data, strides)
    in
    let reduce (base, vs) =
      let kept, summed =
        List.partition (fun s -> carriers s > 1) (List.filter (carries base) all)
      in
      match (vs, summed) with
      | [], [] -> base
      | _ -> contract kept (kept @ summed) (base :: vs)
    in
    let left = List.filter (fun s -> carriers s > 1) all in
    let sum, _ = contract [] left (List.map reduce groups) in
    List.fold_left
      (fun acc s -> if carriers s = 0 then mulp acc exts.(s) else acc)
      sum.(0) all
  end

(* ------------------------------------------------------------------ *)
(* Reference stages as data. An op is out[...] += product of factors,
   iterating [order]; a description lists the tensors it zero-initializes
   (in order), whether an op allocates its output on first write when it
   is not yet bound (the variant stage's temporaries), its ops, and the
   output names the stage reports (always among the produced tensors). *)

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

(* One op of [d], element by element, into [env]. *)
let form ~extents env d op =
  let name, dims = op.out in
  if d.temporaries && not (Hashtbl.mem env name) then Hashtbl.replace env name (alloc extents dims);
  eval_sop ~extents env ~out:op.out ~factors:op.factors ~order:op.order

(* A stage's outputs, element by element. *)
let evaluate ~extents inputs d =
  let env = with_produced inputs extents d.produced in
  List.iter (form ~extents env d) d.ops;
  List.map (fun name -> (name, find env name)) d.outputs

(* A stage's outputs as fingerprints. An output that no op reads and that
   is not an input is never formed (the first produced entry of a name
   gives its dims); every other tensor is formed as [evaluate] forms it. *)
let fingerprint_stage ~extents ~vectors inputs d =
  let read = List.concat_map (fun op -> List.map fst op.factors) d.ops in
  let unformed = Hashtbl.create 4 in
  List.iter
    (fun (name, dims) ->
      if
        List.mem name d.outputs
        && (not (List.mem name read))
        && (not (Hashtbl.mem inputs name))
        && not (Hashtbl.mem unformed name)
      then Hashtbl.replace unformed name (dims, vectors name (shape_of extents dims), ref 0))
    d.produced;
  let env =
    with_produced inputs extents
      (List.filter (fun (name, _) -> not (Hashtbl.mem unformed name)) d.produced)
  in
  List.iter
    (fun op ->
      match Hashtbl.find_opt unformed (fst op.out) with
      | Some (allocated, r, sum) ->
        sum :=
          addp !sum
            (fingerprint_op ~extents env ~out:op.out ~allocated ~r ~factors:op.factors
               ~order:op.order)
      | None -> form ~extents env d op)
    d.ops;
  List.map
    (fun name ->
      match Hashtbl.find_opt unformed name with
      | Some (_, _, sum) -> (name, !sum)
      | None ->
        let t = find env name in
        (name, fingerprint (vectors name (shape_of extents t.dims)) t.data))
    d.outputs

(* ------------------------------------------------------------------ *)
(* Stage 5 - kernel: proven from the access map when it can be (below,
   [proves]), walked otherwise. The walk is the F_p instance of
   Codegen.Exec's loop plan, the plan float execution also runs. The plan
   reads the kernel's access map, formed from its OWN extents table, and
   proves its box against the true allocation before anything runs, so
   stride corruption is observed rather than normalized away; its layout
   errors (a missing extent or slot) abort the stage. Each output element
   keeps a private accumulator - loaded from the output when
   scalar-replaced, else started at 0 and added to the stored value at the
   end - that its runs add to in point order, and is stored once: kernel
   semantics, not the reference stages' per-point update, so a factor that
   reads the output sees only the elements already stored. *)

(* A binary run reduces once: each point adds its product's fold, below
   2^32, so a run of at most [deferred_run] points sums below 2^62, and
   two folds bring the sum to at most p + 1, which [canonical] takes into
   [0, p). *)
let deferred_run = 1 lsl 30

let eval_kernel (env : env) (k : Codegen.Kernel.t) =
  let data name = (find env name).data in
  let out = data k.op.out in
  let factors = Array.of_list (List.map (fun (name, _) -> data name) k.op.factors) in
  try
    let p = Codegen.Exec.plan k ~elements:(fun name -> Array.length (data name)) in
    let c = Codegen.Exec.start p in
    let offs = c.offsets and steps = p.steps in
    while c.level >= 0 do
      let o = c.out in
      let acc = ref (if k.scalar_replaced then out.(o) else 0) in
      let element = ref true in
      while !element do
        (if Array.length factors = 2 && p.run <= deferred_run then begin
           (* every NWChem kernel is binary *)
           let a = factors.(0) and b = factors.(1) and sa = steps.(0) and sb = steps.(1) in
           let ia = ref offs.(0) and ib = ref offs.(1) and sum = ref 0 in
           for _ = 1 to p.run do
             sum := !sum + fold (a.(!ia) * b.(!ib));
             ia := !ia + sa;
             ib := !ib + sb
           done;
           acc := addp !acc (canonical (fold (fold !sum) - prime))
         end
         else
           for t = 0 to p.run - 1 do
             acc := addp !acc (product factors offs steps t)
           done);
        Codegen.Exec.step p c;
        element := c.level >= p.element_levels
      done;
      out.(o) <- (if k.scalar_replaced then !acc else addp out.(o) !acc)
    done
  with Invalid_argument msg -> raise (Abort msg)

let eval_kernels ~extents inputs (ir : Tcr.Ir.t) kernels =
  let env = with_produced inputs extents (ir_produced ir) in
  List.iter (eval_kernel env) kernels;
  List.map (fun name -> (name, find env name)) (ir_outputs ir)

(* The kernel stage's proof: kernel [k] computes exactly the recipe's op
   [rop] over the IR's extents when five facts hold.
   1. Same op: its output, output indices and factor references (names
      and dims, in order) are the op's.
   2. Same extents: its own extents table gives every index the op
      references that index's IR extent, which is at least 1.
   3. Exact cover: tx, bx, the optional ty and by, and each thread loop
      bind pairwise distinct indices whose union is the op's index set,
      and the recipe iterates that set once each. Each level runs over
      its index's IR extent (an absent ty or by leaves its block or grid
      dimension at 1). A level stays inside one output element (tx, ty,
      bx, by and the parallel loops) exactly when its index is an output
      index.
   4. Row-major map: in [Kernel.access k], the map the plan, the printer,
      gpusim and the bounds proof read, each reference's terms are (the
      slot of dim d, the product of the IR extents of the dims after d),
      and its element count is its tensor's allocation.
   5. No self-read: no factor names the output, and the output is a
      tensor the program produces, not an input.
   Then the walk visits every point of the op once, reads each factor
   where the recipe reads it, and only adds to the output. F_p addition
   commutes, so each output element ends at its recipe value whatever the
   order, and the stage's fingerprints are the recipe's. *)
let same_ref (n, d) (n', d') = String.equal n n' && List.equal String.equal d d'

let proves (ir : Tcr.Ir.t) (rop : ref_op) (k : Codegen.Kernel.t) =
  let oname, odims = rop.out in
  let ext i = List.assoc_opt i ir.extents in
  let size dims = try Some (size_of (shape_of ir.extents dims)) with Abort _ -> None in
  let declared name =
    match List.filter (fun (v : Tcr.Ir.var) -> String.equal v.name name) ir.vars with
    | [ v ] -> Some v
    | _ -> None
  in
  let indices = List.sort_uniq String.compare (odims @ List.concat_map snd rop.factors) in
  (* each level: its index, its extent, and whether it stays inside one
     output element *)
  let d = k.decomp and bx_e, by_e = k.grid and tx_e, ty_e = k.block in
  let mapped i e = match i with Some i -> [ (i, e, true) ] | None -> [] in
  let levels =
    ((d.tx, tx_e, true) :: mapped d.ty ty_e)
    @ ((d.bx, bx_e, true) :: mapped d.by by_e)
    @ List.map (fun (l : Codegen.Kernel.loop) -> (l.index, l.extent, l.parallel)) k.thread_loops
  in
  let row_major (a : Codegen.Kernel.access) (r : Codegen.Kernel.reference) =
    let rec terms dims ts =
      match (dims, ts) with
      | [], [] -> true
      | dim :: inner, (s, stride) :: ts ->
        s >= 0
        && s < Array.length a.slots
        && String.equal a.slots.(s).index dim
        && size inner = Some stride
        && terms inner ts
      | _ -> false
    in
    terms r.dims r.terms
    && match declared r.name with Some v -> size v.dims = Some r.elements | None -> false
  in
  (* 1. same op *)
  same_ref (k.op.out, k.op.out_indices) rop.out
  && List.equal same_ref k.op.factors rop.factors
  (* 2. same extents *)
  && List.for_all
       (fun i ->
         match ext i with Some e -> e > 0 && List.assoc_opt i k.extents = Some e | None -> false)
       indices
  (* 3. exact cover *)
  && (Option.is_some d.ty || ty_e = 1)
  && (Option.is_some d.by || by_e = 1)
  && Tcr.Ir.is_permutation (List.map (fun (i, _, _) -> i) levels) indices
  && List.for_all
       (fun (i, e, element) -> ext i = Some e && element = Tcr.Ir.mem_index i odims)
       levels
  && Tcr.Ir.is_permutation rop.order indices
  (* 4. row-major map *)
  && (match Codegen.Kernel.access k with
     | exception Invalid_argument _ -> false
     | a -> row_major a a.out && List.for_all (row_major a) a.factors)
  (* 5. no self-read *)
  && (not (List.exists (fun (name, _) -> String.equal name oname) rop.factors))
  && match declared oname with Some v -> v.role <> Tcr.Ir.Input | None -> false

(* Every kernel proven against its op of the recipe stage. *)
let prove_kernels (ir : Tcr.Ir.t) points kernels =
  match describe_recipe ir points with
  | exception (Abort _ | Invalid_argument _) -> false
  | recipe ->
    List.length recipe.ops = List.length kernels && List.for_all2 (proves ir) recipe.ops kernels

(* ------------------------------------------------------------------ *)
(* Verdict *)

type verdict = {
  equivalent : bool;
  failed_stage : string option;  (* earliest non-equivalent stage *)
  rounds_run : int;
  stages : (string * string) list;  (* per-stage fingerprint digest, round 1 *)
  diags : Diag.t list;
  kernel_proven : bool;  (* the kernel stage took the recipe's fingerprints *)
}

(* MD5 hex of a stage's fingerprints: [name:value] per output, joined by
   [;]. *)
let digest fingerprints =
  Digest.to_hex
    (Digest.string
       (String.concat ";" (List.map (fun (name, v) -> Printf.sprintf "%s:%d" name v) fingerprints)))

(* First output on which two stages' fingerprints differ; a child without
   the output reads -1. *)
let fingerprint_mismatch parent child =
  List.find_map
    (fun (name, pv) ->
      let cv = Option.value ~default:(-1) (List.assoc_opt name child) in
      if pv <> cv then Some (name, pv, cv) else None)
    parent

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

(* Points the naive einsum of the statements iterates: the saturating sum
   over statements of the product of every driven extent. No stage runs
   that nest: the reference stages are fingerprinted, and on the tuner's
   gate a proven kernel is not walked. [cost] bounds what is left there -
   the reference stages, and the element-wise diagnostics after a
   mismatch - and the walk of a kernel the proof rejects. Tuner gates skip
   validation when it exceeds [gate_budget] (e.g. the O(n^10) TCE
   example), and a mismatch above it is reported by its fingerprints. *)
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
   random inputs and vectors each, all derived from [seed]. The kernel
   stage is proven first and walked only when a fact fails, unless [walk]
   asks for the walk on every candidate. *)
let validate ?(rounds = default_rounds) ?(seed = default_seed) ?(walk = false) ?mutate_kernel
    ~label
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
      kernel_proven = false;
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
    (* the vectors' own stream, so the inputs are drawn as without them *)
    let vrng = Util.Rng.split (Util.Rng.create seed) in
    let elementwise = cost statements <= gate_budget in
    let kernel_proven = (not walk) && prove_kernels ir points kernels in
    let stages = ref [] in
    let rec run round =
      if round >= rounds then
        {
          equivalent = true;
          failed_stage = None;
          rounds_run = rounds;
          stages = List.rev !stages;
          diags = [];
          kernel_proven;
        }
      else begin
        let inputs = random_inputs rng extents inputs_spec in
        let vectors = vector_table vrng in
        (* each stage: its fingerprints given its parent's, and its outputs
           element by element *)
        let reference describe =
          ( (fun _ -> fingerprint_stage ~extents ~vectors inputs (describe ())),
            fun () -> evaluate ~extents inputs (describe ()) )
        in
        let kernel () = eval_kernels ~extents inputs ir kernels in
        let chain =
          [
            ("dsl", reference (fun () -> describe_dsl statements));
            ("variant", reference (fun () -> describe_variant choices));
            ("tcr", reference (fun () -> describe_tcr ir));
            ("recipe", reference (fun () -> describe_recipe ir points));
            ( "kernel",
              ( (function
                | Some recipe when kernel_proven -> recipe
                | _ ->
                  List.map
                    (fun (name, t) ->
                      (name, fingerprint (vectors name (shape_of extents t.dims)) t.data))
                    (kernel ())),
                kernel ) );
          ]
        in
        let disagreement stage parent_outputs outputs (name, pv, cv) =
          let data = List.map (fun (name, t) -> (name, t.data)) in
          match
            if elementwise then first_mismatch (data (parent_outputs ())) (data (outputs ()))
            else None
          with
          | Some (name, i, pv, cv) ->
            Printf.sprintf
              "%s stage disagrees with its parent on %s[%d]: %d vs %d (mod %d, round %d of %d)"
              stage name i pv cv prime (round + 1) rounds
          | None ->
            Printf.sprintf
              "%s stage disagrees with its parent on %s: fingerprint %d vs %d (mod %d, round \
               %d of %d)"
              stage name pv cv prime (round + 1) rounds
        in
        (* each stage is compared with the one before it, so the first
           disagreement (or abort) names the earliest broken translation *)
        let step parent (stage, (fingerprints, outputs)) =
          match
            let fps = fingerprints (Option.map fst parent) in
            if round = 0 then stages := (stage, digest fps) :: !stages;
            ( fps,
              Option.bind parent (fun (pfps, parent_outputs) ->
                  Option.map
                    (disagreement stage parent_outputs outputs)
                    (fingerprint_mismatch pfps fps)) )
          with
          | exception Abort msg -> Error (abort_diag stage msg, stage)
          | exception Codegen.Exec.Out_of_bounds msg ->
            Error
              ( Diag.error Diag.Semantic ~code:(stage_code stage) ~site
                  "%s stage: %s (round %d of %d)" stage msg (round + 1) rounds,
                stage )
          | fps, None -> Ok (Some (fps, outputs))
          | _, Some text ->
            Error (Diag.error Diag.Semantic ~code:(stage_code stage) ~site "%s" text, stage)
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
            kernel_proven;
          }
      end
    in
    run 0
