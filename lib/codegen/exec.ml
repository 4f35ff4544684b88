(* Interpreter for the kernel IR. [plan] compiles a kernel's access map
   (Kernel.access) once into a loop plan and proves it inside the caller's
   allocation; its two instances run that plan with their arithmetic
   inline (the contract is in exec.mli): [run_kernel] over floats, checked
   against the einsum oracle by the test-suite, and the prime-field kernel
   stage of Check.Semantic, so the validator proves the interpreter that
   Barracuda.run executes.

   Addresses come from the kernel's access map, formed from its OWN
   extents table, and the plan's box is proven against the caller's
   allocation, so corrupted strides surface as wrong values or
   [Out_of_bounds] instead of being normalized away. *)

type env = (string * Tensor.Dense.t) list

exception Out_of_bounds of string

let find env name =
  match List.assoc_opt name env with
  | Some t -> t
  | None -> invalid_arg (Printf.sprintf "Exec: unbound tensor %s" name)

type plan = {
  extents : int array;
  element_levels : int;
  out_deltas : int array;
  deltas : int array array;
  run : int;
  steps : int array;
}

type cursor = { index : int array; mutable level : int; mutable out : int; offsets : int array }

let start p =
  {
    index = Array.make (Array.length p.extents) 0;
    level = (if Array.for_all (fun e -> e > 0) p.extents then 0 else -1);
    out = 0;
    offsets = Array.make (Array.length p.steps) 0;
  }

(* The innermost level short of its last value advances, every level
   inside it wraps to 0, and the offsets move by that level's deltas. *)
let step p c =
  let index = c.index and extents = p.extents in
  let l = ref (Array.length extents - 1) in
  while !l >= 0 && index.(!l) = extents.(!l) - 1 do
    index.(!l) <- 0;
    decr l
  done;
  let l = !l in
  c.level <- l;
  if l >= 0 then begin
    index.(l) <- index.(l) + 1;
    c.out <- c.out + p.out_deltas.(l);
    let d = p.deltas.(l) and offs = c.offsets in
    for f = 0 to Array.length offs - 1 do
      offs.(f) <- offs.(f) + d.(f)
    done
  end

let out_of_bounds (k : Kernel.t) name size off =
  raise
    (Out_of_bounds
       (Printf.sprintf "kernel %s accesses %s at linear offset %d outside its %d elements" k.name
          name off size))

(* Levels are by, bx, ty and tx (a grid or block dimension that the
   decomposition leaves unmapped binds no slot, -1), the parallel loops,
   then the reduction loops; the innermost reduction loop is the run. A
   level carries a reference's stride at its slot unless a level inside
   it binds that slot too, so the offsets are those of slot writes where
   the last write wins; only element levels carry the output's. The
   deltas are odometer steps: a level's stride less the wrap of every
   odometer level inside it from e-1 to 0. *)
let plan (k : Kernel.t) ~elements =
  let a = Kernel.access k in
  let slot = Kernel.slot a in
  let parallel, reductions =
    List.partition (fun (l : Kernel.loop) -> l.parallel) k.thread_loops
  in
  let loop (l : Kernel.loop) = (slot l.index, l.extent) in
  let parallel = List.map loop parallel and reductions = List.map loop reductions in
  let level i e = ((match i with Some i -> slot i | None -> -1), e) in
  let d = k.decomp and bx_e, by_e = k.grid and tx_e, ty_e = k.block in
  let levels =
    Array.of_list
      ([ level d.by by_e; level (Some d.bx) bx_e; level d.ty ty_e; level (Some d.tx) tx_e ]
      @ parallel @ reductions)
  in
  let nlevels = Array.length levels and nred = List.length reductions in
  let ne = nlevels - nred in
  (* a reduction loop of extent 0 or less leaves every element without a
     point: the odometer keeps the element levels and the run is empty *)
  let no_points = List.exists (fun (_, e) -> e <= 0) reductions in
  (* the odometer's levels: every level but the run's *)
  let nodo = if no_points || nred = 0 then ne else nlevels - 1 in
  let run = if no_points then 0 else if nred = 0 then 1 else snd levels.(nlevels - 1) in
  let per_slot (r : Kernel.reference) =
    let s = Array.make (Array.length a.slots) 0 in
    List.iter (fun (slot, stride) -> s.(slot) <- s.(slot) + stride) r.terms;
    s
  in
  let rec bound_inside s l upto = l < upto && (fst levels.(l) = s || bound_inside s (l + 1) upto) in
  (* each level's stride, from per-slot strides [st], when the levels from
     [upto] on move nothing *)
  let carried upto st =
    Array.init nlevels (fun l ->
        let s = fst levels.(l) in
        if l >= upto || s < 0 || bound_inside s (l + 1) upto then 0 else st.(s))
  in
  let delta st l =
    let d = ref st.(l) in
    for m = l + 1 to nodo - 1 do
      d := !d - ((snd levels.(m) - 1) * st.(m))
    done;
    !d
  in
  let out_st = carried ne (per_slot a.out) in
  let factors = Array.of_list a.factors in
  let factor_st = Array.map (fun r -> carried nlevels (per_slot r)) factors in
  let p =
    {
      extents = Array.init nodo (fun l -> snd levels.(l));
      element_levels = ne;
      out_deltas = Array.init nodo (delta out_st);
      deltas = Array.init nodo (fun l -> Array.map (fun st -> delta st l) factor_st);
      run;
      steps = Array.map (fun st -> if no_points || nred = 0 then 0 else st.(nlevels - 1)) factor_st;
    }
  in
  let out_size = elements a.out.name in
  let sizes = Array.map (fun (r : Kernel.reference) -> elements r.name) factors in
  (* Prove the box: a reference's offset ranges from the sum of its
     negative spans to the sum of its positive ones, each span a level's
     stride times its extent less 1, and the box's corners are visited. A
     walk that visits nothing, or an empty run, reads nothing. *)
  let within size st =
    let lo = ref 0 and hi = ref 0 in
    Array.iteri
      (fun l s ->
        let span = s * (snd levels.(l) - 1) in
        if span < 0 then lo := !lo + span else hi := !hi + span)
      st;
    !lo >= 0 && !hi < size
  in
  let proven =
    (not (Array.for_all (fun e -> e > 0) p.extents))
    || within out_size out_st
       && (run = 0 || Array.for_all2 within sizes factor_st)
  in
  if not proven then begin
    (* Name the first failing point in visit order - an element's output
       before its runs, and at a point its first failing factor - as a
       check at every point would. Offsets are affine along a run, so its
       two ends bound it. *)
    let c = start p in
    let fails f off = off < 0 || off >= sizes.(f) in
    let nf = Array.length factors in
    let rec run_fails f =
      f < nf
      && (fails f c.offsets.(f) || fails f (c.offsets.(f) + ((run - 1) * p.steps.(f)))
         || run_fails (f + 1))
    in
    while c.level >= 0 do
      if c.out < 0 || c.out >= out_size then out_of_bounds k a.out.name out_size c.out;
      let element = ref true in
      while !element do
        if run > 0 && run_fails 0 then
          for t = 0 to run - 1 do
            for f = 0 to nf - 1 do
              let off = c.offsets.(f) + (t * p.steps.(f)) in
              if fails f off then out_of_bounds k factors.(f).name sizes.(f) off
            done
          done;
        step p c;
        element := c.level >= ne
      done
    done
  end;
  p

(* Run one kernel over its grid. Accumulates into the (pre-zeroed or
   previously accumulated) output tensor, as the generated CUDA does by
   loading the output into the scalar first. *)
let run_kernel (k : Kernel.t) (env : env) =
  let data (name, dims) =
    let tensor = find env name in
    let shape = Tensor.Dense.shape tensor in
    if Tensor.Shape.rank shape <> List.length dims then
      invalid_arg (Printf.sprintf "Exec: rank mismatch for %s" name);
    List.iteri
      (fun pos i ->
        if shape.(pos) <> Kernel.extent k i then
          invalid_arg (Printf.sprintf "Exec: extent mismatch for %s on %s" name i))
      dims;
    Tensor.Dense.data tensor
  in
  let out = data (k.op.out, k.op.out_indices) in
  let factors = Array.of_list (List.map data k.op.factors) in
  let nf = Array.length factors in
  let p = plan k ~elements:(fun name -> Tensor.Dense.num_elements (find env name)) in
  let c = start p in
  let offs = c.offsets and steps = p.steps in
  while c.level >= 0 do
    let o = c.out in
    (* scalar replacement loads the output into the register once; the
       ablation form accumulates from 0 and adds the stored value at the
       end. Either way the element is stored once. *)
    let acc = ref (if k.scalar_replaced then out.(o) else 0.0) in
    let element = ref true in
    while !element do
      (* one multiply-accumulate per point: each product starts from 1.0
         and takes the factors in order, and the points accumulate in
         order *)
      for t = 0 to p.run - 1 do
        let prod = ref 1.0 in
        for f = 0 to nf - 1 do
          prod := !prod *. factors.(f).(offs.(f) + (t * steps.(f)))
        done;
        acc := !acc +. !prod
      done;
      step p c;
      element := c.level >= p.element_levels
    done;
    out.(o) <- (if k.scalar_replaced then !acc else out.(o) +. !acc)
  done

(* Allocate zeroed temporaries and outputs for a program. *)
let allocate_produced (ir : Tcr.Ir.t) (inputs : env) : env =
  let produced =
    List.filter (fun (v : Tcr.Ir.var) -> v.role <> Tcr.Ir.Input) ir.vars
  in
  inputs
  @ List.map
      (fun (v : Tcr.Ir.var) -> (v.name, Tensor.Dense.create (Tcr.Ir.var_shape ir v.name)))
      produced

(* Run a whole program: lower each op under its point and execute the
   kernels in sequence (data stays "device-resident" in [env]). Returns the
   extended environment; the output tensor is found under its name. *)
let run_program ?scalar_replace (ir : Tcr.Ir.t) (points : Tcr.Space.point list) (inputs : env) : env =
  let env = allocate_produced ir inputs in
  let kernels = Kernel.lower_program ?scalar_replace ir points in
  List.iter (fun k -> run_kernel k env) kernels;
  env

(* Reference evaluation of a TCR program using the einsum oracle, for
   validation: ops are evaluated in order, accumulating when several ops
   target the same tensor. *)
let run_reference (ir : Tcr.Ir.t) (inputs : env) : env =
  let env = allocate_produced ir inputs in
  List.iter
    (fun (op : Tcr.Ir.op) ->
      let operands =
        List.map (fun (name, idx) -> Tensor.Einsum.operand (find env name) idx) op.factors
      in
      let value = Tensor.Einsum.contract ~output_indices:op.out_indices operands in
      let dest = find env op.out in
      let sum = Tensor.Dense.add dest value in
      Array.blit (Tensor.Dense.data sum) 0 (Tensor.Dense.data dest) 0
        (Tensor.Dense.num_elements dest))
    ir.ops;
  env
