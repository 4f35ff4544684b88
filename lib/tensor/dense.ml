(* Dense row-major tensors over [float array].

   This is the data substrate for the reference einsum evaluator, the kernel
   interpreter and the GPU simulator's device memory. *)

type t = { shape : Shape.t; data : float array }

let create shape =
  Shape.validate shape;
  { shape; data = Array.make (Shape.num_elements shape) 0.0 }

let init shape f =
  Shape.validate shape;
  let t = create shape in
  Shape.iter shape (fun idx -> t.data.(Shape.linearize shape idx) <- f idx);
  t

let copy t = { shape = t.shape; data = Array.copy t.data }

let shape t = t.shape
let data t = t.data
let num_elements t = Array.length t.data

let get t idx = t.data.(Shape.linearize t.shape idx)
let set t idx v = t.data.(Shape.linearize t.shape idx) <- v

let map f t = { t with data = Array.map f t.data }

let scale alpha t = map (fun x -> alpha *. x) t

let add a b =
  if not (Shape.equal a.shape b.shape) then invalid_arg "Dense.add: shape mismatch";
  { shape = a.shape; data = Array.map2 ( +. ) a.data b.data }

let sub a b =
  if not (Shape.equal a.shape b.shape) then invalid_arg "Dense.sub: shape mismatch";
  { shape = a.shape; data = Array.map2 ( -. ) a.data b.data }

let dot a b =
  if not (Shape.equal a.shape b.shape) then invalid_arg "Dense.dot: shape mismatch";
  let acc = ref 0.0 in
  Array.iteri (fun i x -> acc := !acc +. (x *. b.data.(i))) a.data;
  !acc

let norm2 t = sqrt (dot t t)

let max_abs_diff a b =
  if not (Shape.equal a.shape b.shape) then invalid_arg "Dense.max_abs_diff: shape mismatch";
  let worst = ref 0.0 in
  Array.iteri (fun i x -> worst := max !worst (abs_float (x -. b.data.(i)))) a.data;
  !worst

(* Approximate equality with a tolerance scaled to the magnitude of the
   values, suitable for comparing reassociated floating-point sums. *)
let approx_equal ?(tol = 1e-9) a b =
  if not (Shape.equal a.shape b.shape) then false
  else begin
    let ok = ref true in
    Array.iteri
      (fun i x ->
        let y = b.data.(i) in
        let scale = max 1.0 (max (abs_float x) (abs_float y)) in
        if abs_float (x -. y) > tol *. scale then ok := false)
      a.data;
    !ok
  end

let random rng shape =
  init shape (fun _ -> Util.Rng.float_range rng (-1.0) 1.0)
