(* Tensor shapes and row-major linearization.

   A shape is the extent of each dimension, outermost first. All tensors in
   Barracuda are dense and row-major ("linearize" in the TCR input format),
   matching the layout the paper's generated CUDA assumes. *)

type t = int array

let of_list = Array.of_list

let rank (s : t) = Array.length s

let num_elements (s : t) = Array.fold_left ( * ) 1 s

let validate (s : t) =
  Array.iter (fun d -> if d <= 0 then invalid_arg "Shape.validate: non-positive extent") s

let equal (a : t) (b : t) = a = b

(* Row-major strides: stride of the last dimension is 1. *)
let strides (s : t) : int array =
  let n = rank s in
  let st = Array.make n 1 in
  for i = n - 2 downto 0 do
    st.(i) <- st.(i + 1) * s.(i + 1)
  done;
  st

(* Linear offset of a multi-index. *)
let linearize (s : t) (idx : int array) =
  if Array.length idx <> rank s then invalid_arg "Shape.linearize: rank mismatch";
  let st = strides s in
  let off = ref 0 in
  for i = 0 to rank s - 1 do
    if idx.(i) < 0 || idx.(i) >= s.(i) then invalid_arg "Shape.linearize: out of bounds";
    off := !off + (idx.(i) * st.(i))
  done;
  !off

(* Inverse of [linearize]. *)
let delinearize (s : t) (off : int) : int array =
  let st = strides s in
  let n = rank s in
  let idx = Array.make n 0 in
  let rem = ref off in
  for i = 0 to n - 1 do
    idx.(i) <- !rem / st.(i);
    rem := !rem mod st.(i)
  done;
  idx

(* Iterate over all multi-indices in row-major order. The callback receives
   a buffer that is reused between calls; copy it if you keep it. *)
let iter (s : t) f =
  let n = rank s in
  let idx = Array.make n 0 in
  let total = num_elements s in
  for _ = 1 to total do
    f idx;
    (* increment little-endian from the last dimension *)
    let rec bump i =
      if i >= 0 then begin
        idx.(i) <- idx.(i) + 1;
        if idx.(i) = s.(i) then begin
          idx.(i) <- 0;
          bump (i - 1)
        end
      end
    in
    bump (n - 1)
  done
