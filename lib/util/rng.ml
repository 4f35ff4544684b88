(* Deterministic splitmix64 pseudo-random number generator.

   Every stochastic component of the system (random tensor data, SURF
   sampling, tree randomization, simulated measurement noise) draws from an
   explicit [t] so that whole-pipeline runs are reproducible bit-for-bit. *)

(* The splitmix64 state, 8 bytes read and written with unboxed 64-bit
   primitives: a draw computes in registers and boxes no [int64], where a
   mutable [int64] field would box a fresh state on every call. *)
type t = Bytes.t

external get_state : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set_state : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let[@inline] of_state s =
  let t = Bytes.create 8 in
  set_state t 0 s;
  t

let create seed = of_state (Int64.of_int seed)

let golden = 0x9E3779B97F4A7C15L

(* Core splitmix64 step, inlined into each draw so that its 64 bits never
   leave registers. *)
let[@inline] next_int64 t =
  let z = Int64.add (get_state t 0) golden in
  set_state t 0 z;
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

(* Derive an independent stream; used to give each subsystem its own RNG. *)
let split t = of_state (Int64.mul (next_int64 t) 0x2545F4914F6CDD1DL)

let bits t = Int64.to_int (Int64.shift_right_logical (next_int64 t) 2)

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  bits t mod bound

let[@inline] float t bound =
  let mask53 = Int64.shift_right_logical (next_int64 t) 11 in
  Int64.to_float mask53 /. 9007199254740992.0 *. bound

(* Uniform in [lo, hi). *)
let float_range t lo hi = lo +. float t (hi -. lo)

(* Standard normal via Box-Muller. *)
let gaussian t =
  let u1 = max 1e-12 (float t 1.0) in
  let u2 = float t 1.0 in
  sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2)

(* Fisher-Yates shuffle, in place. *)
let shuffle_in_place t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

let shuffle t lst =
  let arr = Array.of_list lst in
  shuffle_in_place t arr;
  Array.to_list arr

(* [sample_without_replacement t k arr] returns [k] distinct elements. *)
let sample_without_replacement t k arr =
  let n = Array.length arr in
  if k > n then invalid_arg "Rng.sample_without_replacement: k > n";
  let idx = Array.init n (fun i -> i) in
  shuffle_in_place t idx;
  Array.init k (fun i -> arr.(idx.(i)))

let pick t arr =
  if Array.length arr = 0 then invalid_arg "Rng.pick: empty array";
  arr.(int t (Array.length arr))

let pick_list t lst =
  match lst with
  | [] -> invalid_arg "Rng.pick_list: empty list"
  | _ -> List.nth lst (int t (List.length lst))
