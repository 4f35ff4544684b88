(* Self time and self allocation per layer, for the traced run.

   A span is opened by the benchmark around one call into a layer's public
   function. Its self time is its duration minus the time of the spans
   opened inside it; likewise for minor-heap words. Spans are kept in
   preallocated float arrays, so opening one allocates nothing and the
   hot closures it wraps (SURF's encode, the static gate) are measured
   without distortion. The words a span costs itself, measured at each
   reset, are subtracted, so allocation counts are those of the layer
   alone and repeat exactly between runs. *)

type layer =
  | Octopi_variants
  | Tcr_pool
  | Check_gate
  | Check_semantic
  | Surf_encode
  | Surf_search
  | Gpusim_eval
  | Codegen_emit
  | Autotune_self
  | Service_canonicalize
  | Service_lookup
  | Untraced  (** the top-level call the mirror is checked against *)

let slot = function
  | Octopi_variants -> 0
  | Tcr_pool -> 1
  | Check_gate -> 2
  | Check_semantic -> 3
  | Surf_encode -> 4
  | Surf_search -> 5
  | Gpusim_eval -> 6
  | Codegen_emit -> 7
  | Autotune_self -> 8
  | Service_canonicalize -> 9
  | Service_lookup -> 10
  | Untraced -> 11

let n_slots = 12
let self_s = Float.Array.make n_slots 0.0
let self_w = Float.Array.make n_slots 0.0
let calls = Array.make n_slots 0

(* the open spans, innermost at [!depth]; index 0 is a sentinel root *)
let max_depth = 32
let depth = ref 0
let open_slot = Array.make max_depth 0
let start_s = Float.Array.make max_depth 0.0
let start_w = Float.Array.make max_depth 0.0
let child_s = Float.Array.make max_depth 0.0
let child_w = Float.Array.make max_depth 0.0
let span_cost_w = ref 0.0

let enter layer =
  incr depth;
  let d = !depth in
  if d >= max_depth then failwith "Layers.enter: spans nested too deep";
  open_slot.(d) <- slot layer;
  Float.Array.set child_s d 0.0;
  Float.Array.set child_w d 0.0;
  Float.Array.set start_w d (Gc.minor_words ());
  Float.Array.set start_s d (Unix.gettimeofday ())

let leave () =
  let t = Unix.gettimeofday () in
  let w = Gc.minor_words () in
  let d = !depth in
  let s = open_slot.(d) in
  let dt = t -. Float.Array.get start_s d and dw = w -. Float.Array.get start_w d in
  Float.Array.set self_s s (Float.Array.get self_s s +. dt -. Float.Array.get child_s d);
  Float.Array.set self_w s
    (Float.Array.get self_w s +. dw -. Float.Array.get child_w d -. !span_cost_w);
  calls.(s) <- calls.(s) + 1;
  decr depth;
  let p = d - 1 in
  Float.Array.set child_s p (Float.Array.get child_s p +. dt);
  Float.Array.set child_w p (Float.Array.get child_w p +. dw)

let span layer f x =
  enter layer;
  match f x with
  | r ->
    leave ();
    r
  | exception e ->
    leave ();
    raise e

let span2 layer f x y =
  enter layer;
  match f x y with
  | r ->
    leave ();
    r
  | exception e ->
    leave ();
    raise e

let time layer = Float.Array.get self_s (slot layer)
let words layer = Float.Array.get self_w (slot layer)
let count layer = calls.(slot layer)

(* Exact counts the layers' results expose, summed over the run. *)
type counts = {
  mutable encode_calls : int;
  mutable pool_candidates : int;
  mutable gate_rejected : int;
  mutable semantic_skipped : int;
  mutable oracle_points : int;
  mutable variants : int;
  mutable cuda_bytes : int;
  mutable misses : int;
}

let counts =
  {
    encode_calls = 0;
    pool_candidates = 0;
    gate_rejected = 0;
    semantic_skipped = 0;
    oracle_points = 0;
    variants = 0;
    cuda_bytes = 0;
    misses = 0;
  }

(* Measure what an empty span allocates, then clear every table. *)
let reset () =
  span_cost_w := 0.0;
  span Untraced ignore ();
  span_cost_w := words Untraced;
  Float.Array.fill self_s 0 n_slots 0.0;
  Float.Array.fill self_w 0 n_slots 0.0;
  Array.fill calls 0 n_slots 0;
  counts.encode_calls <- 0;
  counts.pool_candidates <- 0;
  counts.gate_rejected <- 0;
  counts.semantic_skipped <- 0;
  counts.oracle_points <- 0;
  counts.variants <- 0;
  counts.cuda_bytes <- 0;
  counts.misses <- 0
