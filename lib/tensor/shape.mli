(** Tensor shapes with row-major linearization ("access: linearize" in the
    TCR format). A shape is the extent of each dimension, outermost first. *)

type t = int array

val of_list : int list -> t

(** Number of dimensions. *)
val rank : t -> int

(** Product of extents. *)
val num_elements : t -> int

(** Raise [Invalid_argument] if any extent is non-positive. *)
val validate : t -> unit

val equal : t -> t -> bool

(** Row-major strides: the last dimension has stride 1. *)
val strides : t -> int array

(** Linear offset of a multi-index. Raises on rank mismatch or
    out-of-bounds components. *)
val linearize : t -> int array -> int

(** Inverse of {!linearize}. *)
val delinearize : t -> int -> int array

(** Iterate all multi-indices in row-major order. The callback receives a
    buffer that is reused between calls; copy it to keep it. *)
val iter : t -> (int array -> unit) -> unit
