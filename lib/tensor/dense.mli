(** Dense row-major tensors over [float array]: the data substrate for the
    einsum oracle, the kernel interpreter and the simulated device memory. *)

type t

(** Zero-filled tensor. Raises on invalid shapes. *)
val create : Shape.t -> t

(** [init shape f] fills each element from its multi-index. *)
val init : Shape.t -> (int array -> float) -> t

val copy : t -> t
val shape : t -> Shape.t

(** The underlying flat storage (not a copy; mutations are visible). *)
val data : t -> float array

val num_elements : t -> int
val get : t -> int array -> float
val set : t -> int array -> float -> unit
val scale : float -> t -> t

(** Elementwise operations; raise on shape mismatch. *)
val add : t -> t -> t

val sub : t -> t -> t
val dot : t -> t -> float
val norm2 : t -> float
val max_abs_diff : t -> t -> float

(** Approximate equality with relative tolerance (default [1e-9]), suitable
    for comparing reassociated floating-point sums. False on shape
    mismatch. *)
val approx_equal : ?tol:float -> t -> t -> bool

(** Uniform values in [[-1, 1)]. *)
val random : Util.Rng.t -> Shape.t -> t
