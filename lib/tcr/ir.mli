(** Tensor Contraction Representation: the intermediate form of
    Figure 2(b). A program is a list of accumulation statements over named
    index variables, plus the extent of every index and the declaration of
    every tensor. Arrays are dense row-major ("access: linearize"); each
    statement becomes one GPU kernel. Several statements may accumulate
    into the same output (as local_grad3t does). *)

type role = Input | Temp | Output

type var = {
  name : string;
  dims : string list;  (** index names, outermost first; row-major layout *)
  role : role;
}

type op = {
  out : string;
  out_indices : string list;
  factors : (string * string list) list;
  loop_order : string list;  (** full iteration order, outermost first *)
}

type t = {
  label : string;
  extents : (string * int) list;
  vars : var list;
  ops : op list;
}

(** [List.mem] over index names, compared with [String.equal] instead of
    polymorphic compare. *)
val mem_index : string -> string list -> bool

(** [List.assoc_opt] keyed by index name, compared with [String.equal];
    the first match wins. *)
val assoc_index : string -> (string * 'a) list -> 'a option

(** [is_permutation a b]: [a] and [b] hold the same index names, counted
    with multiplicity. *)
val is_permutation : string list -> string list -> bool

(** Raise [Invalid_argument] for unknown names. *)
val extent : t -> string -> int

val var : t -> string -> var
val var_shape : t -> string -> Tensor.Shape.t

(** Sorted distinct indices of one statement. *)
val iteration_indices : op -> string list

(** Indices summed over: present in a factor but not in the output. These
    are exactly the loops that carry a dependence (Section IV); all other
    loops are parallel. *)
val reduction_indices : op -> string list

val inputs : t -> var list
val temps : t -> var list
val outputs : t -> var list

(** Multiply-add flops (2 per point of the iteration space). *)
val op_flops : t -> op -> int

val flops : t -> int

(** Size in bytes (doubles). *)
val var_bytes : t -> string -> int

(** Build a program from a chosen OCTOPI variant. *)
val of_variant : label:string -> Octopi.Contraction.t -> Octopi.Variants.variant -> t

(** Check extents, declarations, producer-before-consumer ordering and that
    loop orders are permutations; raises [Failure] with a message. *)
val validate : t -> unit

val pp_op : Format.formatter -> op -> unit

(** The concrete Figure 2(b) format; {!Read.program} parses it back. *)
val to_string : t -> string
