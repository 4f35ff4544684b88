(** Mutation self-test harness for the semantic validator: three named
    kernel mutations, each a realistic lowering bug, each caught by the
    kernel stage as [BAR063]. Loop-order permutations are deliberately
    absent: sums commute, so the validator must accept them. *)

type t =
  | Swap_factor_indices  (** transposed access pattern *)
  | Corrupt_stride  (** wrong stride table (value or out-of-bounds) *)
  | Drop_accumulation  (** lost "+=": reduction truncated *)

val all : t list

(** Stable CLI names: ["swap-index"], ["corrupt-stride"],
    ["drop-accumulation"]. *)
val name : t -> string

val of_name : string -> t option

(** Apply to one kernel; the flag reports whether anything changed
    (kernels lacking the required structure pass through unchanged). *)
val apply : t -> Codegen.Kernel.t -> Codegen.Kernel.t * bool
