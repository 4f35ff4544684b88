(** NumPy-style einsum notation front end ("lk,mj,ni,lmn->ijk", one
    lowercase letter per axis): a convenience layer over the Figure 2(a)
    DSL. *)

exception Error of string

(** [parse ?output ?names ?extents spec]: factor tensors take [names]
    (default A, B, C, ...; specs with more factors than names get generated
    T8, T9, ... names, so network-sized specs need no explicit name list),
    the output is [output] (default "O"), [extents] assigns index sizes
    (others default). Raises {!Error} on malformed specs (missing "->",
    non-letter indices). *)
val parse :
  ?output:string -> ?names:string list -> ?extents:(string * int) list -> string ->
  Ast.program

(** The equivalent Figure 2(a) DSL text. *)
val to_dsl :
  ?output:string -> ?names:string list -> ?extents:(string * int) list -> string -> string
