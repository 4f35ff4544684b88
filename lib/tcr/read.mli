(** Parser for the textual TCR format printed by {!Ir.to_string}. Loop orders are
    not part of the concrete syntax; they are reconstructed as output
    indices followed by reduction indices. *)

exception Error of string

(** [~validate:false] skips the final {!Ir.validate}, so a deliberately
    broken program can be parsed and handed to the static verifier for
    diagnosis instead of raising at the first violation. *)
val program : ?validate:bool -> string -> Ir.t
