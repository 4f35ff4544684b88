(** Multi-domain work scheduler: an order-preserving parallel map over
    OCaml 5 domains with dynamic load balancing. For a pure function the
    result is identical to [List.map] for every domain count - workers
    race only for which item they compute, never for where its result
    lands. The first exception in item order is re-raised. *)

type t

(** [create ~domains ()] clamps to [1, 128] and - because domains beyond
    the hardware's parallelism are actively slower, not just useless -
    further to [Domain.recommended_domain_count ()] unless
    [clamp_to_cores:false] (tests use that to exercise true multi-domain
    execution on any machine). The default is the recommended count.
    One effective domain degrades to a plain sequential map with no
    domain spawned. *)
val create : ?clamp_to_cores:bool -> ?domains:int -> unit -> t

(** The effective worker count. *)
val domains : t -> int

val map : t -> ('a -> 'b) -> 'a list -> 'b list

(** [run_thunks t fs] forces each thunk, in parallel: the executor shape
    {!Autotune.Tuner.tune}'s [batch_map] expects. *)
val run_thunks : t -> (unit -> 'a) list -> 'a list
