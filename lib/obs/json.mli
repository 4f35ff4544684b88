(** Minimal JSON value type, renderer, parser and decoder set - just
    enough for the telemetry artifacts (journal, bench log, SLO, ledger,
    what-if and doctor inputs) to round-trip without an external
    dependency. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

(** [Num] of an integer. *)
val of_int : int -> t

(** Escape a string for inclusion inside a JSON string literal. *)
val escape : string -> string

(** Render. Non-finite numbers serialize as [null]; integral floats render
    without a fractional part. [indent] pretty-prints with two spaces. *)
val to_string : ?indent:bool -> t -> string

exception Parse_error of string

(** Parse a complete JSON document; [Error] carries a message with the
    failing offset. *)
val parse : string -> (t, string) result

val parse_exn : string -> t

(** Field lookup on an [Obj]; [None] on anything else. *)
val member : string -> t -> t option

(** [Num] payload; [Null] reads as [nan] (the serialization of non-finite
    floats). *)
val get_num : t -> float option

val get_str : t -> string option

(** {2 Decoders}

    A decoder is a plain function [t -> 'a] built from the accessors
    below. Each accessor raises {!Decode_error} naming the field it could
    not read; {!decode} turns that into an [Error]. *)

exception Decode_error of string

(** Raise {!Decode_error} with a formatted message. *)
val fail : ('a, unit, string, 'b) format4 -> 'a

(** Required field of an object, of any type. *)
val field : string -> t -> t

(** Required number field; [null] reads as [nan] (see {!get_num}). *)
val num : string -> t -> float

(** Required number field, truncated to an integer. *)
val int : string -> t -> int

val str : string -> t -> string
val arr : string -> t -> t list

(** [opt get name j] is [None] when [j] has no field [name], and
    [Some (get name j)] otherwise: a present but ill-typed field still
    fails. *)
val opt : (string -> t -> 'a) -> string -> t -> 'a option

(** [enum what of_name s] decodes the name [s] of a variant with
    [of_name], failing with ["unknown <what> <s>"]. *)
val enum : string -> (string -> 'a option) -> string -> 'a

(** Run a decoder, catching {!Decode_error}. *)
val decode : (t -> 'a) -> t -> ('a, string) result

(** Inverse of {!decode}: the [Ok] value, or {!Decode_error} carrying the
    [Error] message, so result-returning decoders nest inside others. *)
val ok : ('a, string) result -> 'a
