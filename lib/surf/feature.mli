(** Feature binarization (Section V): decomposition parameters have no
    ordinal structure, so categorical features are one-hot encoded before
    surrogate modeling; numeric features (unroll factors) pass through. *)

type value = Cat of string | Num of float
type features = (string * value) list

type column = Onehot of string * string | Numeric of string

type schema = { columns : column array }

(** Build the encoding schema from a sample of feature vectors: one numeric
    column per numeric feature, one 0/1 column per observed category,
    grouped by first appearance of the feature name. *)
val make_schema : features list -> schema

val dimension : schema -> int

(** [encode schema] builds the name-to-column lookup once; the function it
    returns encodes one sample in a single pass over its entries. Apply it
    once and reuse it for every sample. Only a name's first occurrence
    counts; unknown categories light no column; missing numerics, a [Num]
    on a one-hot name and a [Cat] on a numeric name encode as 0. *)
val encode : schema -> features -> float array

(** ["tx=i"] for one-hot columns, the plain name for numeric ones. *)
val column_name : column -> string
