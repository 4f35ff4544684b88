(* Feature binarization (Section V): the decomposition parameters have no
   ordinal structure, so categorical features are one-hot encoded before
   surrogate modeling; numeric features (unroll factors) pass through. *)

type value = Cat of string | Num of float

type features = (string * value) list

type column = Onehot of string * string | Numeric of string

type schema = { columns : column array }

(* What [make_schema] knows of one feature name: its first-appearance
   rank, whether it was ever numeric, and its category set. *)
type entry = { rank : int; mutable numeric : bool; cats : (string, unit) Hashtbl.t }

(* Build the encoding schema from a sample of feature vectors, in one pass:
   one numeric column per numeric feature, one 0/1 column per observed
   category. *)
let make_schema (samples : features list) =
  let table : (string, entry) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (List.iter (fun (name, v) ->
         let e =
           match Hashtbl.find_opt table name with
           | Some e -> e
           | None ->
             let e = { rank = Hashtbl.length table; numeric = false; cats = Hashtbl.create 8 } in
             Hashtbl.add table name e;
             e
         in
         match v with
         | Num _ -> e.numeric <- true
         | Cat c -> Hashtbl.replace e.cats c ()))
    samples;
  let columns =
    Hashtbl.fold (fun name e acc -> (e.rank, name, e) :: acc) table []
    |> List.sort (fun (a, _, _) (b, _, _) -> compare a b)
    |> List.concat_map (fun (_, name, e) ->
           if e.numeric then [ Numeric name ]
           else
             Hashtbl.fold (fun c () acc -> c :: acc) e.cats []
             |> List.sort compare
             |> List.map (fun c -> Onehot (name, c)))
  in
  { columns = Array.of_list columns }

let dimension schema = Array.length schema.columns

(* Staged: [encode schema] builds the name-to-column lookup once, and the
   function it returns makes one pass over a sample. Only a name's first
   occurrence counts; a mismatched kind (a [Num] on a one-hot name, a [Cat]
   on a numeric one) or an unknown category lights nothing. *)
let encode schema =
  let ids : (string, int) Hashtbl.t = Hashtbl.create 16 in
  let numeric : (string, int) Hashtbl.t = Hashtbl.create 16 in
  let onehot : (string * string, int) Hashtbl.t = Hashtbl.create 64 in
  Array.iteri
    (fun col column ->
      let name =
        match column with
        | Numeric name -> Hashtbl.add numeric name col; name
        | Onehot (name, cat) -> Hashtbl.add onehot (name, cat) col; name
      in
      if not (Hashtbl.mem ids name) then Hashtbl.add ids name (Hashtbl.length ids))
    schema.columns;
  let width = Array.length schema.columns and names = Hashtbl.length ids in
  fun (sample : features) ->
    let row = Array.make width 0.0 in
    let seen = Array.make names false in
    List.iter
      (fun (name, v) ->
        match Hashtbl.find_opt ids name with
        | Some id when not seen.(id) -> (
          seen.(id) <- true;
          match v with
          | Num x -> List.iter (fun col -> row.(col) <- x) (Hashtbl.find_all numeric name)
          | Cat c -> List.iter (fun col -> row.(col) <- 1.0) (Hashtbl.find_all onehot (name, c)))
        | _ -> ())
      sample;
    row

let column_name = function
  | Numeric name -> name
  | Onehot (name, cat) -> Printf.sprintf "%s=%s" name cat
