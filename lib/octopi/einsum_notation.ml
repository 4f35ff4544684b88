(* NumPy-style einsum notation front end: "lk,mj,ni,lmn->ijk" with one
   single-letter index per axis. A convenience layer over the Figure 2(a)
   DSL for users coming from numpy.einsum / einsum-family libraries. *)

exception Error of string

let err fmt = Printf.ksprintf (fun s -> raise (Error s)) fmt

let default_factor_names = [ "A"; "B"; "C"; "D"; "E"; "F"; "G"; "H" ]

(* Extend a name list to cover [n] factors: past the supplied names,
   generate T8, T9, ... (skipping any the caller already used) so
   network-sized specs of tens of tensors parse without the caller
   spelling out every factor name. *)
let extend_names names n =
  let rec fill acc k remaining =
    if remaining = 0 then List.rev acc
    else begin
      let c = Printf.sprintf "T%d" k in
      if List.mem c names then fill acc (k + 1) remaining
      else fill (c :: acc) (k + 1) (remaining - 1)
    end
  in
  let supplied = List.length names in
  if n <= supplied then names else names @ fill [] supplied (n - supplied)

(* split at the first occurrence of a separator substring *)
let split_once s sep =
  let n = String.length s and m = String.length sep in
  let rec find i =
    if i + m > n then None else if String.sub s i m = sep then Some i else find (i + 1)
  in
  match find 0 with
  | None -> None
  | Some i -> Some (String.sub s 0 i, String.sub s (i + m) (n - i - m))

let indices_of_string spec =
  List.init (String.length spec) (fun i ->
      let c = spec.[i] in
      if c >= 'a' && c <= 'z' then String.make 1 c
      else err "einsum indices must be lowercase letters, got %C" c)

(* [parse ?output ?names ?extents spec] turns "ik,kj->ij" into an
   [Ast.program]. Factor tensors take [names] (defaults A, B, C, ...);
   the output tensor is [output] (default "O"); [extents] assigns index
   sizes, defaulting to {!Contraction.default_extent}. *)
let parse ?(output = "O") ?(names = default_factor_names) ?(extents = []) spec =
  let lhs, rhs =
    match split_once spec "->" with
    | Some (l, r) -> (String.trim l, String.trim r)
    | None -> err "einsum spec needs '->' (explicit mode): %S" spec
  in
  let factor_specs = String.split_on_char ',' lhs |> List.map String.trim in
  if factor_specs = [] || List.mem "" factor_specs then
    err "empty factor in einsum spec %S" spec;
  let names = extend_names names (List.length factor_specs) in
  let factors =
    List.mapi
      (fun i fspec ->
        { Ast.name = List.nth names i; indices = indices_of_string fspec })
      factor_specs
  in
  let out_indices = indices_of_string rhs in
  let stmt =
    {
      Ast.lhs = { Ast.name = output; indices = out_indices };
      sum_indices = [];  (* inferred per the Einstein convention *)
      factors;
      accumulate = false;
    }
  in
  { Ast.extents; stmts = [ stmt ] }

(* Render back to the DSL text of Figure 2(a). *)
let to_dsl ?output ?names ?extents spec = Ast.to_string (parse ?output ?names ?extents spec)
