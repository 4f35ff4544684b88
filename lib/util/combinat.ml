(* Small combinatorics helpers shared by OCTOPI enumeration and the TCR
   search-space construction. *)

let rec remove_one x = function
  | [] -> []
  | y :: rest -> if y = x then rest else y :: remove_one x rest

(* All distinct permutations of a (multi)set; callers keep n small. *)
let rec permutations = function
  | [] -> [ [] ]
  | lst ->
    List.concat_map
      (fun x ->
        let rest = remove_one x lst in
        List.map (fun perm -> x :: perm) (permutations rest))
      (List.sort_uniq compare lst)

(* Cartesian product of a list of domains. *)
let rec cartesian = function
  | [] -> [ [] ]
  | domain :: rest ->
    let tails = cartesian rest in
    List.concat_map (fun x -> List.map (fun tl -> x :: tl) tails) domain
