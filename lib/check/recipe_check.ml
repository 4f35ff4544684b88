(* Layer 2: legality of one search point (a "recipe") for one TCR
   statement, checked before any kernel is lowered or measured.

   The paper's decision algorithm only proposes legal points, so the
   default enumerated space verifies clean - but points also arrive from
   saved artifacts, journals and hand-written recipes, and a single
   reduction index mapped to a thread or block dimension silently computes
   garbage: every thread accumulates a partial sum into the same output
   element. That is the race this layer refuses. *)

open Tcr

(* Sites and messages are formatted only in the branch that makes a
   finding: the tuner's gate runs this on every draw, and a clean point
   should cost only the decisions. *)
let site_of (s : Space.t) = Printf.sprintf "op%d(%s)" (s.op_index + 1) s.op.out

let mapped_slots (p : Space.point) =
  let d = p.decomp in
  let opt slot = function None -> [] | Some i -> [ (slot, i) ] in
  (("tx", d.tx) :: opt "ty" d.ty) @ (("bx", d.bx) :: opt "by" d.by)

(* BAR020/BAR021/BAR022: the decomposition itself. *)
let check_decomposition (s : Space.t) (p : Space.point) =
  let slots = mapped_slots p in
  let unknown =
    List.filter_map
      (fun (slot, i) ->
        if Ir.mem_index i s.indices then None
        else
          Some
            (Diag.error Diag.Recipe ~code:"BAR022" ~site:(site_of s)
               "%s is mapped to index %s, which the statement does not iterate" slot i))
      slots
  in
  let races =
    List.filter_map
      (fun (slot, i) ->
        (* a reduction index: iterated, but not an output index *)
        if Ir.mem_index i s.indices && not (Ir.mem_index i s.op.out_indices) then
          Some
            (Diag.error Diag.Recipe ~code:"BAR020" ~site:(site_of s)
               "reduction index %s is mapped to %s: concurrent threads would race on \
                the accumulation"
               i slot)
        else None)
      slots
  in
  let duplicates =
    let rec dups seen = function
      | [] -> []
      | (slot, i) :: rest ->
        (match Ir.assoc_index i seen with
        | Some prev ->
          [
            Diag.error Diag.Recipe ~code:"BAR021" ~site:(site_of s)
              "index %s is assigned to both %s and %s" i prev slot;
          ]
        | None -> [])
        @ dups ((i, slot) :: seen) rest
    in
    dups [] slots
  in
  unknown @ races @ duplicates

(* BAR023: the block must fit the space's thread budget. *)
let check_threads (s : Space.t) (p : Space.point) =
  let d = p.decomp in
  match
    ( Ir.assoc_index d.tx s.ir.Ir.extents,
      match d.ty with
      | None -> Some 1
      | Some ty -> Ir.assoc_index ty s.ir.Ir.extents )
  with
  | Some ex, Some ey when ex * ey > s.max_threads_per_block ->
    [
      Diag.error Diag.Recipe ~code:"BAR023" ~site:(site_of s)
        "block of %dx%d = %d threads exceeds the %d-thread limit" ex ey (ex * ey)
        s.max_threads_per_block;
    ]
  | _ -> []  (* missing extents are layer-1 BAR010 findings *)

(* BAR024: a non-empty red_order must permute exactly the reduction set. *)
let check_red_order (s : Space.t) (p : Space.point) =
  match p.red_order with
  | [] -> []
  | order ->
    let reductions =
      List.filter (fun i -> not (Ir.mem_index i s.op.out_indices)) s.indices
    in
    if Ir.is_permutation order reductions then []
    else
      [
        Diag.error Diag.Recipe ~code:"BAR024" ~site:(site_of s)
          "reduction order (%s) is not a permutation of the reduction loops (%s)"
          (String.concat "," order)
          (String.concat "," reductions);
      ]

(* BAR025 errors; BAR026/BAR027 lints (skipped with [~lints:false]): unroll
   factors against their loops. *)
let check_unrolls ~lints (s : Space.t) (p : Space.point) =
  List.concat_map
    (fun (loop, u) ->
      if not (Ir.mem_index loop s.indices) then
        [
          Diag.error Diag.Recipe ~code:"BAR022" ~site:(site_of s)
            "unroll names index %s, which the statement does not iterate" loop;
        ]
      else if u < 1 then
        [
          Diag.error Diag.Recipe ~code:"BAR025" ~site:(site_of s)
            "unroll factor %d of loop %s is not positive" u loop;
        ]
      else
        match Ir.assoc_index loop s.ir.Ir.extents with
        | None -> []  (* layer-1 BAR010 *)
        | Some e ->
          if u > e then
            [
              Diag.error Diag.Recipe ~code:"BAR025" ~site:(site_of s)
                "unroll factor %d exceeds the extent %d of loop %s" u e loop;
            ]
          else if not lints then []
          else if Ir.mem_index loop (Space.mapped_indices p.decomp) then
            [
              Diag.warning Diag.Recipe ~code:"BAR026" ~site:(site_of s)
                "loop %s is mapped to the hardware decomposition; its unroll factor \
                 is ignored"
                loop;
            ]
          else if u > 1 && e mod u <> 0 then
            [
              Diag.info Diag.Recipe ~code:"BAR027" ~site:(site_of s)
                "unroll factor %d does not divide the extent %d of loop %s (epilogue \
                 iterations remain)"
                u e loop;
            ]
          else [])
    p.unrolls

let check ?(lints = true) (s : Space.t) (p : Space.point) =
  check_decomposition s p @ check_threads s p @ check_red_order s p
  @ check_unrolls ~lints s p
