(* The verifier facade: the three analysis layers composed over whole
   programs, single search points and emitted kernels.

   [space_point] is the unit the tuner's pre-evaluation gate runs: recipe
   legality first (cheap, pure list work), and only when that is clean the
   lowering and the kernel/arch resource analysis. A lowering that raises
   becomes a BAR001 finding instead of a crash, so one malformed point can
   never abort a verification sweep. [choice]/[program] sweep entire
   search spaces and fold the findings into a {!report}. *)

type gate_stats = {
  checked : int;
  rejected : int;
  by_code : (string * int) list;  (* error occurrences per code *)
}

let empty_stats = { checked = 0; rejected = 0; by_code = [] }

type report = {
  variants : int;
  points_checked : int;
  kernels_checked : int;  (* points that survived to layer 3 *)
  truncated : bool;  (* a per-op point cap cut the sweep short *)
  diags : Diag.t list;
}

let empty_report =
  { variants = 0; points_checked = 0; kernels_checked = 0; truncated = false; diags = [] }

let ir = Ir_check.check

(* Did this point's findings stop it before layer 3? *)
let stopped_before_kernel ds =
  List.exists
    (fun (d : Diag.t) ->
      d.severity = Diag.Error && (d.stage = Diag.Recipe || d.code = "BAR001"))
    ds

let space_point ?lints ?(label = "check") ~arch (s : Tcr.Space.t) (p : Tcr.Space.point)
    =
  let rds = Recipe_check.check ?lints s p in
  if Diag.has_errors rds then rds
  else
    let name = label ^ "_GPU_" ^ string_of_int (s.op_index + 1) in
    match Codegen.Kernel.lower ~name s.ir s.op p with
    | k -> rds @ Kernel_check.check ?lints arch k
    | exception e ->
      rds
      @ [
          Diag.error Diag.Kernel ~code:"BAR001" ~site:name "lowering failed: %s"
            (Printexc.to_string e);
        ]

let take n l = List.filteri (fun i _ -> i < n) l

let choice ?lints ?max_points_per_op ?(label = "check") ~arch
    (ps : Tcr.Space.program_space) =
  let base = Ir_check.check ps.ir in
  let truncated = ref false in
  let points = ref 0 and kernels = ref 0 in
  let point_diags =
    List.concat_map
      (fun (s : Tcr.Space.t) ->
        let pts = Tcr.Space.enumerate s in
        let pts =
          match max_points_per_op with
          | Some n when List.length pts > n ->
            truncated := true;
            take n pts
          | _ -> pts
        in
        List.concat_map
          (fun p ->
            incr points;
            let ds = space_point ?lints ~label ~arch s p in
            if not (stopped_before_kernel ds) then incr kernels;
            ds)
          pts)
      ps.op_spaces
  in
  {
    variants = 1;
    points_checked = !points;
    kernels_checked = !kernels;
    truncated = !truncated;
    diags = base @ point_diags;
  }

let merge a b =
  {
    variants = a.variants + b.variants;
    points_checked = a.points_checked + b.points_checked;
    kernels_checked = a.kernels_checked + b.kernels_checked;
    truncated = a.truncated || b.truncated;
    diags = a.diags @ b.diags;
  }

let program ?lints ?max_points_per_op ~arch variants =
  List.fold_left
    (fun acc (label, ps) -> merge acc (choice ?lints ?max_points_per_op ~label ~arch ps))
    empty_report variants

(* One line suitable for the CLI's text mode: the same per-severity
   totals the JSON "summary" block carries. *)
let summary_line (r : report) =
  let e, w, i = Diag.severity_counts r.diags in
  Printf.sprintf "summary: %d error%s, %d warning%s, %d info%s" e
    (if e = 1 then "" else "s")
    w
    (if w = 1 then "" else "s")
    i
    (if i = 1 then "" else "s")

let report_json (r : report) =
  let open Obs.Json in
  let e, w, i = Diag.severity_counts r.diags in
  Obj
    [
      ("variants", Num (float_of_int r.variants));
      ("points_checked", Num (float_of_int r.points_checked));
      ("kernels_checked", Num (float_of_int r.kernels_checked));
      ("truncated", Bool r.truncated);
      ( "summary",
        Obj
          [
            ("errors", Num (float_of_int e));
            ("warnings", Num (float_of_int w));
            ("infos", Num (float_of_int i));
          ] );
      ("errors", Num (float_of_int e));
      ("warnings", Num (float_of_int w));
      ("infos", Num (float_of_int i));
      ( "by_code",
        Obj (List.map (fun (c, n) -> (c, Num (float_of_int n))) (Diag.by_code r.diags))
      );
      ( "diagnostics",
        Arr
          (List.map
             (fun (d, n) ->
               match Diag.to_json d with
               | Obj fields -> Obj (fields @ [ ("count", Num (float_of_int n)) ])
               | j -> j)
             (Diag.dedup r.diags)) );
    ]
