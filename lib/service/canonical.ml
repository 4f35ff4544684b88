(* Canonical form of a contraction program, the cache identity of the
   tuning service: two requests that are the same problem up to index and
   tensor names must share one cache key, because the tuned configuration
   transfers verbatim between them.

   Canonicalization alpha-renames indices and tensors in order of first
   appearance (a statement-order-preserving scan), attaches an explicit
   extent to every used index (declared or the DSL default) and sorts the
   dims line and each Sum index list - all renamings of bound names, never
   reorderings of statements or factors, which can change the generated
   code's access patterns. The key couples the rendered canonical program
   with a fingerprint of the target architecture: tuning results do not
   transfer between devices. *)

type renaming = {
  indices : (string * string) list;  (* original -> canonical, appearance order *)
  tensors : (string * string) list;
}

type t = {
  key : string;  (* hex digest: the cache identity *)
  rendered : string;  (* canonical DSL text (reparsable) *)
  program : Octopi.Ast.program;
  renaming : renaming;
  arch_fingerprint : string;
}

(* Every field of the architecture description participates: the two
   calibration constants and the memory hierarchy all shape the objective
   landscape, so any difference must separate cache entries. The string is
   {!Gpusim.Arch.fingerprint} - the same identity the tuning journal
   records, so cache keys and journaled runs agree on what "same device"
   means. *)
let arch_fingerprint = Gpusim.Arch.fingerprint

(* Apply name substitutions without touching structure; identity for names
   the functions leave alone. *)
let relabel ?(index = fun i -> i) ?(tensor = fun t -> t) (p : Octopi.Ast.program) =
  let ref_ (r : Octopi.Ast.tensor_ref) =
    { Octopi.Ast.name = tensor r.name; indices = List.map index r.indices }
  in
  {
    Octopi.Ast.extents = List.map (fun (i, e) -> (index i, e)) p.extents;
    stmts =
      List.map
        (fun (s : Octopi.Ast.stmt) ->
          {
            Octopi.Ast.lhs = ref_ s.lhs;
            sum_indices = List.map index s.sum_indices;
            factors = List.map ref_ s.factors;
            accumulate = s.accumulate;
          })
        p.stmts;
  }

(* Alpha-rename indices and tensors in first-appearance order, attach an
   explicit extent to every used index, and sort the dims line and the Sum
   lists. Returns the canonical program and the original -> canonical
   renaming. *)
let canonicalize (p : Octopi.Ast.program) =
  let fresh prefix table order name =
    if not (Hashtbl.mem table name) then begin
      Hashtbl.add table name (Printf.sprintf "%s%d" prefix (Hashtbl.length table));
      order := name :: !order
    end
  in
  let imap = Hashtbl.create 16 and iorder = ref [] in
  let tmap = Hashtbl.create 16 and torder = ref [] in
  let see_index = fresh "x" imap iorder in
  let see_tensor = fresh "t" tmap torder in
  List.iter
    (fun (s : Octopi.Ast.stmt) ->
      see_tensor s.lhs.name;
      List.iter see_index s.lhs.indices;
      List.iter
        (fun (f : Octopi.Ast.tensor_ref) ->
          see_tensor f.name;
          List.iter see_index f.indices)
        s.factors;
      (* explicit Sum indices normally appear in factors already; scan them
         last so appearance order is driven by use, not declaration *)
      List.iter see_index s.sum_indices)
    p.stmts;
  let ren table name = match Hashtbl.find_opt table name with Some c -> c | None -> name in
  let extent i =
    match List.assoc_opt i p.extents with
    | Some e -> e
    | None -> Octopi.Contraction.default_extent
  in
  let renamed =
    relabel ~index:(ren imap) ~tensor:(ren tmap)
      { p with extents = [] (* rebuilt below from used indices *) }
  in
  let extents =
    List.rev_map (fun i -> (ren imap i, extent i)) !iorder |> List.sort compare
  in
  let stmts =
    List.map
      (fun (s : Octopi.Ast.stmt) ->
        { s with Octopi.Ast.sum_indices = List.sort compare s.sum_indices })
      renamed.stmts
  in
  let mapping table order =
    List.rev_map (fun name -> (name, Hashtbl.find table name)) !order
  in
  ( { Octopi.Ast.extents; stmts },
    { indices = mapping imap iorder; tensors = mapping tmap torder } )

(* The user's program passes the front end's checks first, so that a
   malformed one is reported in its own names, not the canonical ones. *)
let of_program ~arch (p : Octopi.Ast.program) =
  ignore (Octopi.Contraction.of_program p);
  let program, renaming = canonicalize p in
  let rendered = Octopi.Ast.to_string program in
  let arch_fingerprint = arch_fingerprint arch in
  let key = Digest.to_hex (Digest.string (arch_fingerprint ^ "\x00" ^ rendered)) in
  { key; rendered; program; renaming; arch_fingerprint }

let of_dsl ~arch src = of_program ~arch (Octopi.Parse.program src)

let short t = String.sub t.key 0 12

(* The benchmark the service actually tunes: label derived from the key so
   cached artifacts and live tunes agree by construction. *)
let label t = "svc-" ^ short t
let benchmark t = Autotune.Tuner.benchmark_of_dsl ~label:(label t) t.rendered

(* A message about the canonical program, restated for a request: its
   label for the canonical one, and in each op site, [op1(t0)], the
   user's name for the canonical tensor's. *)
let restate t ~label:request msg =
  let users = List.map (fun (user, canonical) -> (canonical, user)) t.renaming.tensors in
  let site s =
    let j = Option.value ~default:(String.length s) (String.index_opt s ')') in
    let name = String.sub s 0 j in
    Option.value ~default:name (List.assoc_opt name users) ^ String.sub s j (String.length s - j)
  in
  let msg =
    String.concat "(" (List.mapi (fun n s -> if n = 0 then s else site s) (String.split_on_char '(' msg))
  in
  let canonical = label t in
  if not (String.starts_with ~prefix:canonical msg) then msg
  else request ^ String.sub msg (String.length canonical) (String.length msg - String.length canonical)
