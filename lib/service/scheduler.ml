(* Multi-domain work scheduler (OCaml 5 domains): an order-preserving
   parallel map with dynamic load balancing over a shared atomic cursor.

   Determinism: workers race only for *which* item they compute, never for
   where its result lands - slot [i] of the result array is written by
   exactly the one domain that claimed index [i], so for a pure function
   the output list is identical to [List.map] regardless of domain count
   or interleaving. Exceptions are re-raised in item order for the same
   reason. *)

type t = { domains : int }

(* Domains beyond the hardware's parallelism do not just fail to help -
   cross-domain GC coordination makes them actively slower - so requests
   are clamped to [recommended_domain_count] unless [clamp_to_cores] is
   off (tests use that to exercise true multi-domain execution anywhere). *)
let create ?(clamp_to_cores = true) ?domains () =
  let requested =
    match domains with
    | Some d -> max 1 (min d 128)
    | None -> Domain.recommended_domain_count ()
  in
  let domains =
    if clamp_to_cores then min requested (Domain.recommended_domain_count ())
    else requested
  in
  { domains = max 1 domains }

let domains t = t.domains

let map t f xs =
  match xs with
  | [] -> []
  | [ x ] -> [ f x ]
  | _ when t.domains = 1 -> List.map f xs
  | _ ->
    let input = Array.of_list xs in
    let n = Array.length input in
    let results = Array.make n None in
    let next = Atomic.make 0 in
    let worker () =
      let rec loop () =
        let i = Atomic.fetch_and_add next 1 in
        if i < n then begin
          (* disjoint slots: no two domains write the same index *)
          results.(i) <- Some (try Ok (f input.(i)) with e -> Error e);
          loop ()
        end
      in
      loop ()
    in
    let helpers = List.init (min (t.domains - 1) (n - 1)) (fun _ -> Domain.spawn worker) in
    worker ();
    List.iter Domain.join helpers;
    Array.to_list
      (Array.mapi
         (fun i -> function
           | Some (Ok r) -> r
           | Some (Error e) -> raise e
           | None ->
             invalid_arg
               (Printf.sprintf
                  "Scheduler.map: result slot %d of %d was never written; every \
                   index below the cursor must be claimed by exactly one joined \
                   domain"
                  i n))
         results)

(* Run measurement thunks: the shape {!Autotune.Tuner.tune}'s [batch_map]
   expects. *)
let run_thunks t thunks = map t (fun f -> f ()) thunks
