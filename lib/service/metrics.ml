(* Service metrics: named counters and wall-clock timers with
   latency-histogram rendering. Domain-safe behind one mutex (updates are
   tiny; contention is irrelevant next to a tuning evaluation).

   A timer is one Obs.Sketch: quantile buckets plus count, total, min/max
   and Welford moments. Summaries, the decade histogram and the Prometheus
   exposition all read it, so a timer's memory is O(sketch buckets),
   never O(observations). *)

let sketch_alpha = 0.01

(* Fixed decade buckets: service latencies span microseconds (cache hits)
   to tens of seconds (cold tunes). *)
let bucket_bounds = [ 1e-4; 1e-3; 1e-2; 0.1; 1.0; 10.0 ]

type t = {
  counters : (string, int ref) Hashtbl.t;
  timers : (string, Obs.Sketch.t) Hashtbl.t;
  lock : Mutex.t;
}

let create () =
  { counters = Hashtbl.create 16; timers = Hashtbl.create 16; lock = Mutex.create () }

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let incr ?(by = 1) t name =
  locked t (fun () ->
      match Hashtbl.find_opt t.counters name with
      | Some r -> r := !r + by
      | None -> Hashtbl.add t.counters name (ref by))

let observe t name seconds =
  locked t (fun () ->
      let sk =
        match Hashtbl.find_opt t.timers name with
        | Some sk -> sk
        | None ->
          let sk = Obs.Sketch.create ~alpha:sketch_alpha () in
          Hashtbl.add t.timers name sk;
          sk
      in
      Obs.Sketch.add sk seconds)

let counter t name =
  locked t (fun () ->
      match Hashtbl.find_opt t.counters name with Some r -> !r | None -> 0)

let counters t =
  locked t (fun () ->
      Hashtbl.fold (fun name r acc -> (name, !r) :: acc) t.counters []
      |> List.sort compare)

let summaries t =
  locked t (fun () ->
      Hashtbl.fold (fun name sk acc -> (name, Obs.Sketch.summary sk) :: acc) t.timers []
      |> List.sort compare)

let sketches t =
  locked t (fun () ->
      Hashtbl.fold (fun name sk acc -> (name, Obs.Sketch.copy sk) :: acc) t.timers []
      |> List.sort compare)

(* Prometheus text exposition: counters plus native histograms sourced
   from the sketches (O(buckets) per timer, independent of traffic). *)
let prometheus ?prefix t =
  let cs = counters t and sk = sketches t in
  Obs.Export.prometheus_sketches ?prefix ~counters:cs ~sketches:sk ()

let bucket_label lo hi =
  let s v =
    if v < 1e-3 then Printf.sprintf "%.0fus" (v *. 1e6)
    else if v < 1.0 then Printf.sprintf "%.0fms" (v *. 1e3)
    else Printf.sprintf "%.0fs" v
  in
  match (lo, hi) with
  | None, Some h -> "<" ^ s h
  | Some l, Some h -> s l ^ "-" ^ s h
  | Some l, None -> ">=" ^ s l
  | None, None -> "all"

let bucket_labels =
  let edges = (None :: List.map Option.some bucket_bounds) @ [ None ] in
  let rec go = function
    | lo :: (hi :: _ as rest) -> bucket_label lo hi :: go rest
    | _ -> []
  in
  go edges

(* Decade of a value: [lo, hi) semantics with an unbounded last decade,
   matching the rendered labels. *)
let decade_index seconds =
  let rec go i = function
    | hi :: rest -> if seconds < hi then i else go (i + 1) rest
    | [] -> i
  in
  go 0 bucket_bounds

(* The sketch's buckets folded into the decades, each by its upper
   bound. *)
let histogram t name =
  let decades = Array.make (List.length bucket_labels) 0 in
  locked t (fun () ->
      Option.iter
        (fun sk ->
          List.iter
            (fun (upper, n) ->
              let d = decade_index upper in
              decades.(d) <- decades.(d) + n)
            (Obs.Sketch.buckets sk))
        (Hashtbl.find_opt t.timers name));
  List.combine bucket_labels (Array.to_list decades)

let render t =
  let b = Buffer.create 512 in
  let cs = counters t in
  if cs <> [] then begin
    Buffer.add_string b "counters:\n";
    List.iter (fun (name, v) -> Buffer.add_string b (Printf.sprintf "  %-28s %d\n" name v)) cs
  end;
  let ts = summaries t in
  if ts <> [] then begin
    Buffer.add_string b "timers:\n";
    List.iter
      (fun (name, (s : Obs.Sketch.summary)) ->
        Buffer.add_string b
          (Printf.sprintf
             "  %-28s n=%-4d total %8.3fs  mean %8.4fs  median %8.4fs  p90 %8.4fs  p99 %8.4fs  max %8.4fs\n"
             name s.count s.total s.mean s.p50 s.p90 s.p99 s.max);
        let hist =
          histogram t name
          |> List.filter (fun (_, n) -> n > 0)
          |> List.map (fun (l, n) -> Printf.sprintf "%s:%d" l n)
        in
        if hist <> [] then
          Buffer.add_string b
            (Printf.sprintf "  %-28s [%s]\n" "" (String.concat "  " hist)))
      ts
  end;
  Buffer.contents b
