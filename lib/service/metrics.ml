(* Service metrics: named counters and wall-clock timers with
   latency-histogram rendering. Domain-safe behind one mutex (updates are
   tiny; contention is irrelevant next to a tuning evaluation).

   Timers are streaming: each observation updates an Obs.Sketch (quantile
   buckets plus count, total, min/max and Welford moments) and a
   decade-bucket histogram, and is retained raw only up to
   [raw_sample_cap] samples (a ring of the most recent). Summaries are
   therefore exact - computed from the raw samples through Util.Stats -
   while a timer has seen at most [raw_sample_cap] observations, and
   switch to the sketch's moments and quantiles (relative error
   [sketch_alpha]) beyond it. Memory per timer is O(raw_sample_cap +
   sketch buckets), never O(observations). *)

let raw_sample_cap = 1024
let sketch_alpha = 0.01

(* Fixed decade buckets: service latencies span microseconds (cache hits)
   to tens of seconds (cold tunes). *)
let bucket_bounds = [ 1e-4; 1e-3; 1e-2; 0.1; 1.0; 10.0 ]

type timer = {
  ring : float array;  (* the raw_sample_cap most recent samples *)
  sketch : Obs.Sketch.t;  (* every observation ever *)
  decades : int array;  (* one streaming counter per decade bucket *)
}

type t = {
  counters : (string, int ref) Hashtbl.t;
  timers : (string, timer) Hashtbl.t;
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

let new_timer () =
  {
    ring = Array.make raw_sample_cap 0.0;
    sketch = Obs.Sketch.create ~alpha:sketch_alpha ();
    decades = Array.make (List.length bucket_bounds + 1) 0;
  }

(* total observations ever *)
let count tm = Obs.Sketch.count tm.sketch

(* Decade bucket of one sample: [lo, hi) semantics with an unbounded last
   bucket, matching the rendered histogram labels. *)
let decade_index seconds =
  let rec go i = function
    | hi :: rest -> if seconds < hi then i else go (i + 1) rest
    | [] -> i
  in
  go 0 bucket_bounds

let observe t name seconds =
  locked t (fun () ->
      let tm =
        match Hashtbl.find_opt t.timers name with
        | Some tm -> tm
        | None ->
          let tm = new_timer () in
          Hashtbl.add t.timers name tm;
          tm
      in
      tm.ring.(count tm mod raw_sample_cap) <- seconds;
      Obs.Sketch.add tm.sketch seconds;
      let d = tm.decades in
      d.(decade_index seconds) <- d.(decade_index seconds) + 1)

let counter t name =
  locked t (fun () ->
      match Hashtbl.find_opt t.counters name with Some r -> !r | None -> 0)

let counters t =
  locked t (fun () ->
      Hashtbl.fold (fun name r acc -> (name, !r) :: acc) t.counters []
      |> List.sort compare)

(* Retained raw samples, oldest first: everything while n <= cap, the most
   recent cap afterwards. *)
let retained tm =
  let n = count tm in
  if n <= raw_sample_cap then Array.to_list (Array.sub tm.ring 0 n)
  else begin
    let head = n mod raw_sample_cap in
    Array.to_list (Array.sub tm.ring head (raw_sample_cap - head))
    @ Array.to_list (Array.sub tm.ring 0 head)
  end

let observations t name =
  locked t (fun () ->
      match Hashtbl.find_opt t.timers name with Some tm -> retained tm | None -> [])

type timer_summary = {
  count : int;
  total_s : float;
  mean_s : float;
  median_s : float;
  p90_s : float;
  p99_s : float;
  min_s : float;
  max_s : float;
  stddev_s : float;
}

let summarize_timer tm =
  let sk = tm.sketch in
  let n = count tm in
  if n = 0 then
    { count = 0; total_s = 0.0; mean_s = nan; median_s = nan; p90_s = nan;
      p99_s = nan; min_s = nan; max_s = nan; stddev_s = 0.0 }
  else
    let exact = n <= raw_sample_cap in
    (* exact small-n path: identical to summarizing the full history;
       beyond the cap, the sketch's moments and quantiles *)
    let samples = if exact then retained tm else [] in
    let pick stats sketch = if exact then stats samples else sketch in
    {
      count = n;
      total_s = Obs.Sketch.total sk;
      mean_s = pick Util.Stats.mean (Obs.Sketch.mean sk);
      median_s = pick Util.Stats.median (Obs.Sketch.quantile sk 50.0);
      p90_s = pick (Util.Stats.percentile 90.0) (Obs.Sketch.quantile sk 90.0);
      p99_s = pick (Util.Stats.percentile 99.0) (Obs.Sketch.quantile sk 99.0);
      min_s = Obs.Sketch.min_value sk;
      max_s = Obs.Sketch.max_value sk;
      stddev_s = pick Util.Stats.stddev (Obs.Sketch.std sk);
    }

let summaries t =
  locked t (fun () ->
      Hashtbl.fold (fun name tm acc -> (name, summarize_timer tm) :: acc) t.timers []
      |> List.sort compare)

let sketches t =
  locked t (fun () ->
      Hashtbl.fold
        (fun name tm acc -> (name, Obs.Sketch.copy tm.sketch) :: acc)
        t.timers []
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

let histogram t name =
  let counts =
    locked t (fun () ->
        match Hashtbl.find_opt t.timers name with
        | Some tm -> Array.to_list tm.decades
        | None -> List.map (fun _ -> 0) bucket_labels)
  in
  List.combine bucket_labels counts

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
      (fun (name, s) ->
        Buffer.add_string b
          (Printf.sprintf
             "  %-28s n=%-4d total %8.3fs  mean %8.4fs  median %8.4fs  p90 %8.4fs  p99 %8.4fs  max %8.4fs\n"
             name s.count s.total_s s.mean_s s.median_s s.p90_s s.p99_s s.max_s);
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
