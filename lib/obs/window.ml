(* Ring of sketch buckets over a deterministic logical clock. Slot state
   is reset lazily when a newer epoch first touches it; queries filter by
   epoch range, so a stale slot (clock jumped past it) is simply ignored
   until overwritten. *)

type slot = {
  mutable s_epoch : int;  (* -1 = never used *)
  mutable s_ok : int;
  mutable s_err : int;
  mutable s_sketch : Sketch.t;
}

type t = {
  alpha : float;
  w_width : int;
  ring : slot array;
}

let create ?(alpha = 0.01) ~width ~buckets () =
  if width < 1 then invalid_arg "Window.create: width must be >= 1";
  if buckets < 1 then invalid_arg "Window.create: buckets must be >= 1";
  {
    alpha;
    w_width = width;
    ring =
      Array.init buckets (fun _ ->
          { s_epoch = -1; s_ok = 0; s_err = 0; s_sketch = Sketch.create ~alpha () });
  }

let slot_for t epoch =
  let s = t.ring.(epoch mod Array.length t.ring) in
  if s.s_epoch <> epoch then begin
    (* lazy eviction: this slot last held an older epoch *)
    s.s_epoch <- epoch;
    s.s_ok <- 0;
    s.s_err <- 0;
    s.s_sketch <- Sketch.create ~alpha:t.alpha ()
  end;
  s

let observe t ~now ~ok latency =
  if now < 0 then invalid_arg "Window.observe: negative tick";
  let s = slot_for t (now / t.w_width) in
  if ok then s.s_ok <- s.s_ok + 1 else s.s_err <- s.s_err + 1;
  Sketch.add s.s_sketch latency

type snapshot = {
  snap_now : int;
  epochs : int;
  ticks : int;
  requests : int;
  errors : int;
  error_ratio : float;
  rate : float;
  sketch : Sketch.t;
}

(* Live slots for the epoch range (e_hi - k + 1 .. e_hi], ascending epoch
   order so sketch merges are deterministic. *)
let live t ~now ~last =
  let e_hi = now / t.w_width in
  let e_lo = max 0 (e_hi - last + 1) in
  Array.to_list t.ring
  |> List.filter (fun s -> s.s_epoch >= e_lo && s.s_epoch <= e_hi)
  |> List.sort (fun a b -> compare a.s_epoch b.s_epoch)

let snapshot ?last t ~now =
  let last = match last with Some k -> min k (Array.length t.ring) | None -> Array.length t.ring in
  let slots = live t ~now ~last in
  let requests = List.fold_left (fun acc s -> acc + s.s_ok + s.s_err) 0 slots in
  let errors = List.fold_left (fun acc s -> acc + s.s_err) 0 slots in
  let sketch =
    List.fold_left
      (fun acc s -> Sketch.merge acc s.s_sketch)
      (Sketch.create ~alpha:t.alpha ())
      slots
  in
  let ticks = min (last * t.w_width) (now + 1) in
  {
    snap_now = now;
    epochs = last;
    ticks;
    requests;
    errors;
    error_ratio = (if requests = 0 then 0.0 else float_of_int errors /. float_of_int requests);
    rate = (if ticks = 0 then 0.0 else float_of_int requests /. float_of_int ticks);
    sketch;
  }

let quantile snap p = Sketch.quantile snap.sketch p

type slot_view = {
  epoch : int;
  slot_requests : int;
  slot_errors : int;
  slot_p50 : float;
  slot_p99 : float;
}

let slots t ~now =
  live t ~now ~last:(Array.length t.ring)
  |> List.map (fun s ->
         {
           epoch = s.s_epoch;
           slot_requests = s.s_ok + s.s_err;
           slot_errors = s.s_err;
           slot_p50 = Sketch.quantile s.s_sketch 50.0;
           slot_p99 = Sketch.quantile s.s_sketch 99.0;
         })

(* Eight-level unicode sparkline, scaled to the max of the series; NaN and
   empty series render as spaces. *)
let sparkline values =
  let levels = [| "\xe2\x96\x81"; "\xe2\x96\x82"; "\xe2\x96\x83"; "\xe2\x96\x84";
                  "\xe2\x96\x85"; "\xe2\x96\x86"; "\xe2\x96\x87"; "\xe2\x96\x88" |] in
  let finite = List.filter (fun v -> Float.is_finite v) values in
  let vmax = List.fold_left Float.max 0.0 finite in
  values
  |> List.map (fun v ->
         if not (Float.is_finite v) || vmax <= 0.0 then " "
         else levels.(min 7 (int_of_float (v /. vmax *. 8.0))))
  |> String.concat ""

let ms v = if Float.is_nan v then "-" else Printf.sprintf "%.3f" (v *. 1e3)

let render t ~now =
  let views = slots t ~now in
  let b = Buffer.create 512 in
  Buffer.add_string b
    (Printf.sprintf "window @ tick %d: %d epochs live (width %d ticks)\n" now
       (List.length views) t.w_width);
  Buffer.add_string b
    (Printf.sprintf "  %-12s %8s %6s %10s %10s\n" "ticks" "reqs" "errs" "p50 ms" "p99 ms");
  List.iter
    (fun v ->
      Buffer.add_string b
        (Printf.sprintf "  %-12s %8d %6d %10s %10s\n"
           (Printf.sprintf "%d-%d" (v.epoch * t.w_width) (((v.epoch + 1) * t.w_width) - 1))
           v.slot_requests v.slot_errors (ms v.slot_p50) (ms v.slot_p99)))
    views;
  if views <> [] then
    Buffer.add_string b
      (Printf.sprintf "  p99 trend: %s\n" (sparkline (List.map (fun v -> v.slot_p99) views)));
  Buffer.contents b
