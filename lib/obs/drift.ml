let spf = Printf.sprintf

type direction = Up | Down

type alarm = {
  monitor : string;
  at_tick : int;
  direction : direction;
  statistic : float;
  threshold : float;
  observed : float;
  reference : float;
  detail : string;
}

let max_alarms = 64

(* Detector state. All fields are plain mutable scalars (or one bounded
   sketch pair for [Qs]), so a monitor's footprint never grows with the
   stream. *)
type state =
  | Ph of {
      delta : float;
      lambda : float;
      min_count : int;
      mutable n : int;
      mutable mean : float;
      mutable m_up : float;
      mutable min_up : float;
      mutable m_dn : float;
      mutable min_dn : float;
    }
  | Cu of {
      ref_count : int;
      k : float;
      h : float;
      mutable cn : int;
      mutable sum : float;
      mutable sumsq : float;
      mutable ready : bool;
      mutable mu0 : float;
      mutable sigma0 : float;
      mutable s_up : float;
      mutable s_dn : float;
    }
  | Qs of {
      p : float;
      ratio : float;
      window : int;
      ref_windows : int;
      alpha : float;
      mutable reference : Sketch.t option;
      mutable merged : int;
      mutable cur : Sketch.t;
    }

type t = {
  name : string;
  state : state;
  mutable count : int;
  mutable alarms_rev : alarm list;
  mutable n_alarms : int;
  mutable suppressed : int;
}

let mk name state =
  { name; state; count = 0; alarms_rev = []; n_alarms = 0; suppressed = 0 }

let page_hinkley ?(delta = 0.05) ?(lambda = 3.0) ?(min_count = 30) name =
  if delta < 0. || lambda <= 0. || min_count < 1 then
    invalid_arg "Drift.page_hinkley";
  mk name
    (Ph
       {
         delta;
         lambda;
         min_count;
         n = 0;
         mean = 0.;
         m_up = 0.;
         min_up = 0.;
         m_dn = 0.;
         min_dn = 0.;
       })

let cusum ?(ref_count = 500) ?(k = 0.5) ?(h = 15.0) name =
  if ref_count < 2 || k < 0. || h <= 0. then invalid_arg "Drift.cusum";
  mk name
    (Cu
       {
         ref_count;
         k;
         h;
         cn = 0;
         sum = 0.;
         sumsq = 0.;
         ready = false;
         mu0 = 0.;
         sigma0 = 1.;
         s_up = 0.;
         s_dn = 0.;
       })

let quantile_shift ?(p = 99.) ?(ratio = 2.0) ?(window = 250)
    ?(ref_windows = 2) ?(alpha = 0.01) name =
  if p < 0. || p > 100. || ratio <= 1. || window < 1 || ref_windows < 1 then
    invalid_arg "Drift.quantile_shift";
  mk name
    (Qs
       {
         p;
         ratio;
         window;
         ref_windows;
         alpha;
         reference = None;
         merged = 0;
         cur = Sketch.create ~alpha ();
       })

let name t = t.name
let count t = t.count

let kind t =
  match t.state with
  | Ph p ->
      spf "page-hinkley(delta=%g, lambda=%g, min_count=%d)" p.delta p.lambda
        p.min_count
  | Cu c -> spf "cusum(ref=%d, k=%g, h=%g)" c.ref_count c.k c.h
  | Qs q ->
      spf "quantile-shift(p=%g, ratio=%g, window=%d, ref_windows=%d)" q.p
        q.ratio q.window q.ref_windows

let warming_up t =
  match t.state with
  | Ph p -> p.n < p.min_count
  | Cu c -> not c.ready
  | Qs q -> q.merged < q.ref_windows

let direction_name = function Up -> "up" | Down -> "down"

let record t a =
  if t.n_alarms < max_alarms then begin
    t.alarms_rev <- a :: t.alarms_rev;
    t.n_alarms <- t.n_alarms + 1
  end
  else t.suppressed <- t.suppressed + 1;
  Some a

let alarm t ~tick direction ~statistic ~threshold ~observed ~reference =
  let a =
    {
      monitor = t.name;
      at_tick = tick;
      direction;
      statistic;
      threshold;
      observed;
      reference;
      detail =
        spf "%s: %s shift at tick %d (observed %.6g vs reference %.6g, stat \
             %.4g > %.4g)"
          t.name
          (direction_name direction)
          tick observed reference statistic threshold;
    }
  in
  record t a

let reset_ph (p : _) =
  match p with
  | Ph p ->
      p.n <- 0;
      p.mean <- 0.;
      p.m_up <- 0.;
      p.min_up <- 0.;
      p.m_dn <- 0.;
      p.min_dn <- 0.
  | _ -> assert false

let observe t ~tick x =
  t.count <- t.count + 1;
  match t.state with
  | Ph p as st ->
      p.n <- p.n + 1;
      p.mean <- p.mean +. ((x -. p.mean) /. float_of_int p.n);
      p.m_up <- p.m_up +. (x -. p.mean -. p.delta);
      if p.m_up < p.min_up then p.min_up <- p.m_up;
      p.m_dn <- p.m_dn +. (p.mean -. x -. p.delta);
      if p.m_dn < p.min_dn then p.min_dn <- p.m_dn;
      let up = p.m_up -. p.min_up and dn = p.m_dn -. p.min_dn in
      if p.n >= p.min_count && (up > p.lambda || dn > p.lambda) then begin
        let dir = if up > p.lambda then Up else Down in
        let stat = if dir = Up then up else dn in
        let reference = p.mean in
        reset_ph st;
        alarm t ~tick dir ~statistic:stat ~threshold:p.lambda ~observed:x
          ~reference
      end
      else None
  | Cu c ->
      if not c.ready then begin
        c.cn <- c.cn + 1;
        c.sum <- c.sum +. x;
        c.sumsq <- c.sumsq +. (x *. x);
        if c.cn >= c.ref_count then begin
          let mu = c.sum /. float_of_int c.cn in
          let var =
            Float.max 0. ((c.sumsq /. float_of_int c.cn) -. (mu *. mu))
          in
          c.mu0 <- mu;
          c.sigma0 <- Float.max (sqrt var) 1e-12;
          c.s_up <- 0.;
          c.s_dn <- 0.;
          c.ready <- true
        end;
        None
      end
      else begin
        let z = (x -. c.mu0) /. c.sigma0 in
        c.s_up <- Float.max 0. (c.s_up +. z -. c.k);
        c.s_dn <- Float.max 0. (c.s_dn -. z -. c.k);
        if c.s_up > c.h || c.s_dn > c.h then begin
          let dir = if c.s_up > c.h then Up else Down in
          let stat = if dir = Up then c.s_up else c.s_dn in
          let reference = c.mu0 in
          (* fresh calibration phase *)
          c.cn <- 0;
          c.sum <- 0.;
          c.sumsq <- 0.;
          c.ready <- false;
          c.s_up <- 0.;
          c.s_dn <- 0.;
          alarm t ~tick dir ~statistic:stat ~threshold:c.h ~observed:x
            ~reference
        end
        else None
      end
  | Qs q ->
      Sketch.add q.cur x;
      if Sketch.count q.cur < q.window then None
      else if q.merged < q.ref_windows then begin
        (* still building the frozen reference *)
        q.reference <-
          (match q.reference with
          | None -> Some (Sketch.copy q.cur)
          | Some r -> Some (Sketch.merge r q.cur));
        q.merged <- q.merged + 1;
        q.cur <- Sketch.create ~alpha:q.alpha ();
        None
      end
      else begin
        let r = match q.reference with Some r -> r | None -> assert false in
        let q_ref = Sketch.quantile r q.p in
        let q_cur = Sketch.quantile q.cur q.p in
        let gamma = (1. +. q.alpha) /. (1. -. q.alpha) in
        let thr = q.ratio *. gamma *. gamma in
        let fire dir =
          q.reference <- None;
          q.merged <- 0;
          q.cur <- Sketch.create ~alpha:q.alpha ();
          alarm t ~tick dir
            ~statistic:(if dir = Up then q_cur /. q_ref else q_ref /. q_cur)
            ~threshold:thr ~observed:q_cur ~reference:q_ref
        in
        if q_cur > thr *. q_ref then fire Up
        else if q_cur *. thr < q_ref then fire Down
        else begin
          q.cur <- Sketch.create ~alpha:q.alpha ();
          None
        end
      end

let alarms t = List.rev t.alarms_rev
let suppressed t = t.suppressed

(* ------------------------------------------------------------------ *)
(* Registry *)

type registry = { mutable mons : t list (* insertion order *) }

let create_registry () = { mons = [] }

let register r m =
  if List.exists (fun m' -> m'.name = m.name) r.mons then
    invalid_arg (spf "Drift.register: duplicate monitor %S" m.name);
  r.mons <- r.mons @ [ m ]

let monitors r = r.mons
let find r n = List.find_opt (fun m -> m.name = n) r.mons

let feed r n ~tick v =
  match find r n with None -> None | Some m -> observe m ~tick v

let all_alarms r =
  List.concat_map alarms r.mons
  |> List.stable_sort (fun a b ->
         match compare a.at_tick b.at_tick with
         | 0 -> compare a.monitor b.monitor
         | c -> c)

let render r =
  let b = Buffer.create 256 in
  Buffer.add_string b
    (spf "drift monitors (%d):\n" (List.length r.mons));
  List.iter
    (fun m ->
      Buffer.add_string b
        (spf "  - %-24s %s: %d obs, %d alarm%s%s%s\n" m.name (kind m) m.count
           m.n_alarms
           (if m.n_alarms = 1 then "" else "s")
           (if m.suppressed > 0 then spf " (+%d suppressed)" m.suppressed
            else "")
           (if warming_up m then " [warming up]" else "")))
    r.mons;
  (match all_alarms r with
  | [] -> Buffer.add_string b "  no alarms\n"
  | als -> List.iter (fun a -> Buffer.add_string b (spf "  ! %s\n" a.detail)) als);
  Buffer.contents b
