(* Hierarchical tracing: begin/end spans with parent linkage, recorded into
   a global sink that is disabled by default, so instrumented code costs one
   atomic load when tracing is off.

   Domain safety follows the Service.Scheduler discipline: every domain
   appends completed spans to its own buffer (domain-local storage, so no
   lock is taken on the span hot path); the buffers are registered once per
   domain under a mutex and merged at export. Parent linkage is a per-domain
   stack - spans opened on a worker domain are roots there, which is exactly
   how the work was actually scheduled. *)

type event = {
  id : int;
  parent : int option;
  name : string;
  cat : string;
  domain : int;
  t0 : float;  (* seconds, Unix epoch *)
  t1 : float;
  attrs : (string * string) list;
}

type span = { span_id : int; mutable extra : (string * string) list; live : bool }

let null_span = { span_id = 0; extra = []; live = false }

(* ---------------- global sink ---------------- *)

let enabled_flag = Atomic.make false
let next_id = Atomic.make 1
let registry_lock = Mutex.create ()

(* Per-domain buffers are capped so a runaway traced loop cannot grow the
   sink without bound; spans past the cap are counted, not recorded. *)
let default_capacity = 65536
let capacity_flag = Atomic.make default_capacity
let dropped_count = Atomic.make 0

(* One completed-span buffer per domain that ever traced; kept after the
   domain dies so its spans survive until export. [count] shadows the
   buffer length so the capacity check is O(1) on the span hot path; it is
   only ever mutated by the owning domain or under [registry_lock] while
   tracing is quiescent (clear). *)
type buffer = { events : event list ref; count : int ref }

let buffers : buffer list ref = ref []

type dstate = { mutable stack : int list; buf : buffer }

let dls : dstate Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      let buf = { events = ref []; count = ref 0 } in
      Mutex.lock registry_lock;
      buffers := buf :: !buffers;
      Mutex.unlock registry_lock;
      { stack = []; buf })

let enabled () = Atomic.get enabled_flag

let capacity () = Atomic.get capacity_flag

let set_capacity n =
  if n < 1 then invalid_arg "Trace.set_capacity: capacity must be >= 1";
  Atomic.set capacity_flag n

let dropped () = Atomic.get dropped_count

let clear () =
  Mutex.lock registry_lock;
  List.iter
    (fun b ->
      b.events := [];
      b.count := 0)
    !buffers;
  Mutex.unlock registry_lock;
  Atomic.set dropped_count 0

let start () =
  clear ();
  Atomic.set enabled_flag true

let stop () = Atomic.set enabled_flag false

let events () =
  Mutex.lock registry_lock;
  let all = List.concat_map (fun b -> !(b.events)) !buffers in
  Mutex.unlock registry_lock;
  List.sort (fun a b -> compare (a.t0, a.id) (b.t0, b.id)) all

(* Append on the owning domain, honouring the capacity cap. *)
let push (buf : buffer) ev =
  if !(buf.count) >= Atomic.get capacity_flag then
    Atomic.incr dropped_count
  else begin
    buf.events := ev :: !(buf.events);
    incr buf.count
  end

(* ---------------- spans ---------------- *)

let add_attrs span kvs = if span.live then span.extra <- span.extra @ kvs

let with_span ?(cat = "") ?attrs name f =
  if not (Atomic.get enabled_flag) then f null_span
  else begin
    let d = Domain.DLS.get dls in
    let id = Atomic.fetch_and_add next_id 1 in
    let parent = match d.stack with [] -> None | p :: _ -> Some p in
    d.stack <- id :: d.stack;
    let span = { span_id = id; extra = []; live = true } in
    let t0 = Unix.gettimeofday () in
    let finish () =
      let t1 = Unix.gettimeofday () in
      (match d.stack with s :: rest when s = id -> d.stack <- rest | _ -> ());
      let attrs =
        (match attrs with None -> [] | Some thunk -> thunk ()) @ span.extra
      in
      push d.buf
        { id; parent; name; cat; domain = (Domain.self () :> int); t0; t1; attrs }
    in
    Fun.protect ~finally:finish (fun () -> f span)
  end

let timed ?cat ?attrs name f =
  let t0 = Unix.gettimeofday () in
  let r = with_span ?cat ?attrs name f in
  (r, Unix.gettimeofday () -. t0)

(* Run [f] with tracing enabled on a fresh sink; return its value and the
   merged events, restoring the previous sink state afterwards. *)
let collect f =
  let was = enabled () in
  start ();
  let finish () =
    stop ();
    if was then Atomic.set enabled_flag true
  in
  let r = Fun.protect ~finally:finish f in
  let evs = events () in
  (r, evs)

(* ---------------- span accounting ---------------- *)

type account = {
  acct_cat : string;
  acct_name : string;
  acct_count : int;
  acct_total_s : float;
  acct_self_s : float;
  acct_child_s : float;
}

let accounts events =
  let dur e = e.t1 -. e.t0 in
  (* child-duration sum per parent id; parent links are same-domain by
     construction, so self = dur - direct children telescopes per tree *)
  let child_sum = Hashtbl.create 64 in
  List.iter
    (fun e ->
      match e.parent with
      | None -> ()
      | Some p ->
        Hashtbl.replace child_sum p
          (dur e +. Option.value ~default:0.0 (Hashtbl.find_opt child_sum p)))
    events;
  let tbl = Hashtbl.create 32 in
  let order = ref [] in
  List.iter
    (fun e ->
      let key = (e.cat, e.name) in
      let d = dur e in
      let c = Option.value ~default:0.0 (Hashtbl.find_opt child_sum e.id) in
      let c = Float.min c d in
      match Hashtbl.find_opt tbl key with
      | Some a ->
        Hashtbl.replace tbl key
          {
            a with
            acct_count = a.acct_count + 1;
            acct_total_s = a.acct_total_s +. d;
            acct_self_s = a.acct_self_s +. (d -. c);
            acct_child_s = a.acct_child_s +. c;
          }
      | None ->
        order := key :: !order;
        Hashtbl.replace tbl key
          {
            acct_cat = e.cat;
            acct_name = e.name;
            acct_count = 1;
            acct_total_s = d;
            acct_self_s = d -. c;
            acct_child_s = c;
          })
    events;
  List.rev_map (fun key -> Hashtbl.find tbl key) !order
  |> List.sort (fun a b ->
         match compare (b.acct_self_s : float) a.acct_self_s with
         | 0 -> compare (a.acct_cat, a.acct_name) (b.acct_cat, b.acct_name)
         | c -> c)
