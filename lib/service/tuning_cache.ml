(* Persistent tuning cache: versioned entries keyed by canonical form,
   layered as an in-memory LRU front over a directory of artifact files
   (one per key, written via temp-file + rename). Layered over
   Autotune.Store: the value of an entry IS a Store artifact, so anything
   restorable from a saved tuning is restorable from a cache hit.

   Corruption tolerance is a service requirement, not a nicety: a cache
   that crashes the tuner on a truncated file is worse than no cache. Any
   unreadable, version-mismatched or unparsable entry counts as [corrupt]
   and degrades to a miss - the caller re-tunes and overwrites it. *)

exception Error of string

let err fmt = Printf.ksprintf (fun s -> raise (Error s)) fmt

let entry_version = "barracuda-service-cache v1"

type entry = { key : string; saved : Autotune.Store.saved }

type stats = {
  mutable hits : int;  (* memory + disk *)
  mutable disk_loads : int;  (* hits served by promoting a disk entry *)
  mutable misses : int;
  mutable corrupt : int;  (* bad entries degraded to misses *)
  mutable stores : int;
  mutable evictions : int;  (* LRU front only; disk entries persist *)
}

type source = Memory | Disk

type t = {
  dir : string option;
  capacity : int;
  table : (string, entry) Hashtbl.t;
  mutable order : string list;  (* most recently used first *)
  stats : stats;
  lock : Mutex.t;
}

let create ?dir ?(capacity = 128) () =
  Option.iter Util.Fs.mkdir_p dir;
  {
    dir;
    capacity = max 1 capacity;
    table = Hashtbl.create 64;
    order = [];
    stats = { hits = 0; disk_loads = 0; misses = 0; corrupt = 0; stores = 0; evictions = 0 };
    lock = Mutex.create ();
  }

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let stats t =
  locked t (fun () -> { t.stats with hits = t.stats.hits (* copy *) })

let size t = locked t (fun () -> Hashtbl.length t.table)

(* ---------------- entry (de)serialization ---------------- *)

let render_entry (e : entry) =
  String.concat "\n"
    [ entry_version; "key: " ^ e.key; "artifact:"; Autotune.Store.render e.saved ]

let parse_entry text =
  match String.split_on_char '\n' text with
  | version :: key_line :: artifact_marker :: rest
    when String.trim version = entry_version ->
    let key =
      match String.trim key_line with
      | s when String.length s > 5 && String.sub s 0 5 = "key: " ->
        String.sub s 5 (String.length s - 5)
      | s -> err "bad key header %S" s
    in
    if String.trim artifact_marker <> "artifact:" then
      err "missing artifact section";
    { key; saved = Autotune.Store.parse (String.concat "\n" rest) }
  | _ -> err "not a %s entry" entry_version

(* ---------------- LRU front ---------------- *)

let touch t key = t.order <- key :: List.filter (( <> ) key) t.order

let insert t (e : entry) =
  if not (Hashtbl.mem t.table e.key) && Hashtbl.length t.table >= t.capacity then begin
    match List.rev t.order with
    | lru :: _ ->
      Hashtbl.remove t.table lru;
      t.order <- List.filter (( <> ) lru) t.order;
      t.stats.evictions <- t.stats.evictions + 1
    | [] -> ()
  end;
  Hashtbl.replace t.table e.key e;
  touch t e.key

(* ---------------- persistence ---------------- *)

let path_of t key =
  match t.dir with None -> None | Some d -> Some (Filename.concat d (key ^ ".tuning"))

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path text =
  let tmp = path ^ ".tmp" in
  let oc = open_out tmp in
  Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () -> output_string oc text);
  Sys.rename tmp path

(* Load one disk entry; [Ok] only for a well-formed entry whose recorded
   key matches its filename-derived key. *)
let load_disk path key =
  match parse_entry (read_file path) with
  | e when e.key = key -> Ok e
  | _ -> Error "key mismatch"
  | exception e -> Error (Printexc.to_string e)

(* ---------------- the cache protocol ---------------- *)

let find t key =
  locked t (fun () ->
      match Hashtbl.find_opt t.table key with
      | Some e ->
        touch t key;
        t.stats.hits <- t.stats.hits + 1;
        Some (e, Memory)
      | None -> (
        match path_of t key with
        | Some path when Sys.file_exists path -> (
          match load_disk path key with
          | Ok e ->
            insert t e;
            t.stats.hits <- t.stats.hits + 1;
            t.stats.disk_loads <- t.stats.disk_loads + 1;
            Some (e, Disk)
          | Error _ ->
            t.stats.corrupt <- t.stats.corrupt + 1;
            t.stats.misses <- t.stats.misses + 1;
            None)
        | _ ->
          t.stats.misses <- t.stats.misses + 1;
          None))

let store t ~key saved =
  let e = { key; saved } in
  locked t (fun () ->
      insert t e;
      t.stats.stores <- t.stats.stores + 1;
      match path_of t key with
      | None -> ()
      | Some path -> ( try write_file path (render_entry e) with Sys_error _ -> ()))

(* ---------------- offline inventory (the `stats` subcommand) ---------------- *)

type inventory = {
  entries : entry list;
  corrupt_files : (string * string) list;  (* file, reason *)
}

let inventory ~dir =
  if not (Sys.file_exists dir && Sys.is_directory dir) then
    { entries = []; corrupt_files = [ (dir, "no such directory") ] }
  else
    Sys.readdir dir |> Array.to_list |> List.sort compare
    |> List.filter (fun f -> Filename.check_suffix f ".tuning")
    |> List.fold_left
         (fun acc file ->
           let key = Filename.chop_suffix file ".tuning" in
           match load_disk (Filename.concat dir file) key with
           | Ok e -> { acc with entries = e :: acc.entries }
           | Error reason ->
             { acc with corrupt_files = (file, reason) :: acc.corrupt_files })
         { entries = []; corrupt_files = [] }
    |> fun inv ->
    { entries = List.rev inv.entries; corrupt_files = List.rev inv.corrupt_files }
