(** Persistent tuning cache keyed by {!Canonical} keys: an in-memory LRU
    front over a directory of versioned {!Autotune.Store} artifacts. Any
    unreadable, version-mismatched or unparsable entry counts as corrupt
    and degrades to a miss (the caller re-tunes and overwrites); the cache
    never raises on bad data it finds on disk. Domain-safe. *)

exception Error of string

type entry = { key : string; saved : Autotune.Store.saved }

type stats = {
  mutable hits : int;  (** memory + disk *)
  mutable disk_loads : int;  (** hits served by promoting a disk entry *)
  mutable misses : int;
  mutable corrupt : int;  (** bad entries degraded to misses *)
  mutable stores : int;
  mutable evictions : int;  (** LRU front only; disk entries persist *)
}

type source = Memory | Disk

type t

(** [create ?dir ?capacity ()]: memory-only when [dir] is absent; the
    directory and its missing parents are created ({!Util.Fs.mkdir_p}, so a
    path under a regular file raises [Sys_error]). [capacity] bounds the
    LRU front (default 128), not the disk. *)
val create : ?dir:string -> ?capacity:int -> unit -> t

(** Snapshot of the counters. *)
val stats : t -> stats

(** Entries currently in the LRU front. *)
val size : t -> int

val find : t -> string -> (entry * source) option

(** Insert/overwrite, write-through to disk when persistent. Disk write
    failures are ignored (the memory front still serves). *)
val store : t -> key:string -> Autotune.Store.saved -> unit

val render_entry : entry -> string

(** Raises {!Error} on malformed text. *)
val parse_entry : string -> entry

type inventory = {
  entries : entry list;
  corrupt_files : (string * string) list;  (** file, reason *)
}

(** Offline scan of a cache directory (the [stats] subcommand). *)
val inventory : dir:string -> inventory
