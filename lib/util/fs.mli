(** Small filesystem helpers shared by the bench harness and the CLI. *)

(** Create [path] and any missing parents, like [mkdir -p]. Existing
    directories are fine; raises [Sys_error] if a component exists and is
    not a directory, as opening a file under it would. *)
val mkdir_p : string -> unit

(** Write [contents] to [path], creating parent directories as needed. *)
val write_file : string -> string -> unit

(** Whole file as a string. *)
val read_file : string -> string
