(* Small filesystem helpers shared by the bench harness and the CLI. *)

let rec mkdir_p path =
  if path = "" || path = "." || path = "/" || Sys.file_exists path then begin
    if Sys.file_exists path && not (Sys.is_directory path) then
      raise (Sys_error (path ^ ": Not a directory"))
  end
  else begin
    mkdir_p (Filename.dirname path);
    (* tolerate a concurrent creation between the check and the mkdir *)
    try Sys.mkdir path 0o755 with Sys_error _ when Sys.is_directory path -> ()
  end

let write_file path contents =
  let dir = Filename.dirname path in
  mkdir_p dir;
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc contents)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))
