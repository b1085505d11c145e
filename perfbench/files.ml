(* Scratch files of a run: every path stays under the checkout. *)

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error _ -> ()

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let copy_file ~src ~dst =
  let data = In_channel.with_open_bin src In_channel.input_all in
  Out_channel.with_open_bin dst (fun oc -> Out_channel.output_string oc data)

(* A digest of the program's sources, standing in for the commit (the
   benchmark may run outside a git checkout). *)
let source_digest () =
  let rec files path =
    if Sys.file_exists path && Sys.is_directory path then
      List.concat_map
        (fun f -> files (Filename.concat path f))
        (List.sort compare (Array.to_list (Sys.readdir path)))
    else if Filename.check_suffix path ".ml" || Filename.check_suffix path ".mli" then [ path ]
    else []
  in
  Digest.to_hex
    (Digest.string (String.concat "" (List.map (fun f -> f ^ Digest.file f) (files "lib" @ files "bin"))))
