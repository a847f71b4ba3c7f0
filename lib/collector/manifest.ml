(* Sidecar manifest of a sharded collection: which shards have been
   published, with the exact size and CRC-32 of each, and whether the
   set is complete.  The manifest is rewritten (atomically, via
   Durable) after every shard, so after a kill -9 at any point the
   manifest names exactly the shards that were durably published.
   `--resume` skips the collection only when the manifest is complete
   and every shard it names verifies; anything less re-collects the
   whole workload and re-publishes the shards whose bytes differ. *)

module Durable = Hbbp_durable.Durable
module Crc32 = Hbbp_util.Crc32

type shard = { index : int; file : string; size : int; crc32 : int }

type t = {
  label : string;
  shards : int;
  written : shard list;  (* ascending index order *)
  complete : bool;
}

let magic_line = "hbbp-manifest v1"

let path_for archive_path = archive_path ^ ".manifest"

let to_string t =
  let b = Buffer.create 256 in
  Buffer.add_string b magic_line;
  Buffer.add_char b '\n';
  Printf.bprintf b "label %s\n" t.label;
  Printf.bprintf b "shards %d\n" t.shards;
  List.iter
    (fun s ->
      (* Basename last: it is the only field that may contain spaces. *)
      Printf.bprintf b "shard %d %d %08x %s\n" s.index s.size s.crc32 s.file)
    t.written;
  if t.complete then Buffer.add_string b "complete\n";
  Buffer.contents b

let of_string text =
  let ( let* ) = Result.bind in
  let lines =
    List.filter
      (fun l -> l <> "")
      (String.split_on_char '\n' text)
  in
  match lines with
  | first :: rest when String.equal first magic_line ->
      let strip_prefix p l =
        if String.starts_with ~prefix:p l then
          Some (String.sub l (String.length p) (String.length l - String.length p))
        else None
      in
      List.fold_left
        (fun acc line ->
          let* t = acc in
          match strip_prefix "label " line with
          | Some label -> Ok { t with label }
          | None -> (
              match strip_prefix "shards " line with
              | Some n -> (
                  match int_of_string_opt n with
                  | Some shards when shards >= 1 -> Ok { t with shards }
                  | _ -> Error (Printf.sprintf "manifest: bad shard count %S" n))
              | None -> (
                  match strip_prefix "shard " line with
                  | Some body -> (
                      match String.split_on_char ' ' body with
                      | index :: size :: crc :: (_ :: _ as file_parts) -> (
                          match
                            ( int_of_string_opt index,
                              int_of_string_opt size,
                              int_of_string_opt ("0x" ^ crc) )
                          with
                          | Some index, Some size, Some crc32 ->
                              Ok
                                {
                                  t with
                                  written =
                                    t.written
                                    @ [
                                        {
                                          index;
                                          file = String.concat " " file_parts;
                                          size;
                                          crc32;
                                        };
                                      ];
                                }
                          | _ ->
                              Error
                                (Printf.sprintf "manifest: bad shard line %S"
                                   line))
                      | _ ->
                          Error
                            (Printf.sprintf "manifest: bad shard line %S" line))
                  | None ->
                      if String.equal line "complete" then
                        Ok { t with complete = true }
                      else Error (Printf.sprintf "manifest: bad line %S" line))))
        (Ok { label = ""; shards = 0; written = []; complete = false })
        rest
  | _ -> Error "manifest: bad magic line"

let save t ~archive_path =
  Durable.write_file ~path:(path_for archive_path) (to_string t)

let load ~archive_path =
  let path = path_for archive_path in
  if not (Sys.file_exists path) then None
  else
    match In_channel.with_open_bin path In_channel.input_all with
    | exception Sys_error e -> Some (Error e)
    | text -> Some (of_string text)

(* A shard entry is trusted only when the named file exists with the
   recorded size and CRC — the archive's own section checksums guard
   parsing, this guards "is it the bytes the manifest promised". *)
let shard_ok ~dir s =
  let path = Filename.concat dir s.file in
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error _ -> false
  | data ->
      String.length data = s.size && Crc32.string data = s.crc32
