(* Checkpoint file for a resumable streaming analysis: which archive
   paths have been fully folded in, plus the serialized merged partial
   ({!Pipeline.Partial.serialize}).  Both are written in the
   {!Hbbp_util.Codec} framing: magic, version byte, CRC-guarded
   length-prefixed sections.  Published through Durable, so the file
   on disk is always a complete checkpoint — the previous one or the
   new one. *)

module Durable = Hbbp_durable.Durable
open Hbbp_util.Codec

type t = { done_paths : string list; partial : bytes }

let magic = "HBBPCKPT"
let version = 1

let to_bytes t =
  frame ~magic ~version
    [
      (fun w -> w_list w w_str t.done_paths);
      (fun w -> w_bytes w t.partial);
    ]

let of_bytes data =
  unframe ~magic ~version data @@ fun c ->
  let done_paths = r_section c (fun s -> r_list s r_str) in
  let partial = r_section c r_rest in
  { done_paths; partial }

let save t ~path = Durable.write_bytes ~path (to_bytes t)

let load ~path =
  if not (Sys.file_exists path) then None
  else
    match In_channel.with_open_bin path In_channel.input_all with
    | exception Sys_error e -> Some (Error e)
    | text -> Some (of_bytes (Bytes.of_string text))

let remove ~path = if Sys.file_exists path then Sys.remove path
