(* Resumable collection.

   `collect_sharded` is `collect + save_sharded` with a progressive
   manifest and per-shard byte comparison: a complete verified manifest
   skips the collection entirely; anything less re-collects the whole
   workload and re-publishes only the shards whose bytes differ from
   what is on disk.  Correctness rests on determinism: a collection is
   a pure function of (workload, config), so re-collected shard bytes
   are identical to what the interrupted run would have written. *)

open Hbbp_collector
module Durable = Hbbp_durable.Durable

type shard_status = Reused | Written

(* The manifest is complete, names exactly the shards a fresh
   collection into [path] writes — indices 0 to [shards - 1] in order,
   each under its own file name — and every one verifies on disk. *)
let manifest_complete ~path ~shards m =
  let names_shard i (s : Manifest.shard) =
    s.Manifest.index = i
    && String.equal s.Manifest.file
         (Filename.basename (Perf_data.shard_path path i shards))
    && Manifest.shard_ok ~dir:(Filename.dirname path) s
  in
  m.Manifest.complete && m.Manifest.shards = shards
  && List.length m.Manifest.written = shards
  && List.for_all2 names_shard (List.init shards Fun.id) m.Manifest.written

(* Is [s] already on disk, byte for byte? *)
let on_disk (s : Perf_data.shard) =
  let n = Bytes.length s.Perf_data.data in
  match
    In_channel.with_open_bin s.Perf_data.shard_path (fun ic ->
        In_channel.length ic = Int64.of_int n
        && String.equal (really_input_string ic n)
             (Bytes.unsafe_to_string s.Perf_data.data))
  with
  | exception Sys_error _ -> false
  | same -> same

let collect_sharded ?config ?(resume = false)
    ?(should_stop = fun () -> false) ?(inter_shard_delay_s = 0.0) ~shards
    ~path (w : Workload.t) =
  if shards < 1 then invalid_arg "Recover.collect_sharded: shards < 1";
  let paths =
    List.init shards (fun i -> Perf_data.shard_path path i shards)
  in
  let fast_path =
    if not resume then None
    else
      match Manifest.load ~archive_path:path with
      | Some (Ok m) when manifest_complete ~path ~shards m -> Some m
      | Some (Ok _) | Some (Error _) | None -> None
  in
  match fast_path with
  | Some _ ->
      (* The previous run finished publishing: nothing to redo. *)
      (paths, List.map (fun _ -> Reused) paths)
  | None ->
      if resume then
        (* Interrupted writes may have left staging files behind. *)
        List.iter
          (fun p -> ignore (Durable.remove_stale ~path:p))
          (path :: Manifest.path_for path :: paths);
      let archive = Pipeline.collect_archive ?config w in
      let shard = Perf_data.shard_encoder archive ~shards ~path in
      let written = ref [] in
      let save_manifest ~complete =
        Manifest.save
          {
            Manifest.label = w.Workload.name;
            shards;
            written = List.rev !written;
            complete;
          }
          ~archive_path:path
      in
      let statuses =
        List.init shards (fun i ->
            if should_stop () then begin
              save_manifest ~complete:false;
              raise Pipeline.Interrupted
            end;
            if inter_shard_delay_s > 0.0 && i > 0 then
              Unix.sleepf inter_shard_delay_s;
            let s = shard i in
            let status =
              if resume && on_disk s then Reused
              else begin
                Durable.write_bytes ~path:s.Perf_data.shard_path
                  s.Perf_data.data;
                Written
              end
            in
            written := s.Perf_data.entry :: !written;
            save_manifest ~complete:false;
            status)
      in
      save_manifest ~complete:true;
      (paths, statuses)
