(* Streaming vs batch offline analysis: peak heap and wall time on the
   largest bundled workload (by record volume) at its default sampling
   periods.  Batch loads the whole archive and analyzes the materialized
   record list; streaming chunk-reads the same file(s) through the
   mergeable accumulators.  Each mode runs in a fresh child process so
   [Gc.top_heap_words] is a clean high-water mark (it never shrinks, so
   in-process comparison would measure whichever mode ran first).

   Gate: the minor words [Pipeline.Partial.feed] allocates per record,
   fed in default-sized chunks over every registry archive.  The count
   is exact and host-independent; the bench exits non-zero above
   [max_feed_words_per_record].  Writes BENCH_streaming.json. *)

open Hbbp_core
module Perf_data = Hbbp_collector.Perf_data
module U = Bench_util

let now = Unix.gettimeofday
let word_bytes = Sys.word_size / 8

(* Child-process protocol: the parent re-execs this benchmark binary
   with the role/paths/output file in the environment; the child does
   one measured analysis and writes "base_words peak_words records
   seconds" to the output file. *)
let role_var = "HBBP_BENCH_STREAMING_ROLE"
let paths_var = "HBBP_BENCH_STREAMING_PATHS"
let out_var = "HBBP_BENCH_STREAMING_OUT"

let child role paths out =
  let base = (Gc.quick_stat ()).Gc.top_heap_words in
  let t0 = now () in
  let records =
    match role with
    | "batch" -> (
        let path = List.hd paths in
        match Perf_data.load ~path with
        | Ok { Perf_data.archive; ledger } ->
            let r = Pipeline.analyze_archive ~ledger archive in
            ignore (Sys.opaque_identity r);
            List.length archive.Perf_data.records
        | Error e ->
            failwith
              (Format.asprintf "BENCH streaming: %s: %a" path
                 Perf_data.pp_error e))
    | _ -> (
        match Pipeline.analyze_archives paths with
        | Ok (_, r) ->
            ignore (Sys.opaque_identity r);
            Pipeline.Partial.record_count r.Pipeline.r_partial
        | Error msg -> failwith ("BENCH streaming: " ^ msg))
  in
  let dt = now () -. t0 in
  let peak = (Gc.quick_stat ()).Gc.top_heap_words in
  Bench_util.write_out out "%d %d %d %.6f\n" base peak records dt;
  exit 0

let max_feed_words_per_record = 64.0

(* [records] cut into chunks of the streaming reader's default size. *)
let rec chunks records =
  let rec take n acc = function
    | r :: rest when n > 0 -> take (n - 1) (r :: acc) rest
    | rest -> (List.rev acc, rest)
  in
  match take Perf_data.Stream.default_chunk_records [] records with
  | [], _ -> []
  | chunk, rest -> chunk :: chunks rest

(* Minor words allocated inside [Partial.feed] per record, summed over
   [archives] (the decoded record lists are built before counting). *)
let feed_words_per_record archives =
  let words = ref 0.0 and records = ref 0 in
  List.iter
    (fun (a : Perf_data.t) ->
      let static =
        Hbbp_analyzer.Static.create_exn (Perf_data.analysis_process a)
      in
      let p =
        Pipeline.Partial.create ~static ~ebs_period:a.Perf_data.ebs_period
          ~lbr_period:a.Perf_data.lbr_period ()
      in
      List.iter
        (fun chunk ->
          let w0 = Gc.minor_words () in
          Pipeline.Partial.feed p chunk;
          words := !words +. (Gc.minor_words () -. w0))
        (chunks a.Perf_data.records);
      records := !records + List.length a.Perf_data.records)
    archives;
  !words /. float_of_int !records

type measurement = {
  peak_bytes : int;  (** Analysis-attributable heap high-water mark. *)
  m_records : int;
  seconds : float;
}

let spawn_child role paths =
  let out = Filename.temp_file "hbbp-bench-streaming" ".txt" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove out with Sys_error _ -> ())
    (fun () ->
      let env =
        Array.append (Unix.environment ())
          [|
            role_var ^ "=" ^ role;
            paths_var ^ "=" ^ String.concat ":" paths;
            out_var ^ "=" ^ out;
          |]
      in
      let prog = Sys.executable_name in
      let pid =
        Unix.create_process_env prog [| prog; "streaming" |] env Unix.stdin
          Unix.stdout Unix.stderr
      in
      (match Unix.waitpid [] pid with
      | _, Unix.WEXITED 0 -> ()
      | _, _ -> failwith ("BENCH streaming: " ^ role ^ " child failed"));
      let ic = open_in out in
      let line = input_line ic in
      close_in ic;
      Scanf.sscanf line "%d %d %d %f" (fun base peak records seconds ->
          { peak_bytes = (peak - base) * word_bytes; m_records = records; seconds }))

let run ppf =
  (match
     ( Sys.getenv_opt role_var,
       Sys.getenv_opt paths_var,
       Sys.getenv_opt out_var )
   with
  | Some role, Some paths, Some out ->
      child role (String.split_on_char ':' paths) out
  | _ -> ());
  U.header ppf "Streaming vs batch analysis (writes BENCH_streaming.json)";
  (* Largest bundled workload by collected record volume, at its default
     (runtime-class) periods. *)
  let names = Hbbp_workloads.Registry.names in
  let archives =
    Pipeline.collect_many ~jobs:!U.jobs
      (List.map Hbbp_workloads.Registry.find names)
  in
  let name, archive =
    List.fold_left2
      (fun ((_, best) as acc) name (a : Perf_data.t) ->
        if
          List.length a.Perf_data.records
          > List.length best.Perf_data.records
        then (name, a)
        else acc)
      (List.hd names, List.hd archives)
      names archives
  in
  let n_records = List.length archive.Perf_data.records in
  Format.fprintf ppf "largest workload: %s (%d records, periods %d/%d)@."
    name n_records archive.Perf_data.ebs_period archive.Perf_data.lbr_period;
  let path = Filename.temp_file "hbbp-bench" ".hbbp" in
  Perf_data.save archive ~path;
  let shard_paths = Perf_data.save_sharded archive ~shards:4 ~path in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun p -> try Sys.remove p with Sys_error _ -> ())
        (path :: shard_paths))
  @@ fun () ->
  let batch = spawn_child "batch" [ path ] in
  let streaming = spawn_child "stream" [ path ] in
  let sharded = spawn_child "stream" shard_paths in
  List.iter
    (fun (label, m) ->
      Format.fprintf ppf
        "%-18s %8.3f s  %8.2f MB peak  %9.0f records/s@." label m.seconds
        (float_of_int m.peak_bytes /. 1e6)
        (float_of_int m.m_records /. m.seconds))
    [ ("batch", batch); ("streaming", streaming); ("4 shards", sharded) ]
  ;
  let ratio =
    float_of_int batch.peak_bytes /. float_of_int streaming.peak_bytes
  in
  let feed_words = feed_words_per_record archives in
  Format.fprintf ppf "peak-heap ratio batch/streaming: %.2fx@." ratio;
  if batch.m_records <> n_records || streaming.m_records <> n_records then
    failwith "BENCH streaming: modes disagree on record count";
  let mode label m =
    Printf.sprintf
      {|"%s": { "seconds": %.3f, "peak_heap_bytes": %d, "records_per_sec": %.0f }|}
      label m.seconds m.peak_bytes
      (float_of_int m.m_records /. m.seconds)
  in
  U.write_out "BENCH_streaming.json"
    {|{
  %s,
  "workload": "%s",
  "records": %d,
  "ebs_period": %d,
  "lbr_period": %d,
  "chunk_records": %d,
  "feed_minor_words_per_record": %.3f,
  %s,
  %s,
  %s,
  "peak_ratio_batch_over_streaming": %.3f
}
|}
    (U.json_header ~bench:"streaming")
    name n_records archive.Perf_data.ebs_period archive.Perf_data.lbr_period
    Perf_data.Stream.default_chunk_records feed_words (mode "batch" batch)
    (mode "streaming" streaming)
    (mode "sharded" sharded) ratio;
  Format.fprintf ppf "wrote BENCH_streaming.json@.";
  Format.fprintf ppf
    "Partial.feed: %.3f minor words per record over the registry (gate: <= \
     %.0f)@."
    feed_words max_feed_words_per_record;
  if feed_words > max_feed_words_per_record then begin
    Format.fprintf ppf "FAIL: Partial.feed allocates more than %.0f words \
      per record@." max_feed_words_per_record;
    exit 1
  end;
  Format.fprintf ppf "PASS@."
