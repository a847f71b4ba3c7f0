(* Streaming vs batch offline analysis: peak heap and wall time on the
   largest bundled workload (by record volume) at its default sampling
   periods.  Batch loads the whole archive and analyzes the materialized
   record list; streaming chunk-reads the same file(s) through the
   mergeable accumulators.  Each mode runs in a fresh child process so
   [Gc.top_heap_words] is a clean high-water mark (it never shrinks, so
   in-process comparison would measure whichever mode ran first).

   Gates, all but the last measured in this one process:
   - the bytes [Machine.create] allocates for hello (regions are backed
     on first touch, so not the 10 MiB they declare);
   - the minor words [Pipeline.Partial.feed] allocates per record, fed
     in default-sized chunks over every registry archive;
   - the minor words [Perf_data.Stream.next] allocates per record
     decoding those archives from disk;
   - the minor words [Pipeline.Partial.feed_stream] allocates per
     record, decoding those archives from disk straight into a partial
     (the archive fold [Pipeline.analyze_archives] takes);
   - the speedup of [Crc32.update] over a bytewise one-table CRC-32;
   - the bytes [Perf_data.sharded_bytes ~shards:4] allocates per byte
     it encodes, over every registry archive, and the bytes it encodes
     against the same archives' size in format version 2;
   - the stream walks of one partial per registry archive, whose
     LBR-estimator and bias accumulators share one walk table, against
     the distinct (target, src) pairs fed to it, which the bench counts
     from the samples on its own;
   - the top heap of one [Pipeline.run] of hello in a fresh child
     process, which folds samples into its partial as they arrive
     instead of holding the sample and record lists;
   - the top heap of one [Pipeline.collect_archive] of hello in a fresh
     child process, which holds the record list the session stream
     writes but not the PMU samples it was written from.
   The word, byte and walk counts are exact and host-independent; the
   allocation ratio read 1.009-1.012 over repeated runs, far inside its
   gate; the speedup is a same-process ratio.  The bench exits non-zero
   above [max_create_bytes], [max_feed_words_per_record],
   [max_next_words_per_record], [max_fold_words_per_record],
   [max_encode_bytes_per_byte], [max_archive_bytes_ratio],
   [max_run_top_heap_bytes] or [max_collect_top_heap_bytes], below
   [min_crc_speedup], or when a partial walks more streams than it was
   fed distinct pairs.
   Writes BENCH_streaming.json. *)

open Hbbp_core
module Perf_data = Hbbp_collector.Perf_data
module U = Bench_util

let now = Unix.gettimeofday
let word_bytes = Sys.word_size / 8

(* Child-process protocol: the parent re-execs this benchmark binary
   with the role/paths/output file in the environment; the child does
   one measured analysis (of the archives at the paths), profile or
   collection (of the workload named by the one path, role "run" or
   "collect") and writes
   "base_words peak_words records seconds" to the output file. *)
let role_var = "HBBP_BENCH_STREAMING_ROLE"
let paths_var = "HBBP_BENCH_STREAMING_PATHS"
let out_var = "HBBP_BENCH_STREAMING_OUT"

(* [Gc.stat], not [Gc.quick_stat]: the quick counters are refreshed
   only when a major cycle ends, so a child that completes none (a
   streaming analysis that decodes straight into its partial) would
   read a top heap of 0. *)
let child role paths out =
  let base = (Gc.stat ()).Gc.top_heap_words in
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
    | "run" ->
        let w = Hbbp_workloads.Registry.find (List.hd paths) in
        (Pipeline.run w).Pipeline.record_count
    | "collect" ->
        let w = Hbbp_workloads.Registry.find (List.hd paths) in
        List.length (Pipeline.collect_archive w).Perf_data.records
    | _ -> (
        match Pipeline.analyze_archives paths with
        | Ok (_, r) ->
            ignore (Sys.opaque_identity r);
            Pipeline.Partial.record_count r.Pipeline.r_partial
        | Error msg -> failwith ("BENCH streaming: " ^ msg))
  in
  let dt = now () -. t0 in
  let peak = (Gc.stat ()).Gc.top_heap_words in
  Bench_util.write_out out "%d %d %d %.6f\n" base peak records dt;
  exit 0

let max_create_bytes = 1 lsl 20
let max_run_top_heap_bytes = 6 lsl 20

(* Holding hello's 39,390 records tops the heap at ~14 MiB; holding its
   PMU samples as well, ~17 MiB. *)
let max_collect_top_heap_bytes = 16 lsl 20
let max_feed_words_per_record = 64.0

(* A decoded 16-deep sample is ~47 words: the interleaved LBR array
   (33), the sample record (6), its [Sample] box (2) and the chunk
   list's cons cells (3 + 3 for the reversal). *)
let max_next_words_per_record = 52.0

(* Decoding into a partial builds no record: what is left is the
   sample record each accumulator takes (3 words) and, amortized, the
   chunk spans and the reader's scratch arrays. *)
let max_fold_words_per_record = 8.0
let min_crc_speedup = 2.5

(* The registry's 4-shard archives in format version 2, where every LBR
   entry was two 8-byte addresses; version 3 stores them as varint
   deltas. *)
let v2_registry_archive_bytes = 50_080_747
let max_archive_bytes_ratio = 0.45

(* An encoded shard is one allocation of its exact size (plus its
   header word); the rest is the list of shards and each shard's
   record. *)
let max_encode_bytes_per_byte = 1.25

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

type walk_count = {
  streams : int;  (** Adjacent (target, src) pairs fed, repeats included. *)
  distinct : int;  (** Distinct pairs among them. *)
  walks : int;  (** [Partial.walks] after feeding them. *)
}

(* One partial per archive, fed its records, and the pairs counted here
   without it: every adjacent pair of an LBR snapshot of two or more
   entries. *)
let walk_counts archives =
  let open Hbbp_analyzer in
  List.map
    (fun (a : Perf_data.t) ->
      let static = Static.create_exn (Perf_data.analysis_process a) in
      let p =
        Pipeline.Partial.create ~static ~ebs_period:a.Perf_data.ebs_period
          ~lbr_period:a.Perf_data.lbr_period ()
      in
      Pipeline.Partial.feed p a.Perf_data.records;
      let pairs = Hashtbl.create 1024 and streams = ref 0 in
      Array.iter
        (fun (s : Sample_db.lbr_sample) ->
          let e = s.Sample_db.entries in
          for k = 1 to Hbbp_cpu.Lbr.entries e - 1 do
            Hashtbl.replace pairs (e.((2 * k) - 1), e.(2 * k)) ();
            incr streams
          done)
        (Sample_db.of_records a.Perf_data.records).Sample_db.lbr;
      {
        streams = !streams;
        distinct = Hashtbl.length pairs;
        walks = Pipeline.Partial.walks p;
      })
    archives

let open_stream path =
  match Perf_data.Stream.open_file path with
  | Ok s -> s
  | Error e ->
      failwith (Format.asprintf "BENCH streaming: %a" Perf_data.pp_error e)

(* Minor words per record, decoding every archive from a file: through
   [Stream.next], and through [Partial.feed_stream] into a partial
   (opening the file, which parses the metadata sections, and creating
   the partial are not counted). *)
let decode_words_per_record archives =
  let path = Filename.temp_file "hbbp-bench-next" ".hbbp" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
  @@ fun () ->
  let next_words = ref 0.0 and fold_words = ref 0.0 and records = ref 0 in
  List.iter
    (fun (a : Perf_data.t) ->
      Perf_data.save a ~path;
      let s = open_stream path in
      let rec go () =
        let w0 = Gc.minor_words () in
        let chunk = Perf_data.Stream.next s in
        next_words := !next_words +. (Gc.minor_words () -. w0);
        match chunk with
        | Some rs ->
            records := !records + List.length rs;
            go ()
        | None -> ()
      in
      go ();
      Perf_data.Stream.close s;
      let static =
        Hbbp_analyzer.Static.create_exn (Perf_data.analysis_process a)
      in
      let p =
        Pipeline.Partial.create ~static ~ebs_period:a.Perf_data.ebs_period
          ~lbr_period:a.Perf_data.lbr_period ()
      in
      let s = open_stream path in
      let w0 = Gc.minor_words () in
      Pipeline.Partial.feed_stream p s;
      fold_words := !fold_words +. (Gc.minor_words () -. w0);
      Perf_data.Stream.close s)
    archives;
  let per_record w = w /. float_of_int !records in
  (per_record !next_words, per_record !fold_words)

(* Bytes allocated by [Perf_data.sharded_bytes ~shards:4] per byte of
   the shards it returns over [archives], and those bytes. *)
let encode_bytes archives =
  let allocated = ref 0.0 and encoded = ref 0 in
  List.iter
    (fun (a : Perf_data.t) ->
      let b0 = Gc.allocated_bytes () in
      let shards = Perf_data.sharded_bytes a ~shards:4 ~path:"bench.hbbp" in
      allocated := !allocated +. (Gc.allocated_bytes () -. b0);
      List.iter (fun (_, b) -> encoded := !encoded + Bytes.length b) shards)
    archives;
  (!allocated /. float_of_int !encoded, !encoded)

(* The bytewise one-table CRC-32 that slicing-by-8 replaced: the
   reference the speedup is measured against. *)
let bytewise_table =
  Array.init 256 (fun n ->
      let c = ref n in
      for _ = 0 to 7 do
        c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
      done;
      !c)

let bytewise_crc data =
  let c = ref 0xFFFFFFFF in
  for k = 0 to Bytes.length data - 1 do
    c :=
      bytewise_table.((!c lxor Bytes.get_uint8 data k) land 0xFF)
      lxor (!c lsr 8)
  done;
  !c lxor 0xFFFFFFFF

(* Median over interleaved rounds (alternating which goes first) of the
   per-round time ratio bytewise / [Crc32.bytes], over 4 MiB of
   pseudo-random bytes; also the sliced throughput in MB/s (median). *)
let crc_speedup () =
  let rounds = 21 in
  let st = Random.State.make [| 20 |] in
  let data =
    Bytes.init (4 lsl 20) (fun _ -> Char.chr (Random.State.int st 256))
  in
  if bytewise_crc data <> Hbbp_util.Crc32.bytes data then
    failwith "BENCH streaming: Crc32 disagrees with the bytewise CRC";
  let samples =
    List.init rounds (fun round ->
        let (bytewise_s, _), (sliced_s, _) =
          U.alternating round
            (fun () -> bytewise_crc data)
            (fun () -> Hbbp_util.Crc32.bytes data)
        in
        (bytewise_s, sliced_s))
  in
  ( U.median (fun (b, s) -> b /. s) samples,
    U.median (fun (_, s) -> float_of_int (Bytes.length data) /. s /. 1e6) samples
  )

(* Bytes allocated by one [Machine.create] of [w]. *)
let create_bytes (w : Workload.t) =
  let b0 = Gc.allocated_bytes () in
  let m = Hbbp_cpu.Machine.create ~process:w.live_process () in
  let allocated = Gc.allocated_bytes () -. b0 in
  ignore (Sys.opaque_identity m);
  int_of_float allocated

type measurement = {
  top_bytes : int;  (** The child's heap high-water mark. *)
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
          {
            top_bytes = peak * word_bytes;
            peak_bytes = (peak - base) * word_bytes;
            m_records = records;
            seconds;
          }))

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
        (path :: Hbbp_collector.Manifest.path_for path :: shard_paths))
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
  (* Of whole-process top heaps: the streaming child's heap barely grows
     past its start-up size, so a ratio of analysis-attributable peaks
     would mostly measure start-up. *)
  let ratio =
    float_of_int batch.top_bytes /. float_of_int streaming.top_bytes
  in
  let hello = Hbbp_workloads.Registry.find "hello" in
  let create = create_bytes hello in
  let run = spawn_child "run" [ hello.name ] in
  let collect = spawn_child "collect" [ hello.name ] in
  let feed_words = feed_words_per_record archives in
  let next_words, fold_words = decode_words_per_record archives in
  let walks = walk_counts archives in
  let encode_bytes, archive_bytes = encode_bytes archives in
  let archive_ratio =
    float_of_int archive_bytes /. float_of_int v2_registry_archive_bytes
  in
  let total =
    List.fold_left
      (fun t w ->
        {
          streams = t.streams + w.streams;
          distinct = t.distinct + w.distinct;
          walks = t.walks + w.walks;
        })
      { streams = 0; distinct = 0; walks = 0 }
      walks
  in
  let over_walked = List.filter (fun w -> w.walks > w.distinct) walks in
  let crc_speedup, crc_mb_s = crc_speedup () in
  Format.fprintf ppf "top-heap ratio batch/streaming: %.2fx@." ratio;
  if batch.m_records <> n_records || streaming.m_records <> n_records then
    failwith "BENCH streaming: modes disagree on record count";
  let mode label m =
    Printf.sprintf
      {|"%s": { "seconds": %.3f, "peak_heap_bytes": %d, "top_heap_bytes": %d, "records_per_sec": %.0f }|}
      label m.seconds m.peak_bytes m.top_bytes
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
  "machine_create_allocated_bytes": %d,
  "run_hello_top_heap_bytes": %d,
  "run_hello_seconds": %.3f,
  "collect_hello_top_heap_bytes": %d,
  "collect_hello_seconds": %.3f,
  "feed_minor_words_per_record": %.3f,
  "next_minor_words_per_record": %.3f,
  "fold_minor_words_per_record": %.3f,
  "encode_allocated_bytes_per_byte": %.3f,
  "registry_archive_bytes": %d,
  "registry_archive_bytes_v2": %d,
  "archive_bytes_ratio_over_v2": %.4f,
  "lbr_streams": %d,
  "distinct_stream_pairs": %d,
  "partial_walks": %d,
  "crc32_speedup_over_bytewise": %.2f,
  "crc32_mb_per_s": %.0f,
  %s,
  %s,
  %s,
  "top_heap_ratio_batch_over_streaming": %.3f
}
|}
    (U.json_header ~bench:"streaming")
    name n_records archive.Perf_data.ebs_period archive.Perf_data.lbr_period
    Perf_data.Stream.default_chunk_records create run.top_bytes run.seconds
    collect.top_bytes collect.seconds
    feed_words next_words fold_words encode_bytes archive_bytes
    v2_registry_archive_bytes archive_ratio total.streams total.distinct
    total.walks crc_speedup
    crc_mb_s (mode "batch" batch)
    (mode "streaming" streaming)
    (mode "sharded" sharded) ratio;
  Format.fprintf ppf "wrote BENCH_streaming.json@.";
  Format.fprintf ppf
    "Machine.create: %d bytes allocated for hello (gate: <= %d)@." create
    max_create_bytes;
  Format.fprintf ppf
    "Pipeline.run hello: %.2f MiB top heap in a fresh process, %d records \
     (gate: <= %.0f MiB)@."
    (float_of_int run.top_bytes /. 1048576.0)
    run.m_records
    (float_of_int max_run_top_heap_bytes /. 1048576.0);
  Format.fprintf ppf
    "Pipeline.collect_archive hello: %.2f MiB top heap in a fresh process, \
     %d records (gate: <= %.0f MiB)@."
    (float_of_int collect.top_bytes /. 1048576.0)
    collect.m_records
    (float_of_int max_collect_top_heap_bytes /. 1048576.0);
  Format.fprintf ppf
    "Partial.feed: %.3f minor words per record over the registry (gate: <= \
     %.0f)@."
    feed_words max_feed_words_per_record;
  Format.fprintf ppf
    "Stream.next: %.3f minor words per record over the registry (gate: <= \
     %.0f)@."
    next_words max_next_words_per_record;
  Format.fprintf ppf
    "Partial.feed_stream: %.3f minor words per record decoding the registry \
     into partials (gate: <= %.0f)@."
    fold_words max_fold_words_per_record;
  Format.fprintf ppf
    "sharded_bytes: %.3f bytes allocated per encoded byte over the registry \
     (gate: <= %.2f)@."
    encode_bytes max_encode_bytes_per_byte;
  Format.fprintf ppf
    "registry archives: %d bytes in 4 shards, %.4fx the %d of format \
     version 2 (gate: <= %.2fx)@."
    archive_bytes archive_ratio v2_registry_archive_bytes
    max_archive_bytes_ratio;
  Format.fprintf ppf
    "Crc32.update: %.2fx the bytewise CRC, %.0f MB/s (gate: >= %.1fx)@."
    crc_speedup crc_mb_s min_crc_speedup;
  Format.fprintf ppf
    "stream walks: %d over %d streams, %d distinct pairs in %d archives \
     (gate: <= distinct, per partial)@."
    total.walks total.streams total.distinct (List.length walks);
  let failures =
    List.filter_map
      (fun (failed, msg) -> if failed then Some msg else None)
      [
        ( create > max_create_bytes,
          Printf.sprintf "Machine.create allocates more than %d bytes"
            max_create_bytes );
        ( run.top_bytes > max_run_top_heap_bytes,
          Printf.sprintf "Pipeline.run hello tops the heap above %d bytes"
            max_run_top_heap_bytes );
        ( collect.top_bytes > max_collect_top_heap_bytes,
          Printf.sprintf
            "Pipeline.collect_archive hello tops the heap above %d bytes"
            max_collect_top_heap_bytes );
        ( feed_words > max_feed_words_per_record,
          Printf.sprintf "Partial.feed allocates more than %.0f words per record"
            max_feed_words_per_record );
        ( next_words > max_next_words_per_record,
          Printf.sprintf "Stream.next allocates more than %.0f words per record"
            max_next_words_per_record );
        ( fold_words > max_fold_words_per_record,
          Printf.sprintf
            "Partial.feed_stream allocates more than %.0f words per record"
            max_fold_words_per_record );
        ( archive_ratio > max_archive_bytes_ratio,
          Printf.sprintf
            "registry archives are more than %.2fx their version-2 size"
            max_archive_bytes_ratio );
        ( encode_bytes > max_encode_bytes_per_byte,
          Printf.sprintf
            "sharded_bytes allocates more than %.2f bytes per encoded byte"
            max_encode_bytes_per_byte );
        ( crc_speedup < min_crc_speedup,
          Printf.sprintf "Crc32.update is less than %.1fx the bytewise CRC"
            min_crc_speedup );
        ( over_walked <> [],
          Printf.sprintf
            "%d partial(s) walked more streams than distinct pairs fed"
            (List.length over_walked) );
      ]
  in
  List.iter (fun msg -> Format.fprintf ppf "FAIL: %s@." msg) failures;
  if failures <> [] then exit 1;
  Format.fprintf ppf "PASS@."
