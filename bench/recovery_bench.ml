(* Recovery bench: what checkpointing an analysis costs.  Two variants
   over the same sharded archive set:

     baseline      Pipeline.analyze_archives paths
     checkpointed  Pipeline.analyze_archives ~checkpoint paths — a
                   checkpoint saved after every archive

   Each round times both back to back, alternating which goes first, so
   host drift and heap state hit both alike.  The overhead is the median
   over rounds of the per-round ratio to the baseline, minus one; it is
   reported, not gated.  The bench fails when checkpointing changes the
   reconstruction's bytes, or when a checkpoint survives a successful
   analysis.  Writes BENCH_recovery.json. *)

open Hbbp_core
module Perf_data = Hbbp_collector.Perf_data
module U = Bench_util

let rounds = U.overhead_rounds
let shards = 4

let run ppf =
  U.header ppf
    "Recovery: checkpointed-analysis overhead (writes BENCH_recovery.json)";
  (* Largest bundled workload by record volume, so the per-archive
     checkpoint cost is weighed against a realistic analysis, not a toy
     one. *)
  let names = Hbbp_workloads.Registry.names in
  let archives =
    Pipeline.collect_many ~jobs:!U.jobs
      (List.map Hbbp_workloads.Registry.find names)
  in
  let archive =
    List.fold_left
      (fun (best : Perf_data.t) (a : Perf_data.t) ->
        if List.length a.Perf_data.records > List.length best.Perf_data.records
        then a
        else best)
      (List.hd archives) archives
  in
  let path = Filename.temp_file "hbbp-bench-recovery" ".hbbp" in
  let paths = Perf_data.save_sharded archive ~shards ~path in
  let ckpt = path ^ ".ckpt" in
  let partial_bytes = function
    | Ok ((_ : Perf_data.t), r) ->
        Pipeline.Partial.serialize r.Pipeline.r_partial
    | Error msg -> failwith ("BENCH recovery: " ^ msg)
  in
  let baseline () = partial_bytes (Pipeline.analyze_archives paths) in
  let checkpointed () =
    partial_bytes (Pipeline.analyze_archives ~checkpoint:ckpt paths)
  in
  (* Untimed warmup of both variants: the first round otherwise pays
     for page-cache population and major-heap growth on behalf of
     both, skewing the comparison. *)
  ignore (baseline (), checkpointed ());
  let identical = ref true in
  let samples =
    List.init rounds (fun round ->
        let (tb, base), (tc, ckpted) =
          U.alternating round baseline checkpointed
        in
        if not (Bytes.equal base ckpted) then identical := false;
        if Sys.file_exists ckpt then
          failwith "BENCH recovery: checkpoint survived a successful analysis";
        (tb, tc))
  in
  List.iter
    (fun p -> try Sys.remove p with Sys_error _ -> ())
    (path :: Hbbp_collector.Manifest.path_for path :: paths);
  let total f = List.fold_left (fun acc x -> acc +. f x) 0.0 samples in
  let baseline_s = total fst and checkpointed_s = total snd in
  let checkpointed_overhead = U.median (fun (b, c) -> c /. b) samples -. 1.0 in
  Format.fprintf ppf
    "archives: %d shards of %s, %d interleaved rounds (overhead: median \
     per-round ratio)@."
    shards archive.Perf_data.workload_name rounds;
  Format.fprintf ppf "baseline (Pipeline.analyze_archives): %8.3f s@."
    baseline_s;
  Format.fprintf ppf "checkpoint every archive:             %8.3f s  (%+.2f%%)@."
    checkpointed_s
    (100.0 *. checkpointed_overhead);
  Format.fprintf ppf "reconstructions byte-identical: %b@." !identical;
  if not !identical then
    failwith "BENCH recovery: checkpointing changed the reconstruction";
  U.write_out "BENCH_recovery.json"
    {|{
  %s,
  "workload": "%s",
  "shards": %d,
  "rounds": %d,
  "baseline_s": %.4f,
  "checkpointed_s": %.4f,
  "checkpointed_overhead": %.4f,
  "reconstructions_identical": %b
}
|}
    (U.json_header ~bench:"recovery")
    archive.Perf_data.workload_name shards rounds baseline_s checkpointed_s
    checkpointed_overhead !identical;
  Format.fprintf ppf "wrote BENCH_recovery.json@."
