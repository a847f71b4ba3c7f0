(* Recovery bench: what the resumable analysis driver costs when its
   crash-safety machinery is idle.  Three variants over the same
   sharded archive set:

     baseline      Pipeline.analyze_archives        (PR-7 streaming path)
     driver        Recover.analyze_archives, checkpoint cadence beyond
                   the archive count — the resumable driver with zero
                   checkpoints actually saved
     checkpointed  Recover.analyze_archives, checkpoint after every
                   archive — the armed cost, reported but not gated

   Each round times all three back to back, alternating whether the
   baseline or the driver goes first, so host drift and heap state hit
   both alike.  An overhead is the median over rounds of the per-round
   ratio to the baseline, minus one.

   CI gate: the idle driver must stay within 1% of the baseline, i.e.
   adding resumability must be free unless you use it.  Writes
   BENCH_recovery.json. *)

open Hbbp_core
module Perf_data = Hbbp_collector.Perf_data
module U = Bench_util

let now = Unix.gettimeofday
let rounds = 101
let shards = 4

let run ppf =
  U.header ppf "Recovery: resumable-driver overhead (writes BENCH_recovery.json)";
  (* Largest bundled workload by record volume, so the driver's fixed
     per-invocation cost (one extra header parse of the first shard) is
     amortized against a realistic analysis, not a toy one. *)
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
  let driver () =
    partial_bytes
      (Recover.analyze_archives ~checkpoint_every:max_int ~checkpoint:ckpt
         paths)
  in
  let checkpointed () =
    partial_bytes
      (Recover.analyze_archives ~checkpoint_every:1 ~checkpoint:ckpt paths)
  in
  let timed f =
    let t0 = now () in
    let r = f () in
    (now () -. t0, r)
  in
  (* Untimed warmup of every variant: the first round otherwise pays
     for page-cache population and major-heap growth on behalf of all
     three, skewing the comparison by far more than the 1% gate. *)
  ignore (baseline (), driver (), checkpointed ());
  let identical = ref true in
  let samples =
    List.init rounds (fun round ->
        let (tb, base), (td, drv) =
          if round mod 2 = 0 then
            let b = timed baseline in
            (b, timed driver)
          else
            let d = timed driver in
            (timed baseline, d)
        in
        let tc, ckpted = timed checkpointed in
        if not (Bytes.equal base drv && Bytes.equal base ckpted) then
          identical := false;
        if Sys.file_exists ckpt then
          failwith "BENCH recovery: checkpoint survived a successful analysis";
        (tb, td, tc))
  in
  List.iter (fun p -> try Sys.remove p with Sys_error _ -> ()) paths;
  (try Sys.remove (Hbbp_collector.Manifest.path_for path) with Sys_error _ -> ());
  let total f = List.fold_left (fun acc x -> acc +. f x) 0.0 samples in
  let baseline_s = total (fun (b, _, _) -> b)
  and driver_s = total (fun (_, d, _) -> d)
  and checkpointed_s = total (fun (_, _, c) -> c) in
  let median_ratio f =
    let rs = List.sort compare (List.map f samples) in
    List.nth rs (rounds / 2)
  in
  let driver_overhead = median_ratio (fun (b, d, _) -> d /. b) -. 1.0 in
  let checkpointed_overhead = median_ratio (fun (b, _, c) -> c /. b) -. 1.0 in
  Format.fprintf ppf
    "archives: %d shards of %s, %d interleaved rounds (overheads: median \
     per-round ratio)@."
    shards archive.Perf_data.workload_name rounds;
  Format.fprintf ppf "baseline (Pipeline.analyze_archives): %8.3f s@."
    baseline_s;
  Format.fprintf ppf "idle resumable driver:                %8.3f s  (%+.2f%%)@."
    driver_s (100.0 *. driver_overhead);
  Format.fprintf ppf "checkpoint every archive:             %8.3f s  (%+.2f%%)@."
    checkpointed_s
    (100.0 *. checkpointed_overhead);
  Format.fprintf ppf "reconstructions byte-identical: %b@." !identical;
  if not !identical then
    failwith "BENCH recovery: resumable driver changed the reconstruction";
  U.write_out "BENCH_recovery.json"
    {|{
  %s,
  "workload": "%s",
  "shards": %d,
  "rounds": %d,
  "baseline_s": %.4f,
  "driver_s": %.4f,
  "checkpointed_s": %.4f,
  "driver_overhead": %.4f,
  "checkpointed_overhead": %.4f,
  "reconstructions_identical": %b
}
|}
    (U.json_header ~bench:"recovery")
    archive.Perf_data.workload_name shards rounds baseline_s driver_s
    checkpointed_s driver_overhead checkpointed_overhead !identical;
  Format.fprintf ppf "wrote BENCH_recovery.json@.";
  (* CI gate: resumability you do not use must be free.  The idle driver
     is the same streaming fold plus a should_stop poll per archive —
     anything beyond 1% is a real regression of the disarmed path. *)
  if driver_overhead > 0.01 then
    failwith
      (Printf.sprintf
         "BENCH recovery: idle resumable-driver overhead %.2f%% exceeds the \
          1%% budget"
         (100.0 *. driver_overhead))
