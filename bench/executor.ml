(* Executor perf gates, each a ratio between two configurations
   measured in the same process on the same workloads — host-independent
   by construction — so CI can fail on an executor regression without
   pinning absolute numbers to a runner:

   - the superblock engine must retire at least [required_ratio] times
     the legacy engine's aggregate rate over the machine bench set;
   - armed with the production observers (SDE, sampling PMU, counting
     PMU), the superblock engine must keep at least
     [required_armed_ratio] of its bare rate over the registry —
     observers consume logged blocks in batches and pay per
     instruction only inside PMI windows.  Batched observers measure
     ~0.70x (one call per block: ~0.49x; per instruction: 0.10x); the
     gate sits at about half that. *)

let required_ratio = 2.0
let required_armed_ratio = 0.35

let run ppf =
  Bench_util.header ppf
    "Executor perf gates: superblock >= 2x legacy, armed >= 0.35x bare";
  let runs = Perf.machine_throughput () @ Perf.armed_throughput () in
  List.iter
    (fun (r : Perf.engine_run) ->
      Format.fprintf ppf "%-12s %-16s %9.2fM retired/s@." r.er_workload
        r.er_engine
        (Perf.rate r /. 1e6))
    runs;
  let legacy = Perf.engine_rate runs "legacy" in
  let block = Perf.engine_rate runs "block" in
  let superblock = Perf.engine_rate runs "superblock" in
  let bare = Perf.engine_rate runs "bare-superblock" in
  let armed = Perf.engine_rate runs "armed-superblock" in
  let ratio = superblock /. legacy in
  let armed_ratio = armed /. bare in
  Format.fprintf ppf
    "aggregate: legacy %.2fM/s, block %.2fM/s, superblock %.2fM/s@."
    (legacy /. 1e6) (block /. 1e6) (superblock /. 1e6);
  Format.fprintf ppf "aggregate: bare-superblock %.2fM/s, armed-superblock \
                      %.2fM/s@."
    (bare /. 1e6) (armed /. 1e6);
  Format.fprintf ppf "superblock/legacy ratio: %.2fx (gate: >= %.2fx)@." ratio
    required_ratio;
  Format.fprintf ppf "armed/bare ratio: %.2fx (gate: >= %.2fx)@." armed_ratio
    required_armed_ratio;
  let failed = ref false in
  if ratio < required_ratio then begin
    Format.fprintf ppf
      "FAIL: superblock engine regressed below %.2fx legacy@." required_ratio;
    failed := true
  end;
  if armed_ratio < required_armed_ratio then begin
    Format.fprintf ppf
      "FAIL: armed superblock runs regressed below %.2fx bare@."
      required_armed_ratio;
    failed := true
  end;
  if !failed then exit 1;
  Format.fprintf ppf "PASS@."
