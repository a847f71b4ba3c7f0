(* Performance trend bench: times the full table sweep at -j 1 vs -j N,
   checks that the parallel profiles are byte-identical to the
   sequential ones, measures raw executor throughput per engine over a
   representative workload set, and writes the results to
   BENCH_pipeline.json so future PRs have a machine-readable perf
   trajectory. *)

open Hbbp_core
module U = Bench_util

let now = Unix.gettimeofday

(* Byte-identity of everything the tables/figures consume. *)
let profiles_equal (a : Pipeline.profile) (b : Pipeline.profile) =
  compare a.stats b.stats = 0
  && a.clean_cycles = b.clean_cycles
  && compare a.reference.counts b.reference.counts = 0
  && compare a.ebs.Hbbp_analyzer.Ebs_estimator.bbec.counts
       b.ebs.Hbbp_analyzer.Ebs_estimator.bbec.counts
     = 0
  && compare a.lbr.Hbbp_analyzer.Lbr_estimator.bbec.counts
       b.lbr.Hbbp_analyzer.Lbr_estimator.bbec.counts
     = 0
  && compare a.hbbp.counts b.hbbp.counts = 0
  && compare a.reference_mix b.reference_mix = 0
  && compare a.pmu_counts b.pmu_counts = 0
  && compare a.sde_total b.sde_total = 0
  && a.sde_lost_kernel = b.sde_lost_kernel
  && compare a.collection_overhead b.collection_overhead = 0
  && compare a.sde_slowdown b.sde_slowdown = 0
  && compare a.records b.records = 0

let sweep ~jobs entries =
  let t0 = now () in
  let profiles =
    Hbbp_util.Domain_pool.run ~jobs
      (fun ((config, w) : Pipeline.config * Workload.t) ->
        Pipeline.run ~config w)
      entries
  in
  (profiles, now () -. t0)

(* Raw Machine.run bench set: one workload per executor stress axis, so
   engine wins can't be overfit to a single code shape. *)
let machine_workloads () =
  [
    ("mcf", "short blocks, pointer-chasing integer code");
    ("test40", "branch-heavy scientific loop nest");
    ("hello", "syscall-heavy user/kernel ping-pong");
    ("fitter-sse", "SSE vector arithmetic");
  ]
  |> List.map (fun (name, axis) -> (Hbbp_workloads.Registry.find name, axis))

type engine_run = {
  er_workload : string;
  er_engine : string;
  er_retired : int;
  er_seconds : float;
}

(* Raw Machine.run throughput (no observers) per engine; best of three.
   Also cross-checks that every engine returns identical run stats —
   the cheap always-on slice of the differential suite. *)
let machine_throughput () =
  let runs = ref [] in
  List.iter
    (fun ((w : Workload.t), _axis) ->
      let reference = ref None in
      List.iter
        (fun engine ->
          let best = ref infinity and stats = ref None in
          for _ = 1 to 3 do
            let machine =
              Hbbp_cpu.Machine.create ~process:w.Workload.live_process ~engine
                ()
            in
            let t0 = now () in
            let s = Hbbp_cpu.Machine.run machine ~entry:w.Workload.entry () in
            let dt = now () -. t0 in
            if dt < !best then best := dt;
            stats := Some s
          done;
          let s = Option.get !stats in
          (match !reference with
          | None -> reference := Some s
          | Some r ->
              if compare r s <> 0 then
                failwith
                  (Printf.sprintf
                     "BENCH pipeline: %s engine diverges from legacy on %s"
                     (Hbbp_cpu.Machine.engine_name engine) w.Workload.name));
          runs :=
            {
              er_workload = w.Workload.name;
              er_engine = Hbbp_cpu.Machine.engine_name engine;
              er_retired = s.Hbbp_cpu.Machine.retired;
              er_seconds = !best;
            }
            :: !runs)
        Hbbp_cpu.Machine.all_engines)
    (machine_workloads ());
  List.rev !runs

let rate (r : engine_run) = float_of_int r.er_retired /. r.er_seconds

(* The production observer set — SDE, the sampling session PMU and the
   counting PMU — as [Pipeline.run] attaches it. *)
let attach_pipeline_observers machine (w : Workload.t) =
  let module A = Hbbp_analyzer in
  let module C = Hbbp_collector in
  let config = Pipeline.default_config in
  let static = A.Static.create_exn w.Workload.analysis_process in
  let maps =
    List.filter_map
      (fun (img : Hbbp_program.Image.t) ->
        if Hbbp_program.Ring.equal img.ring Hbbp_program.Ring.User then
          A.Static.map_of_image static img.name
        else None)
      (Hbbp_program.Process.images w.Workload.analysis_process)
  in
  let session =
    C.Session.configure config.model
      (C.Period.simulation w.Workload.runtime_class)
  in
  let counting =
    Hbbp_cpu.Pmu.create config.model
      (List.map
         (fun event -> { Hbbp_cpu.Pmu.event; mode = Hbbp_cpu.Pmu.Counting })
         config.count_events)
  in
  List.iter
    (Hbbp_cpu.Machine.add_observer machine)
    [
      Hbbp_instrument.Sde.observer
        (Hbbp_instrument.Sde.create config.sde maps);
      Hbbp_cpu.Pmu.observer (C.Session.pmu session);
      Hbbp_cpu.Pmu.observer counting;
    ]

(* Superblock throughput bare vs armed with the production observer
   set, per workload, best of three with the two interleaved (each after
   a full major GC) so host noise and heap state hit both alike.  The rows are named "bare-superblock" and
   "armed-superblock"; stats must agree, since observers never change
   what retires.  Measured over the whole registry — the set the
   pipeline's headline throughput covers — rather than the machine
   bench set, which is two-thirds hello: its 3.3-instruction blocks are
   the armed path's worst case and would make the aggregate a hello
   number. *)
let armed_throughput () =
  let runs = ref [] in
  List.iter
    (fun name ->
      let w = Hbbp_workloads.Registry.find name in
      let best = [| infinity; infinity |] and stats = [| None; None |] in
      for _ = 1 to 3 do
        Array.iteri
          (fun k armed ->
            let machine =
              Hbbp_cpu.Machine.create ~process:w.Workload.live_process
                ~engine:Hbbp_cpu.Machine.Superblock ()
            in
            if armed then attach_pipeline_observers machine w;
            Gc.full_major ();
            let t0 = now () in
            let s = Hbbp_cpu.Machine.run machine ~entry:w.Workload.entry () in
            let dt = now () -. t0 in
            if dt < best.(k) then best.(k) <- dt;
            stats.(k) <- Some s)
          [| false; true |]
      done;
      if compare stats.(0) stats.(1) <> 0 then
        failwith
          (Printf.sprintf "BENCH: armed run retires a different stream on %s"
             w.Workload.name);
      let retired = (Option.get stats.(0)).Hbbp_cpu.Machine.retired in
      Array.iteri
        (fun k name ->
          runs :=
            { er_workload = w.Workload.name; er_engine = name;
              er_retired = retired; er_seconds = best.(k) }
            :: !runs)
        [| "bare-superblock"; "armed-superblock" |])
    Hbbp_workloads.Registry.names;
  List.rev !runs

(* Aggregate retired/s of one engine across the bench set (total work
   over total time, so long workloads aren't drowned out). *)
let engine_rate runs name =
  let sel = List.filter (fun r -> String.equal r.er_engine name) runs in
  let retired = List.fold_left (fun a r -> a + r.er_retired) 0 sel in
  let seconds = List.fold_left (fun a r -> a +. r.er_seconds) 0.0 sel in
  float_of_int retired /. seconds

let run ppf =
  U.header ppf "Pipeline sweep: -j 1 vs -j N (writes BENCH_pipeline.json)";
  let entries = U.sweep_entries () in
  let recommended = Domain.recommended_domain_count () in
  let requested_jobs = max 2 !U.jobs in
  (* An under-provisioned host cannot demonstrate domain scaling: -j 2
     on a 1-domain machine just measures scheduler thrash.  Measure at
     the parallelism the host can actually deliver and say so, instead
     of publishing an apples-to-oranges slowdown. *)
  let oversubscribed = requested_jobs > recommended in
  let par_jobs = max 1 (min requested_jobs recommended) in
  if oversubscribed then
    Format.fprintf ppf
      "warning: host recommends %d domain%s; measuring parallel sweep at -j \
       %d instead of the requested -j %d@."
      recommended
      (if recommended = 1 then "" else "s")
      par_jobs requested_jobs;
  let seq, seq_s = sweep ~jobs:1 entries in
  let par, par_s = sweep ~jobs:par_jobs entries in
  let identical = List.for_all2 profiles_equal seq par in
  let retired =
    List.fold_left
      (fun acc (p : Pipeline.profile) ->
        acc + p.stats.Hbbp_cpu.Machine.retired)
      0 seq
  in
  let speedup = seq_s /. par_s in
  let machine_runs = machine_throughput () @ armed_throughput () in
  Format.fprintf ppf "%d workloads, %d retired instructions@."
    (List.length entries) retired;
  Format.fprintf ppf "-j 1: %8.2f s  (%.2fM retired/s)@." seq_s
    (float_of_int retired /. seq_s /. 1e6);
  Format.fprintf ppf "-j %d: %8.2f s  (%.2fM retired/s)  speedup %.2fx@."
    par_jobs par_s
    (float_of_int retired /. par_s /. 1e6)
    speedup;
  Format.fprintf ppf "profiles byte-identical across job counts: %b@."
    identical;
  List.iter
    (fun r ->
      Format.fprintf ppf
        "Machine.run %-12s %-10s %9.2fM retired/s  (%d retired, %.4f s)@."
        r.er_workload r.er_engine (rate r /. 1e6) r.er_retired r.er_seconds)
    machine_runs;
  let aggregate_names =
    List.map Hbbp_cpu.Machine.engine_name Hbbp_cpu.Machine.all_engines
  in
  List.iter
    (fun name ->
      Format.fprintf ppf "Machine.run bench-set aggregate %-10s %9.2fM \
                          retired/s@."
        name
        (engine_rate machine_runs name /. 1e6))
    aggregate_names;
  let bare = engine_rate machine_runs "bare-superblock"
  and armed = engine_rate machine_runs "armed-superblock" in
  Format.fprintf ppf
    "Machine.run registry aggregate bare-superblock %.2fM retired/s, \
     armed-superblock %.2fM retired/s (armed/bare %.3f)@."
    (bare /. 1e6) (armed /. 1e6) (armed /. bare);
  if not identical then
    failwith "BENCH pipeline: parallel profiles differ from sequential";

  let machine_json =
    String.concat ",\n"
      (List.map
         (fun r ->
           Printf.sprintf
             {|    { "workload": "%s", "engine": "%s", "retired": %d, "seconds": %.4f, "retired_per_sec": %.0f }|}
             r.er_workload r.er_engine r.er_retired r.er_seconds (rate r))
         machine_runs)
  in
  let aggregate_json =
    String.concat ", "
      (List.map
         (fun name ->
           Printf.sprintf {|"%s": %.0f|} name (engine_rate machine_runs name))
         aggregate_names)
  in
  U.write_out "BENCH_pipeline.json"
    {|{
  %s,
  "oversubscribed": %b,
  "workloads": %d,
  "total_retired": %d,
  "sequential": { "jobs": 1, "seconds": %.3f, "retired_per_sec": %.0f },
  "parallel": { "jobs_requested": %d, "jobs": %d, "seconds": %.3f, "retired_per_sec": %.0f },
  "speedup": %.3f,
  "profiles_identical": %b,
  "machine_run": [
%s
  ],
  "machine_run_retired_per_sec": { %s },
  "armed_vs_bare": { "workloads": "registry", "bare_superblock_retired_per_sec": %.0f, "armed_superblock_retired_per_sec": %.0f, "ratio": %.3f }
}
|}
    (U.json_header ~bench:"pipeline")
    oversubscribed (List.length entries) retired seq_s
    (float_of_int retired /. seq_s)
    requested_jobs par_jobs par_s
    (float_of_int retired /. par_s)
    speedup identical machine_json aggregate_json bare armed (armed /. bare);
  Format.fprintf ppf "wrote BENCH_pipeline.json@.";
  (* The sweep already profiled everything: seed the shared cache so any
     targets after this one in the same run are free. *)
  List.iter2
    (fun ((_, w) : Pipeline.config * Workload.t) p ->
      if not (Hashtbl.mem U.cache w.Workload.name) then
        Hashtbl.replace U.cache w.Workload.name p)
    entries seq
