(* Parallel-efficiency attribution for the sharded analysis path.

   The observed problem (ROADMAP): fanning the analysis out over
   domains can be *slower* than running it sequentially.  The doctor
   turns that one number into an attribution: it collects one archive,
   shards it, then replays the shard-stream → merge → finalize path at
   every job count from 1 to N, measuring per run

   - wall clock, split into the parallel stream phase and the serial
     merge+finalize tail (the Amdahl term);
   - per-worker busy/wait from the pool's own accounting, giving
     utilization and busy-time imbalance;
   - per-domain GC activity, bracketed around each task with
     domain-local [Gc.quick_stat] (OCaml gives no GC *time*, so event
     and word counts are the honest attribution unit);
   - task-size statistics from the per-task wall clocks;
   - the top allocation sites by span, from the runtime profiler's
     exclusive [alloc.span.*.words] accounting.

   Every job count must produce the identical reconstruction (the
   pool's determinism contract); the doctor cross-checks that too. *)

open Hbbp_analyzer
open Hbbp_collector
module Pool = Hbbp_util.Domain_pool
module Trace = Hbbp_telemetry.Trace
module Metrics = Hbbp_telemetry.Metrics
module Runtime_profiler = Hbbp_telemetry.Runtime_profiler

let now = Unix.gettimeofday

(* ------------------------------------------------------------------ *)
(* Report types                                                        *)

type domain_gc = {
  dg_domain : int;  (** Runtime domain id ([Domain.self]). *)
  dg_tasks : int;
  dg_busy_s : float;  (** Sum of this domain's task wall clocks. *)
  dg_minor : int;
  dg_major : int;
  dg_allocated_words : float;
}

type jobs_run = {
  jr_jobs : int;
  jr_wall_s : float;
  jr_stream_s : float;
  jr_merge_s : float;
  jr_speedup : float;
  jr_efficiency : float;
  jr_utilization : float;
  jr_imbalance : float;
  jr_task_mean_s : float;
  jr_task_max_s : float;
  jr_domains : domain_gc list;
}

type alloc_site = { site_span : string; site_words : int }

type report = {
  rep_workload : string;
  rep_shards : int;
  rep_records : int;
  rep_runs : jobs_run list;
  rep_consistent : bool;
  rep_degraded : bool;
  rep_sampler : string;
  rep_alloc_sites : alloc_site list;
}

(* ------------------------------------------------------------------ *)
(* Measurement                                                         *)

let allocated_words (s : Gc.stat) =
  s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

(* Stream one shard into a fresh partial.  The static view is shared
   (immutable) so merged partials satisfy [Partial.merge]'s physical
   equality check. *)
let partial_of_shard ~static ~ebs_period ~lbr_period path =
  match Perf_data.Stream.open_file path with
  | Error e ->
      failwith (Format.asprintf "doctor: %s: %a" path Perf_data.pp_error e)
  | Ok s ->
      Fun.protect
        ~finally:(fun () -> Perf_data.Stream.close s)
        (fun () ->
          let p = Pipeline.Partial.create ~static ~ebs_period ~lbr_period () in
          let rec pump () =
            match Perf_data.Stream.next s with
            | Some chunk ->
                Pipeline.Partial.feed p chunk;
                pump ()
            | None -> ()
          in
          pump ();
          Pipeline.Partial.note_faults p (Perf_data.Stream.ledger s);
          p)

(* One full analysis pass at a given job count.  Returns the
   reconstruction plus everything measured on the way. *)
let analyze_at ~static ~ebs_period ~lbr_period ~paths ~jobs =
  Trace.with_span ~cat:"doctor"
    ~args:[ ("jobs", string_of_int jobs) ]
    "analyze"
  @@ fun () ->
  (* Per-task measurements: (domain id, wall s, quick_stat before/after).
     Appended under a lock from whichever domain ran the task. *)
  let task_lock = Mutex.create () in
  let task_log : (int * float * Gc.stat * Gc.stat) list ref = ref [] in
  let t0 = now () in
  let partials, worker_stats =
    Pool.with_pool ~jobs (fun pool ->
        let ps =
          Pool.map pool
            (fun path ->
              let dom = (Domain.self () :> int) in
              let g0 = Gc.quick_stat () in
              let w0 = now () in
              let p = partial_of_shard ~static ~ebs_period ~lbr_period path in
              let w1 = now () in
              let g1 = Gc.quick_stat () in
              Mutex.lock task_lock;
              task_log := (dom, w1 -. w0, g0, g1) :: !task_log;
              Mutex.unlock task_lock;
              p)
            paths
        in
        (ps, Pool.stats pool))
  in
  let t_stream = now () in
  let merged =
    match partials with
    | p :: rest -> List.fold_left Pipeline.Partial.merge p rest
    | [] -> invalid_arg "Doctor: no shards"
  in
  let r = Pipeline.finalize merged in
  let t1 = now () in
  (* Busy-time imbalance over the workers that actually ran tasks: the
     even-partition ideal is 1.0; the serial bottleneck worker shows up
     as max/mean > 1. *)
  let active =
    List.filter
      (fun (s : Pool.worker_stats) -> s.Pool.tasks > 0)
      (Array.to_list worker_stats)
  in
  let busy = List.map (fun (s : Pool.worker_stats) -> s.Pool.busy_s) active in
  let wait = List.map (fun (s : Pool.worker_stats) -> s.Pool.wait_s) active in
  let sum = List.fold_left ( +. ) 0.0 in
  let imbalance =
    match busy with
    | [] -> 1.0
    | _ ->
        let mean = sum busy /. float_of_int (List.length busy) in
        if mean <= 0.0 then 1.0
        else List.fold_left Float.max 0.0 busy /. mean
  in
  let utilization =
    let b = sum busy and w = sum wait in
    if b +. w <= 0.0 then 1.0 else b /. (b +. w)
  in
  let walls = List.map (fun (_, w, _, _) -> w) !task_log in
  let task_mean =
    match walls with
    | [] -> 0.0
    | _ -> sum walls /. float_of_int (List.length walls)
  in
  let task_max = List.fold_left Float.max 0.0 walls in
  (* Aggregate GC deltas by the domain that ran the task. *)
  let by_domain = Hashtbl.create 8 in
  List.iter
    (fun (dom, wall, g0, g1) ->
      let cur =
        match Hashtbl.find_opt by_domain dom with
        | Some c -> c
        | None ->
            {
              dg_domain = dom;
              dg_tasks = 0;
              dg_busy_s = 0.0;
              dg_minor = 0;
              dg_major = 0;
              dg_allocated_words = 0.0;
            }
      in
      Hashtbl.replace by_domain dom
        {
          cur with
          dg_tasks = cur.dg_tasks + 1;
          dg_busy_s = cur.dg_busy_s +. wall;
          dg_minor =
            cur.dg_minor + g1.Gc.minor_collections - g0.Gc.minor_collections;
          dg_major =
            cur.dg_major + g1.Gc.major_collections - g0.Gc.major_collections;
          dg_allocated_words =
            cur.dg_allocated_words +. allocated_words g1
            -. allocated_words g0;
        })
    !task_log;
  let domains =
    List.sort
      (fun a b -> compare a.dg_domain b.dg_domain)
      (Hashtbl.fold (fun _ v acc -> v :: acc) by_domain [])
  in
  ( r,
    {
      jr_jobs = jobs;
      jr_wall_s = t1 -. t0;
      jr_stream_s = t_stream -. t0;
      jr_merge_s = t1 -. t_stream;
      (* Filled in relative to the jobs=1 run afterwards. *)
      jr_speedup = 1.0;
      jr_efficiency = 1.0;
      jr_utilization = utilization;
      jr_imbalance = imbalance;
      jr_task_mean_s = task_mean;
      jr_task_max_s = task_max;
      jr_domains = domains;
    } )

(* Exclusive per-span allocation deltas between two registry
   snapshots. *)
let alloc_sites_between ~before ~after =
  let words_of snap =
    List.filter_map
      (fun (name, v) ->
        match v with
        | Metrics.Counter n
          when String.starts_with ~prefix:"alloc.span." name
               && Filename.check_suffix name ".words" ->
            let span =
              String.sub name 11 (String.length name - 11 - 6)
            in
            Some (span, n)
        | _ -> None)
      snap
  in
  let base = words_of before in
  List.filter_map
    (fun (span, n) ->
      let n0 =
        match List.assoc_opt span base with Some n0 -> n0 | None -> 0
      in
      if n - n0 > 0 then Some { site_span = span; site_words = n - n0 }
      else None)
    (words_of after)
  |> List.sort (fun a b -> compare b.site_words a.site_words)

let default_max_jobs () = min 4 (Domain.recommended_domain_count ())

let run ?max_jobs ?shards ?config (w : Workload.t) =
  let max_jobs =
    match max_jobs with Some n -> max 1 n | None -> default_max_jobs ()
  in
  let shards = match shards with Some n -> max 1 n | None -> 2 * max_jobs in
  Trace.with_span ~cat:"doctor"
    ~args:[ ("workload", w.Workload.name) ]
    "doctor"
  @@ fun () ->
  (* The profiler and registry feed the allocation-site table; remember
     what was already on so the doctor restores rather than tears down
     someone else's observability. *)
  let metrics_were_on = Metrics.enabled () in
  let profiler_was_on = Runtime_profiler.enabled () in
  Metrics.enable ();
  Runtime_profiler.enable ();
  let sampler = Runtime_profiler.arm_sampler () in
  Fun.protect
    ~finally:(fun () ->
      Runtime_profiler.disarm_sampler ();
      if not profiler_was_on then Runtime_profiler.disable ();
      if not metrics_were_on then Metrics.disable ())
  @@ fun () ->
  let archive =
    Trace.with_span ~cat:"doctor" "collect" (fun () ->
        match Pipeline.collect_many ~jobs:1 ?config [ w ] with
        | [ a ] -> a
        | _ -> assert false)
  in
  let base = Filename.temp_file "hbbp-doctor" ".hbbp" in
  let paths = Perf_data.save_sharded archive ~shards ~path:base in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun p -> try Sys.remove p with Sys_error _ -> ())
        (List.sort_uniq compare (base :: paths)))
  @@ fun () ->
  let static = Static.create_exn (Perf_data.analysis_process archive) in
  let ebs_period = archive.Perf_data.ebs_period in
  let lbr_period = archive.Perf_data.lbr_period in
  let before = Metrics.snapshot () in
  let results =
    List.init max_jobs (fun k ->
        analyze_at ~static ~ebs_period ~lbr_period ~paths ~jobs:(k + 1))
  in
  let after = Metrics.snapshot () in
  let t1 =
    match results with (_, jr) :: _ -> jr.jr_wall_s | [] -> assert false
  in
  let runs =
    List.map
      (fun (_, jr) ->
        let j = float_of_int jr.jr_jobs in
        {
          jr with
          jr_speedup = (if jr.jr_wall_s > 0.0 then t1 /. jr.jr_wall_s else 1.0);
          jr_efficiency =
            (if jr.jr_wall_s > 0.0 then t1 /. (j *. jr.jr_wall_s) else 1.0);
        })
      results
  in
  let counts (r : Pipeline.reconstruction) = r.Pipeline.r_hbbp.Bbec.counts in
  let consistent =
    match results with
    | (r0, _) :: rest ->
        List.for_all (fun (r, _) -> compare (counts r0) (counts r) = 0) rest
    | [] -> true
  in
  let degraded =
    match results with
    | (r, _) :: _ -> (
        match r.Pipeline.r_quality with
        | Pipeline.Full -> false
        | Pipeline.Degraded _ -> true)
    | [] -> false
  in
  {
    rep_workload = w.Workload.name;
    rep_shards = shards;
    rep_records = List.length archive.Perf_data.records;
    rep_runs = runs;
    rep_consistent = consistent;
    rep_degraded = degraded;
    rep_sampler = Runtime_profiler.sampler_mode_name sampler;
    rep_alloc_sites = alloc_sites_between ~before ~after;
  }

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)

let escape s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let to_json (r : report) =
  let buf = Buffer.create 1024 in
  let run_json (jr : jobs_run) =
    Printf.sprintf
      "{\"jobs\":%d,\"wall_s\":%.6f,\"stream_s\":%.6f,\"merge_s\":%.6f,\"speedup\":%.4f,\"efficiency\":%.4f,\"utilization\":%.4f,\"imbalance\":%.4f,\"task_mean_s\":%.6f,\"task_max_s\":%.6f,\"domains\":[%s]}"
      jr.jr_jobs jr.jr_wall_s jr.jr_stream_s jr.jr_merge_s jr.jr_speedup
      jr.jr_efficiency jr.jr_utilization jr.jr_imbalance jr.jr_task_mean_s
      jr.jr_task_max_s
      (String.concat ","
         (List.map
            (fun d ->
              Printf.sprintf
                "{\"domain\":%d,\"tasks\":%d,\"busy_s\":%.6f,\"minor_collections\":%d,\"major_collections\":%d,\"allocated_words\":%.0f}"
                d.dg_domain d.dg_tasks d.dg_busy_s d.dg_minor d.dg_major
                d.dg_allocated_words)
            jr.jr_domains))
  in
  Buffer.add_string buf
    (Printf.sprintf
       "{\"workload\":\"%s\",\"shards\":%d,\"records\":%d,\"sampler\":\"%s\",\"consistent\":%b,\"degraded\":%b,\"runs\":[%s],\"alloc_sites\":[%s]}"
       (escape r.rep_workload) r.rep_shards r.rep_records
       (escape r.rep_sampler) r.rep_consistent r.rep_degraded
       (String.concat "," (List.map run_json r.rep_runs))
       (String.concat ","
          (List.map
             (fun s ->
               Printf.sprintf "{\"span\":\"%s\",\"words\":%d}"
                 (escape s.site_span) s.site_words)
             r.rep_alloc_sites)));
  Buffer.contents buf

let pp ppf (r : report) =
  Format.fprintf ppf
    "doctor: workload %s, %d records over %d shard(s); sampler %s@."
    r.rep_workload r.rep_records r.rep_shards r.rep_sampler;
  Format.fprintf ppf "  %4s %9s %9s %9s %8s %11s %12s %10s@." "jobs" "wall s"
    "stream s" "merge s" "speedup" "efficiency" "utilization" "imbalance";
  List.iter
    (fun jr ->
      Format.fprintf ppf "  %4d %9.4f %9.4f %9.4f %8.3f %11.3f %12.3f %10.3f@."
        jr.jr_jobs jr.jr_wall_s jr.jr_stream_s jr.jr_merge_s jr.jr_speedup
        jr.jr_efficiency jr.jr_utilization jr.jr_imbalance)
    r.rep_runs;
  (match
     List.find_opt (fun jr -> jr.jr_jobs = List.length r.rep_runs) r.rep_runs
   with
  | Some last when last.jr_domains <> [] ->
      Format.fprintf ppf "  per-domain GC at -j %d:@." last.jr_jobs;
      List.iter
        (fun d ->
          Format.fprintf ppf
            "    domain %-3d %5d task(s) %8.4fs busy, %6d minor / %4d major \
             collections, %.0f words@."
            d.dg_domain d.dg_tasks d.dg_busy_s d.dg_minor d.dg_major
            d.dg_allocated_words)
        last.jr_domains
  | _ -> ());
  (match r.rep_alloc_sites with
  | [] -> ()
  | sites ->
      Format.fprintf ppf "  top allocation sites by span:@.";
      List.iteri
        (fun k s ->
          if k < 8 then
            Format.fprintf ppf "    %-20s %12d words@." s.site_span
              s.site_words)
        sites);
  Format.fprintf ppf "  reconstruction: %s, %s@."
    (if r.rep_consistent then "identical at every job count"
     else "INCONSISTENT ACROSS JOB COUNTS")
    (if r.rep_degraded then "degraded" else "full quality")
