(* The traced run: each task's pipeline call is repeated through the
   public functions of the layers it is made of, each call wrapped in a
   span of category "bench".  Per-layer self times come from those spans;
   allocation and work counts are taken at the same boundaries.

   A replay returns the digest of what it produced, which must equal the
   production call's, and checks to run after it, outside the replay
   time and every span.  Work that
   is not on the production path (the accumulator split, the observer
   marginal runs, the separate encode) runs outside the "task" span. *)

open Hbbp_core
open Hbbp_analyzer
open Outputs
module Trace = Hbbp_telemetry.Trace
module Machine = Hbbp_cpu.Machine
module Pmu = Hbbp_cpu.Pmu
module Pmu_event = Hbbp_cpu.Pmu_event
module Sde = Hbbp_instrument.Sde
module Session = Hbbp_collector.Session
module Period = Hbbp_collector.Period
module Perf_data = Hbbp_collector.Perf_data
module Record = Hbbp_collector.Record

let alloc_words : (string, float) Hashtbl.t = Hashtbl.create 32
let counts : (string, float) Hashtbl.t = Hashtbl.create 32

let add tbl name v =
  Hashtbl.replace tbl name
    (v +. Option.value ~default:0.0 (Hashtbl.find_opt tbl name))

let count name v = add counts name (float_of_int v)

let words () =
  let s = Gc.quick_stat () in
  s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

let layer name f =
  let w0 = words () in
  let v = Trace.with_span ~cat:"bench" name f in
  add alloc_words name (words () -. w0);
  v

(* Seconds of the last "task" span: the traced production path of the
   last replay. *)
let last_task_s = ref 0.0

let task f =
  let t0 = Unix.gettimeofday () in
  let v = Trace.with_span ~cat:"bench" "task" f in
  last_task_s := Unix.gettimeofday () -. t0;
  v

(* ---- shared pieces -------------------------------------------------- *)

let user_maps static =
  List.filter_map
    (fun (img : Hbbp_program.Image.t) ->
      if Hbbp_program.Ring.equal img.ring Hbbp_program.Ring.User then
        Static.map_of_image static img.name
      else None)
    (Hbbp_program.Process.images (Static.process static))

let machine ~(config : Pipeline.config) (w : Workload.t) observers =
  let m = Machine.create ~process:w.live_process ~engine:config.engine () in
  List.iter (Machine.add_observer m) observers;
  m

let run_machine ~(config : Pipeline.config) (w : Workload.t) name m =
  layer name (fun () ->
      Machine.run m ~entry:w.entry ~max_instructions:config.max_instructions ())

(* A machine run with only [observers] attached, off the production
   path; its stats must match the production run's. *)
let observer_run ~config w name observers =
  run_machine ~config w name (machine ~config w observers)

let counting_pmu (config : Pipeline.config) =
  Pmu.create config.model
    (List.map
       (fun event -> { Pmu.event; mode = Pmu.Counting })
       config.count_events)

(* The three stream accumulators of [Pipeline.Partial], fed separately
   from the same records; finalized, they must reproduce the
   reconstruction's estimates. *)
let accumulators static (r : Pipeline.reconstruction) records =
  let samples event f =
    List.iter
      (function
        | Record.Sample s when Pmu_event.equal s.Record.event event -> f s
        | _ -> ())
      records
  in
  let lbr_sample (s : Record.sample) =
    { Sample_db.entries = s.lbr; ring = s.ring }
  in
  let branch = Pmu_event.Br_inst_retired_near_taken in
  let ebs =
    layer "ebs_estimator.acc" (fun () ->
        let acc = Ebs_estimator.Acc.create static in
        samples Pmu_event.Inst_retired_prec_dist (fun s ->
            Ebs_estimator.Acc.add static acc
              { Sample_db.ip = s.ip; ring = s.ring });
        acc)
  in
  let lbr =
    layer "lbr_estimator.acc" (fun () ->
        let acc = Lbr_estimator.Acc.create static in
        samples branch (fun s ->
            Lbr_estimator.Acc.add static acc (lbr_sample s));
        acc)
  in
  let bias =
    layer "bias.acc" (fun () ->
        let acc = Bias.Acc.create () in
        samples branch (fun s -> Bias.Acc.add static acc (lbr_sample s));
        acc)
  in
  fun () ->
    check
      (Ebs_estimator.finalize static ~period:r.r_ebs.period ebs = r.r_ebs)
      "EBS accumulator differs from the pipeline";
    check
      (Lbr_estimator.finalize static ~period:r.r_lbr.period lbr = r.r_lbr)
      "LBR accumulator differs from the pipeline";
    let replay f = samples branch (fun s -> f (lbr_sample s)) in
    check
      ((Bias.finalize static bias ~replay:(Some replay)).flags
      = r.r_bias.flags)
      "bias accumulator differs from the pipeline"

let reconstruction_counts (r : Pipeline.reconstruction) =
  count "pipeline.records" (Pipeline.Partial.record_count r.r_partial);
  count "ebs.samples" (Array.fold_left ( + ) r.r_ebs.unattributed r.r_ebs.raw);
  count "lbr.snapshots" r.r_lbr.snapshots;
  count "lbr.usable_streams" r.r_lbr.usable_streams;
  count "lbr.streams"
    (r.r_lbr.usable_streams + r.r_lbr.inconsistent_streams
   + r.r_lbr.discarded_streams);
  count "bias.flagged_blocks" (List.length (Bias.flagged_blocks r.r_bias));
  Option.iter
    (fun (rep : Hbbp_verifier.Repair.report) ->
      count "repair.sweeps" rep.iterations;
      count "repair.adjusted_blocks" rep.adjusted_blocks)
    r.r_repair

(* ---- profile-registry: Pipeline.run -------------------------------- *)

let profile ~(config : Pipeline.config) (w : Workload.t) =
  let sim_periods = Period.simulation w.runtime_class in
  let static, stats, records, r, sde, counting, (reference, reference_mix) =
    task (fun () ->
        let static =
          layer "static.create" (fun () ->
              let disk = Static.create_exn w.analysis_process in
              if w.analysis_process == w.live_process then disk
              else Kernel_patch.patch_static disk ~live:w.live_process)
        in
        let m, sde, session, counting =
          layer "machine.create" (fun () ->
              let sde = Sde.create config.sde (user_maps static) in
              let session = Session.configure config.model sim_periods in
              let counting = counting_pmu config in
              let m =
                machine ~config w
                  [
                    Sde.observer sde;
                    Pmu.observer (Session.pmu session);
                    Pmu.observer counting;
                  ]
              in
              (m, sde, session, counting))
        in
        let stats = run_machine ~config w "machine.run_armed" m in
        let records =
          layer "session.records" (fun () ->
              Session.records session w.live_process ~pid:1 ~name:w.name)
        in
        let partial =
          layer "pipeline.partial_feed" (fun () ->
              let p =
                Pipeline.Partial.create ~static
                  ~ebs_period:(Session.ebs_period session)
                  ~lbr_period:(Session.lbr_period session) ()
              in
              Pipeline.Partial.feed p records;
              p)
        in
        let r =
          layer "pipeline.finalize" (fun () ->
              Pipeline.finalize ~criteria:config.criteria
                ~thresholds:config.thresholds ~repair:config.repair
                ~replay:(fun f -> f records)
                partial)
        in
        let reference =
          layer "reference.build" (fun () ->
              ( Bbec.of_block_counts static (Sde.block_counts sde),
                Mix.of_histogram (Sde.histogram sde) ))
        in
        (static, stats, records, r, sde, counting, reference))
  in
  let acc_check = accumulators static r records in
  let side =
    [
      observer_run ~config w "machine.run_bare" [];
      observer_run ~config w "machine.run_sde_only"
        [ Sde.observer (Sde.create config.sde (user_maps static)) ];
      observer_run ~config w "machine.run_sampling"
        [
          Pmu.observer
            (Session.pmu (Session.configure config.model sim_periods));
        ];
      observer_run ~config w "machine.run_counting_only"
        [ Pmu.observer (counting_pmu config) ];
    ]
  in
  count "machine.retired" stats.retired;
  reconstruction_counts r;
  let digest =
    Outputs.profile ~stats ~reference ~reference_mix ~ebs:r.r_ebs ~lbr:r.r_lbr
      ~hbbp:r.r_hbbp ~quality:r.r_quality ~record_count:(List.length records)
      ~sde_total:(Sde.total_instructions sde)
      ~sde_lost_kernel:(Sde.lost_kernel_instructions sde)
      ~pmu_counts:(Pmu.counts counting)
  in
  ( digest,
    fun () ->
      acc_check ();
      List.iter
        (fun s -> check (s = stats) "observer runs retire different streams")
        side )

(* ---- collect-shards: collect_archive + save_sharded ----------------- *)

let collect ~(config : Pipeline.config) (w : Workload.t) ~base =
  let stats, archive, paths =
    task (fun () ->
        let m, session =
          layer "machine.create" (fun () ->
              let session =
                Session.configure config.model
                  (Period.simulation w.runtime_class)
              in
              let sampling = Pmu.observer (Session.pmu session) in
              (machine ~config w [ sampling ], session))
        in
        let stats = run_machine ~config w "machine.run_sampling" m in
        let archive =
          layer "perf_data.of_session" (fun () ->
              Perf_data.of_session ~workload_name:w.name ~session
                ~analysis:w.analysis_process ~live:w.live_process)
        in
        let paths =
          layer "perf_data.save_sharded" (fun () ->
              Perf_data.save_sharded archive ~shards ~path:base)
        in
        (stats, archive, paths))
  in
  (* save_sharded encodes internally; encoding again on its own splits
     its time into encoding and publishing. *)
  let encoded =
    layer "perf_data.encode" (fun () ->
        Perf_data.sharded_bytes archive ~shards ~path:base)
  in
  let bare = observer_run ~config w "machine.run_bare" [] in
  count "machine.retired" stats.retired;
  count "pipeline.records" (List.length archive.records);
  List.iter
    (fun (_, b) -> count "perf_data.archive_bytes" (Bytes.length b))
    encoded;
  ( Outputs.files paths,
    fun () ->
      check (bare = stats) "observer runs retire different streams";
      check
        (List.for_all
           (fun (path, bytes) ->
             In_channel.with_open_bin path In_channel.input_all
             = Bytes.to_string bytes)
           encoded)
        "sharded_bytes differs from the published shards" )

(* ---- analyze-shards: analyze_archives ------------------------------- *)

let open_stream path =
  match Perf_data.Stream.open_file path with
  | Ok s -> s
  | Error e ->
      raise (Check_failed (Format.asprintf "%s: %a" path Perf_data.pp_error e))

(* The finalize replay reads the shards a second time; that reading
   counts as decoding, the replayed work as finalize. *)
let stream_chunks path f =
  let s = layer "perf_data.decode" (fun () -> open_stream path) in
  Fun.protect
    ~finally:(fun () -> Perf_data.Stream.close s)
    (fun () ->
      let next () = Perf_data.Stream.next s in
      let rec pump () =
        match layer "perf_data.decode" next with
        | Some chunk ->
            f chunk;
            pump ()
        | None -> ()
      in
      pump ())

let analyze paths =
  let chunks = ref [] and static = ref None in
  let r =
    task (fun () ->
        let partial_of path =
          let s = layer "perf_data.decode" (fun () -> open_stream path) in
          Fun.protect
            ~finally:(fun () -> Perf_data.Stream.close s)
            (fun () ->
              let meta = Perf_data.Stream.meta s in
              let st =
                match !static with
                | Some st -> st
                | None ->
                    let st =
                      layer "static.create" (fun () ->
                          Static.create_exn (Perf_data.analysis_process meta))
                    in
                    static := Some st;
                    st
              in
              let p =
                Pipeline.Partial.create ~static:st ~ebs_period:meta.ebs_period
                  ~lbr_period:meta.lbr_period ()
              in
              let next () = Perf_data.Stream.next s in
              let rec pump () =
                match layer "perf_data.decode" next with
                | Some chunk ->
                    chunks := chunk :: !chunks;
                    layer "pipeline.partial_feed" (fun () ->
                        Pipeline.Partial.feed p chunk);
                    pump ()
                | None -> ()
              in
              pump ();
              Pipeline.Partial.note_faults p
                (layer "perf_data.decode" (fun () ->
                     Perf_data.Stream.ledger s));
              p)
        in
        let partials = List.map partial_of paths in
        let merged =
          layer "pipeline.partial_merge" (fun () ->
              List.fold_left Pipeline.Partial.merge (List.hd partials)
                (List.tl partials))
        in
        layer "pipeline.finalize" (fun () ->
            let replay f = List.iter (fun path -> stream_chunks path f) paths in
            Pipeline.finalize ~replay merged))
  in
  let records = List.concat (List.rev !chunks) in
  let acc_check = accumulators (Option.get !static) r records in
  reconstruction_counts r;
  List.iter
    (fun path -> count "perf_data.archive_bytes" (Unix.stat path).Unix.st_size)
    paths;
  (Outputs.reconstruction r, acc_check)

(* ---- per-layer metrics ---------------------------------------------- *)

(* Self time of every bench span name, in seconds: its duration minus
   the bench spans nested directly inside it. *)
let self_times () =
  let self = Hashtbl.create 32 and stack = ref [] in
  List.iter
    (fun (s : Trace.span) ->
      if String.equal s.cat "bench" then begin
        let rec pop = function
          | (_, stop) :: rest when stop <= s.start_us -> pop rest
          | st -> st
        in
        stack := pop !stack;
        let dur = s.dur_us /. 1e6 in
        add self s.name dur;
        (match !stack with
        | (parent, _) :: _ -> add self parent (-.dur)
        | [] -> ());
        stack := (s.name, s.start_us +. s.dur_us) :: !stack
      end)
    (Trace.spans ());
  self

(* [per_layer ~passes ~traced_wall ~overhead] — name, value and unit of
   every per-layer metric.  [traced_wall] is the time spent in replays,
   [overhead] the median over replays of a task's traced production path
   ÷ its untraced call.

   A layer's time is given as a share of [trace.task_s], the traced
   production path per replay pass, so that a layer a workload does not
   go through reads a share of 0 rather than a time.  Work counts and
   allocation are per replay pass. *)
let per_layer ~passes ~traced_wall ~overhead =
  let self = self_times () in
  let total tbl name = Option.value ~default:0.0 (Hashtbl.find_opt tbl name) in
  let per_pass tbl name = total tbl name /. float_of_int passes in
  let ratio x y = if y > 0.0 then x /. y else 0.0 in
  let task_total =
    List.fold_left
      (fun acc (sp : Trace.span) ->
        if String.equal sp.cat "bench" && String.equal sp.name "task" then
          acc +. (sp.dur_us /. 1e6)
        else acc)
      0.0 (Trace.spans ())
  in
  let s name = ratio (total self name) task_total in
  let marginal name =
    if Hashtbl.mem self name then s name -. s "machine.run_bare" else 0.0
  in
  let sde = marginal "machine.run_sde_only"
  and sampling = marginal "machine.run_sampling"
  and counting = marginal "machine.run_counting_only" in
  let interaction =
    if Hashtbl.mem self "machine.run_armed" then
      s "machine.run_armed" -. s "machine.run_bare" -. sde -. sampling
      -. counting
    else 0.0
  in
  let save = s "perf_data.save_sharded" and encode = s "perf_data.encode" in
  let covered =
    Hashtbl.fold
      (fun name v acc -> if String.equal name "task" then acc else acc +. v)
      self 0.0
  in
  let share name v = (name ^ "_share", v, "share") in
  let layer name = share name (s name) in
  let n = per_pass counts in
  let c name = (name, n name, "count") in
  let a name = (name ^ "_alloc_words", per_pass alloc_words name, "words") in
  [
    ("trace.task_s", task_total /. float_of_int passes, "s");
    layer "static.create";
    layer "machine.create";
    layer "machine.run_bare";
    layer "machine.run_armed";
    layer "machine.run_sampling";
    share "sde.observer" sde;
    share "pmu.sampling_observer" sampling;
    share "pmu.counting_observer" counting;
    share "machine.observer_interaction" interaction;
    layer "session.records";
    layer "perf_data.of_session";
    share "perf_data.encode" encode;
    share "perf_data.publish" (if save > 0.0 then save -. encode else 0.0);
    layer "perf_data.decode";
    layer "pipeline.partial_feed";
    layer "ebs_estimator.acc";
    layer "lbr_estimator.acc";
    layer "bias.acc";
    layer "pipeline.partial_merge";
    layer "pipeline.finalize";
    layer "reference.build";
    share "bench.unattributed" (s "task");
    a "machine.run_armed";
    a "machine.run_sampling";
    a "perf_data.decode";
    a "pipeline.partial_feed";
    c "machine.retired";
    c "pipeline.records";
    c "ebs.samples";
    c "lbr.snapshots";
    c "bias.flagged_blocks";
    c "repair.sweeps";
    c "repair.adjusted_blocks";
    ("perf_data.archive_bytes", n "perf_data.archive_bytes", "bytes");
    ( "lbr_estimator.usable_stream_share",
      ratio (n "lbr.usable_streams") (n "lbr.streams"),
      "share" );
    ("trace.coverage", ratio covered traced_wall, "share");
    ("trace.overhead", overhead, "ratio");
  ]
