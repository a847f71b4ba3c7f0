(* hbbp — the HBBP instruction-mix tool over the simulated system.

   Mirrors the paper's tool structure: a collector (dual-LBR PMU
   session) and an analyzer (BBEC reconstruction + pivot-table mixes),
   wrapped in one CLI:

     hbbp list
     hbbp profile fitter-sse
     hbbp mix test40 --by mnemonic --method hbbp --top 25
     hbbp mix hello --by symbol --rings
     hbbp bias fitter-sse
     hbbp train
     hbbp capabilities
*)

open Cmdliner
open Hbbp_core
open Hbbp_analyzer
module Telemetry = Hbbp_telemetry.Telemetry
module Json = Hbbp_telemetry.Json

(* One-line diagnostic on stderr + nonzero exit; never a raw backtrace. *)
let die fmt =
  Format.kasprintf
    (fun msg ->
      Format.eprintf "hbbp: %s@." msg;
      exit 1)
    fmt

let find_workload name =
  match Hbbp_workloads.Registry.find name with
  | w -> w
  | exception Invalid_argument msg -> die "%s" msg

(* ---- graceful shutdown --------------------------------------------- *)

(* SIGINT/SIGTERM latch a flag; [collect] and [analyze] poll it at safe
   points (shard boundaries, archive boundaries), durably publish their
   progress when they have somewhere to keep it (manifest / checkpoint)
   and exit with the conventional 128+signal status.  The handlers only
   set the flag — all real work happens on the main path, so no state
   is torn mid-write. *)
let stop_signal = Atomic.make 0
let should_stop () = Atomic.get stop_signal <> 0

let install_signal_handlers () =
  let arm s =
    try ignore (Sys.signal s (Sys.Signal_handle (Atomic.set stop_signal)))
    with Invalid_argument _ | Sys_error _ -> ()
  in
  arm Sys.sigint;
  arm Sys.sigterm

(* Flush telemetry (the [with_telemetry] finalizer never runs once we
   [exit]) and leave with the typed shutdown status. *)
let exit_interrupted msg =
  Telemetry.finalize Format.std_formatter;
  Format.eprintf "hbbp: interrupted; %s@." msg;
  let s = Atomic.get stop_signal in
  exit (if s = Sys.sigterm then 143 else 130)

let profile_of name = Pipeline.run (find_workload name)

(* ---- telemetry flags ------------------------------------------------ *)

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Write a Chrome trace_event JSON timeline of the run to $(docv); \
           load it in Perfetto (ui.perfetto.dev) or chrome://tracing. \
           Defaults to $(b,HBBP_TRACE) when set.")

let metrics_arg =
  Arg.(
    value
    & opt (some (enum [ ("json", `Json); ("table", `Table) ])) None
    & info [ "metrics" ] ~docv:"FORMAT"
        ~doc:
          "After the run, print the metrics rendered from the run's span \
           tree as $(b,json) or $(b,table): counts summed over spans, \
           per-run values listed per workload, pool and allocation rows \
           derived from the spans. Defaults to $(b,HBBP_METRICS) when \
           set.")

(* Arm telemetry before the work, run it in the command's root span,
   flush after (also on [die]/raise: [exit] does not run the finalizer,
   which is fine — a failed run has nothing worth flushing). *)
let with_telemetry command trace metrics f =
  Telemetry.configure ?trace ?metrics ();
  let v = Telemetry.with_root command f in
  Telemetry.finalize Format.std_formatter;
  v

(* Name the archive's workload on the command's root span, so that the
   per-run metrics of an archive's reconstructions list under it. *)
let label_run (meta : Hbbp_collector.Perf_data.t) =
  Hbbp_telemetry.Trace.annotate (fun () ->
      [ ("workload", meta.Hbbp_collector.Perf_data.workload_name) ])

(* ---- fault injection ------------------------------------------------ *)

let faults_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "faults" ] ~docv:"PLAN"
        ~doc:
          "Arm the deterministic fault-injection plan $(docv), e.g. \
           $(b,seed=7,pmu.drop=0.05,arch.flips=3) (keys: seed, pmu.drop, \
           pmu.burst_every, pmu.burst_len, pmu.skid, pmu.jitter, \
           lbr.truncate, lbr.stuck, lbr.misrotate, rec.drop_comm, \
           rec.drop_mmap, rec.drop_sample, rec.reorder, arch.flips, \
           arch.truncate). Defaults to $(b,HBBP_FAULTS) when set; faults \
           stay disarmed otherwise.")

(* Arm the plan around the work, always disarm, and surface what was
   actually injected: a stderr tally, plus faults.* args on the
   command's root span (added here, not in lib/faults, so the fault
   library stays dependency-free). *)
let with_faults spec f =
  let spec =
    match spec with Some _ -> spec | None -> Sys.getenv_opt "HBBP_FAULTS"
  in
  match spec with
  | None -> f ()
  | Some spec ->
      let plan =
        match Hbbp_faults.Fault_plan.of_string spec with
        | Ok plan -> plan
        | Error msg -> die "--faults: %s" msg
      in
      Hbbp_faults.Faults.reset_tally ();
      Hbbp_faults.Faults.arm plan;
      Fun.protect ~finally:Hbbp_faults.Faults.disarm @@ fun () ->
      let v = f () in
      let tally = Hbbp_faults.Faults.tally () in
      Hbbp_telemetry.Trace.annotate (fun () ->
          List.map
            (fun (k, n) -> Hbbp_telemetry.Trace.int_arg ("faults." ^ k) n)
            tally);
      if tally <> [] then begin
        Format.eprintf "hbbp: faults injected (plan %s):@."
          (Hbbp_faults.Fault_plan.to_string plan);
        List.iter
          (fun (k, n) -> Format.eprintf "  %-28s %8d@." k n)
          tally
      end;
      v

(* ---- list ---------------------------------------------------------- *)

let list_cmd =
  let run () =
    List.iter print_endline Hbbp_workloads.Registry.names
  in
  Cmd.v (Cmd.info "list" ~doc:"List available workloads")
    Term.(const run $ const ())

(* ---- profile ------------------------------------------------------- *)

let workload_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"WORKLOAD" ~doc:"Workload name (see $(b,hbbp list)).")

let workloads_arg =
  Arg.(
    non_empty
    & pos_all string []
    & info [] ~docv:"WORKLOAD"
        ~doc:"Workload name(s) (see $(b,hbbp list)).")

(* [profile] accepts workloads both positionally and via --workload, so
   scripted invocations can spell them uniformly with other flags. *)
let workloads_pos_arg =
  Arg.(
    value
    & pos_all string []
    & info [] ~docv:"WORKLOAD" ~doc:"Workload name(s) (see $(b,hbbp list)).")

let workload_opt_arg =
  Arg.(
    value
    & opt_all string []
    & info [ "w"; "workload" ] ~docv:"WORKLOAD"
        ~doc:"Workload name(s); repeatable, merged with positional names.")

let jobs_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Domains to fan independent workload runs over (default: \
           $(b,HBBP_JOBS) or the host's recommended domain count). \
           Results are identical for every N.")

let profile_cmd =
  let run positional named jobs faults trace metrics =
    let names = positional @ named in
    if names = [] then die "profile: no workload given (see 'hbbp list')";
    let ws = List.map find_workload names in
    with_telemetry "profile" trace metrics @@ fun () ->
    with_faults faults @@ fun () ->
    let profiles = Pipeline.run_many ?jobs ws in
    List.iter
      (fun (p : Pipeline.profile) ->
        Format.printf "%a@.@." Report.summary p;
        Report.method_comparison Format.std_formatter p;
        Format.printf "@.Top mnemonics (HBBP):@.";
        Pivot.render Format.std_formatter
          (Views.top_mnemonics 15 (Pipeline.full_mix_of p p.Pipeline.hbbp));
        Format.printf "@.Per-mnemonic errors vs instrumentation:@.";
        Report.error_table Format.std_formatter ~top:15 p p.Pipeline.hbbp)
      profiles
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Profile workload(s) end to end and report accuracy/overheads; \
          multiple workloads run in parallel (-j)")
    Term.(
      const run $ workloads_pos_arg $ workload_opt_arg $ jobs_arg $ faults_arg
      $ trace_arg $ metrics_arg)

(* ---- mix ----------------------------------------------------------- *)

let dimension_conv =
  let parse = function
    | "mnemonic" -> Ok Pivot.Mnem
    | "symbol" | "function" -> Ok Pivot.Symbol
    | "module" -> Ok Pivot.Image
    | "block" -> Ok Pivot.Block
    | "isa" -> Ok Pivot.Isa_set
    | "category" -> Ok Pivot.Category
    | "packing" -> Ok Pivot.Packing
    | "ring" -> Ok Pivot.Ring_level
    | s -> Error (`Msg (Printf.sprintf "unknown dimension %S" s))
  in
  Arg.conv (parse, fun ppf d -> Format.pp_print_string ppf (Pivot.dimension_to_string d))

let method_conv =
  let parse = function
    | "hbbp" -> Ok `Hbbp
    | "ebs" -> Ok `Ebs
    | "lbr" -> Ok `Lbr
    | "sde" | "reference" -> Ok `Sde
    | s -> Error (`Msg (Printf.sprintf "unknown method %S" s))
  in
  Arg.conv
    ( parse,
      fun ppf m ->
        Format.pp_print_string ppf
          (match m with `Hbbp -> "hbbp" | `Ebs -> "ebs" | `Lbr -> "lbr" | `Sde -> "sde") )

let mix_cmd =
  let by =
    Arg.(
      value
      & opt_all dimension_conv [ Pivot.Mnem ]
      & info [ "by" ] ~docv:"DIM"
          ~doc:
            "Pivot dimension(s): mnemonic, symbol, module, block, isa, \
             category, packing, ring. Repeatable.")
  in
  let method_ =
    Arg.(
      value
      & opt method_conv `Hbbp
      & info [ "method" ] ~docv:"METHOD" ~doc:"BBEC source: hbbp, ebs, lbr, sde.")
  in
  let top =
    Arg.(value & opt int 30 & info [ "top" ] ~docv:"N" ~doc:"Rows to print.")
  in
  let user_only =
    Arg.(
      value & flag
      & info [ "user-only" ] ~doc:"Restrict to ring-3 code (like PIN/SDE).")
  in
  let csv =
    Arg.(value & flag & info [ "csv" ] ~doc:"Emit CSV instead of a table.")
  in
  let run name by method_ top user_only csv =
    let p = profile_of name in
    let bbec =
      match method_ with
      | `Hbbp -> p.Pipeline.hbbp
      | `Ebs -> p.Pipeline.ebs.Ebs_estimator.bbec
      | `Lbr -> p.Pipeline.lbr.Lbr_estimator.bbec
      | `Sde -> p.Pipeline.reference
    in
    let mix =
      if user_only then Pipeline.mix_of p bbec else Pipeline.full_mix_of p bbec
    in
    let table = Pivot.top top (Pivot.pivot ~dims:by mix) in
    if csv then print_string (Pivot.to_csv table)
    else Pivot.render Format.std_formatter table
  in
  Cmd.v
    (Cmd.info "mix" ~doc:"Print a pivot-table instruction mix")
    Term.(const run $ workload_arg $ by $ method_ $ top $ user_only $ csv)

(* ---- bias ---------------------------------------------------------- *)

let bias_cmd =
  let run name =
    let p = profile_of name in
    Format.printf "%d snapshots, %d flagged blocks@." p.Pipeline.bias.Bias.snapshots
      (List.length (Bias.flagged_blocks p.Pipeline.bias));
    Format.printf "%-12s %8s %8s %10s %10s %9s %8s@." "branch" "entry0" "deep"
      "e0 share" "deep share" "adjacent" "failed";
    List.iteri
      (fun k (s : Bias.branch_stat) ->
        if k < 20 then
          Format.printf "%#-12x %8d %8d %9.3f%% %9.3f%% %9d %8d@." s.src
            s.entry0_count s.deep_count (100.0 *. s.entry0_share)
            (100.0 *. s.deep_share) s.adjacent_streams s.failed_streams)
      p.Pipeline.bias.Bias.stats
  in
  Cmd.v
    (Cmd.info "bias" ~doc:"Show LBR entry[0] bias statistics per branch")
    Term.(const run $ workload_arg)

(* ---- train --------------------------------------------------------- *)

let train_cmd =
  let dot =
    Arg.(value & flag & info [ "dot" ] ~doc:"Emit graphviz instead of ASCII.")
  in
  let run dot jobs faults trace metrics =
    with_telemetry "train" trace metrics @@ fun () ->
    with_faults faults @@ fun () ->
    let tree, dataset =
      Training.build ?jobs (Hbbp_workloads.Training_set.all ())
    in
    if dot then print_string (Hbbp_mltree.Render.dot dataset tree)
    else begin
      print_string (Hbbp_mltree.Render.ascii dataset tree);
      (match Training.learned_cutoff tree with
      | Some c -> Printf.printf "learned block-length cutoff: %.1f\n" c
      | None -> print_endline "root split not on block length");
      let imp =
        Hbbp_mltree.Cart.feature_importances tree
          ~n_features:(Array.length Feature.names)
      in
      Array.iteri
        (fun k v -> Printf.printf "importance %-20s %.3f\n" Feature.names.(k) v)
        imp
    end
  in
  Cmd.v
    (Cmd.info "train"
       ~doc:
         "Run the HBBP criteria search on the training corpus (profiled \
          in parallel, -j)")
    Term.(const run $ dot $ jobs_arg $ faults_arg $ trace_arg $ metrics_arg)

(* ---- collect / analyze --------------------------------------------- *)

let output_arg =
  Arg.(
    value
    & opt string "perf.hbbp"
    & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Archive path.")

let shards_arg =
  Arg.(
    value
    & opt int 1
    & info [ "shards" ] ~docv:"N"
        ~doc:
          "Split each archive's record stream into $(docv) contiguous \
           shards ($(i,NAME.0ofN.hbbp) …), each a complete, independently \
           analyzable archive; pass them all to $(b,hbbp analyze) or \
           $(b,hbbp stats) to merge them back exactly.")

let resume_arg =
  Arg.(
    value & flag
    & info [ "resume" ]
        ~doc:
          "Continue an interrupted run from its durable progress record \
           (collection manifest / analysis checkpoint) instead of \
           starting over; the final output is byte-identical to an \
           uninterrupted run.")

(* Kill-window widener for the chaos harness: a per-shard publication
   delay so an external SIGKILL reliably lands between shards. *)
let shard_delay () =
  match Sys.getenv_opt "HBBP_SHARD_DELAY" with
  | None -> 0.0
  | Some s -> ( match float_of_string_opt s with Some d -> d | None -> 0.0)

let collect_cmd =
  let run names output shards jobs faults resume trace metrics =
    if shards < 1 then die "collect: --shards must be at least 1";
    let ws = List.map find_workload names in
    install_signal_handlers ();
    with_telemetry "collect" trace metrics @@ fun () ->
    with_faults faults @@ fun () ->
    let single = match names with [ _ ] -> true | _ -> false in
    let delay = shard_delay () in
    if resume || delay > 0.0 then
      (* Resumable path: each workload re-collects deterministically and
         republishes only missing or torn shards, guided by the
         manifest.  Sequential — shard reuse accounting and the chaos
         kill window both want a single publication stream. *)
      List.iter2
        (fun name w ->
          let path = if single then output else name ^ ".hbbp" in
          match
            Recover.collect_sharded ~resume ~should_stop
              ~inter_shard_delay_s:delay ~shards ~path w
          with
          | paths, statuses ->
              List.iter2
                (fun p status ->
                  Format.printf "%s %s@."
                    (match status with
                    | Recover.Reused -> "reused"
                    | Recover.Written -> "wrote")
                    p)
                paths statuses
          | exception Pipeline.Interrupted ->
              exit_interrupted "progress saved — rerun with --resume")
        names ws
    else begin
      let archives = Pipeline.collect_many ?jobs ws in
      List.iter2
        (fun name (archive : Hbbp_collector.Perf_data.t) ->
          let path = if single then output else name ^ ".hbbp" in
          let paths =
            Hbbp_collector.Perf_data.save_sharded archive ~shards ~path
          in
          let n = List.length archive.Hbbp_collector.Perf_data.records in
          List.iteri
            (fun i p ->
              (* The i-th shard holds the records in [lo, hi). *)
              let lo = i * n / shards and hi = (i + 1) * n / shards in
              Format.printf
                "wrote %s: %d records, %d images, EBS/LBR periods %d/%d@." p
                (hi - lo)
                (List.length archive.Hbbp_collector.Perf_data.analysis_images)
                archive.Hbbp_collector.Perf_data.ebs_period
                archive.Hbbp_collector.Perf_data.lbr_period)
            paths)
        names archives
    end
  in
  Cmd.v
    (Cmd.info "collect"
       ~doc:
         "Run only the collection side (no instrumentation) and write \
          portable perf.data-style archives; with several workloads the \
          collections run in parallel (-j) and each archive lands in \
          $(i,WORKLOAD).hbbp; $(b,--shards) splits each record stream \
          over several archives. Shards are published atomically with a \
          sidecar manifest; an interrupted collection continues with \
          $(b,--resume), converging to byte-identical archives")
    Term.(
      const run $ workloads_arg $ output_arg $ shards_arg $ jobs_arg
      $ faults_arg $ resume_arg $ trace_arg $ metrics_arg)

let archives_arg =
  Arg.(
    non_empty
    & pos_all string []
    & info [] ~docv:"FILE"
        ~doc:
          "Archive(s) written by $(b,hbbp collect); shards of one \
           collection are streamed and merged into a single \
           reconstruction.")

let repair_mode_arg =
  Arg.(
    value
    & opt
        (enum
           [
             ("off", Pipeline.Off);
             ("report", Pipeline.Report);
             ("apply", Pipeline.Apply);
           ])
        Pipeline.Report
    & info [ "repair" ] ~docv:"MODE"
        ~doc:
          "Count-repair policy: $(b,off) skips the pass, $(b,report) \
           (default) measures what repair would do, $(b,apply) replaces \
           the HBBP counts with the repaired vector.  The quality \
           verdict always reflects the pre-repair flow check.")

let emit_profile_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "emit-profile" ] ~docv:"FILE"
        ~doc:
          "Write the reconstruction as a compiler-consumable PGO \
           artifact (LLVM-profdata-shaped JSON: per-function block \
           weights and branch probabilities) to $(docv), atomically.")

let emit_profile ~workload ~mode path (r : Pipeline.reconstruction) =
  let json =
    Profile_export.to_json ~workload
      ?repair:
        (Option.map
           (fun rep -> (mode = Pipeline.Apply, rep))
           r.Pipeline.r_repair)
      r.Pipeline.r_static r.Pipeline.r_hbbp
  in
  Hbbp_durable.Durable.write_file ~path json;
  Format.printf "profile written to %s@." path

let checkpoint_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "checkpoint" ] ~docv:"FILE"
        ~doc:
          "Save a durable analysis checkpoint to $(docv) after each \
           consumed archive (default when resuming: \
           $(i,FIRST_ARCHIVE).ckpt); $(b,--resume) restarts from it. \
           Deleted automatically on success.")

let analyze_cmd =
  let top =
    Arg.(value & opt int 20 & info [ "top" ] ~docv:"N" ~doc:"Rows to print.")
  in
  let run paths top checkpoint resume repair profile_out trace metrics =
    install_signal_handlers ();
    (* The exit status waits for the telemetry flush: a degraded
       reconstruction is the one whose metrics matter most. *)
    let degraded =
      with_telemetry "analyze" trace metrics @@ fun () ->
      let checkpoint =
        match (checkpoint, resume) with
        | (Some _ as c), _ -> c
        | None, true -> Some (List.hd paths ^ ".ckpt")
        | None, false -> None
      in
      match
        Pipeline.analyze_archives ~repair ?checkpoint ~resume ~should_stop
          paths
      with
      | exception Pipeline.Interrupted ->
          exit_interrupted
            (if Option.is_some checkpoint then
               "progress saved — rerun with --resume"
             else "nothing saved — rerun with --checkpoint FILE to keep progress")
      | Error msg -> die "%s" msg
      | Ok (meta, r) ->
          label_run meta;
          let partial = r.Pipeline.r_partial in
          List.iter
            (fun f ->
              Format.eprintf "hbbp: warning: %a@."
                Hbbp_collector.Perf_data.pp_fault f)
            (Pipeline.Partial.faults partial);
          Format.printf
            "workload %s: %d archive(s), %d records, %d blocks, %d LBR \
             snapshots, %d flagged@."
            meta.Hbbp_collector.Perf_data.workload_name (List.length paths)
            (Pipeline.Partial.record_count partial)
            (Static.total_blocks r.Pipeline.r_static)
            r.Pipeline.r_lbr.Lbr_estimator.snapshots
            (List.length (Bias.flagged_blocks r.Pipeline.r_bias));
          Format.printf "quality: %a@." Pipeline.pp_quality
            r.Pipeline.r_quality;
          Option.iter
            (fun rep ->
              Format.printf "%a@." Hbbp_verifier.Repair.pp_report rep)
            r.Pipeline.r_repair;
          Format.printf "@.Instruction mix (HBBP):@.";
          Pivot.render Format.std_formatter
            (Views.top_mnemonics top
               (Mix.of_bbec r.Pipeline.r_static r.Pipeline.r_hbbp));
          Option.iter
            (fun path ->
              emit_profile
                ~workload:meta.Hbbp_collector.Perf_data.workload_name
                ~mode:repair path r)
            profile_out;
          r.Pipeline.r_quality <> Pipeline.Full
    in
    if degraded then exit 2
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:
         "Analyze archive(s) offline, streaming the records in bounded \
          chunks; several shards merge into one reconstruction, \
          bit-identical to analyzing the unsharded archive. With \
          $(b,--checkpoint) the merged state is durably checkpointed \
          between archives and $(b,--resume) restarts from it. Exits 2 \
          when the reconstruction is degraded, 1 when an archive is \
          unreadable or shard metadata disagrees")
    Term.(
      const run $ archives_arg $ top $ checkpoint_arg $ resume_arg
      $ repair_mode_arg $ emit_profile_arg $ trace_arg $ metrics_arg)

(* ---- stats ---------------------------------------------------------- *)

let stats_cmd =
  (* Print one reconstruction's stat block and return its quality.  It
     all comes off the merged partial state and the finalized
     estimators, so one printer serves an archive and a shard set. *)
  let print_stats header meta (r : Pipeline.reconstruction) =
    let partial = r.Pipeline.r_partial in
    let lbr = r.Pipeline.r_lbr in
    Format.printf "%s: workload %s@." header
      meta.Hbbp_collector.Perf_data.workload_name;
    Format.printf "  records             %8d@."
      (Pipeline.Partial.record_count partial);
    Format.printf "  EBS samples         %8d (+%d unattributed)@."
      (Pipeline.Partial.ebs_samples partial)
      r.Pipeline.r_ebs.Ebs_estimator.unattributed;
    Format.printf "  LBR snapshots       %8d@."
      (Pipeline.Partial.lbr_snapshots partial);
    Format.printf "  lost / other        %8d / %d@."
      (Pipeline.Partial.lost_records partial)
      (Pipeline.Partial.other_samples partial);
    Format.printf "  EBS / LBR periods   %8d / %d@."
      meta.Hbbp_collector.Perf_data.ebs_period
      meta.Hbbp_collector.Perf_data.lbr_period;
    Format.printf
      "  streams             %8d usable, %d inconsistent, %d discarded \
       (%.1f%% walk failures)@."
      lbr.Lbr_estimator.usable_streams lbr.Lbr_estimator.inconsistent_streams
      lbr.Lbr_estimator.discarded_streams
      (100.0 *. Pipeline.stream_failure_rate lbr);
    Format.printf "  bias-flagged blocks %8d@."
      (List.length (Bias.flagged_blocks r.Pipeline.r_bias));
    Format.printf "  static blocks       %8d@."
      (Static.total_blocks r.Pipeline.r_static);
    (match Pipeline.Partial.faults partial with
    | [] -> Format.printf "  integrity              clean@."
    | faults ->
        Format.printf "  integrity           %8d fault(s), salvaged@."
          (List.length faults);
        List.iter
          (fun f ->
            Format.printf "    - %a@." Hbbp_collector.Perf_data.pp_fault f)
          faults);
    Format.printf "  quality             %a@." Pipeline.pp_quality
      r.Pipeline.r_quality;
    r.Pipeline.r_quality
  in
  let health_arg =
    Arg.(
      value & flag
      & info [ "health" ]
          ~doc:
            "After the statistics, print the verdict that decides the exit \
             code, $(b,full) or $(b,degraded), with the reconstruction's \
             degrade reasons.")
  in
  let run paths health trace metrics =
    let degraded =
      with_telemetry "stats" trace metrics @@ fun () ->
      let ok = function Ok v -> v | Error msg -> die "%s" msg in
      (* Each archive is decoded once, into a partial finalized for its
         own stat block, in a span that names its workload. *)
      let own path m static s =
        let p = ok (Pipeline.archive_partial ~static ~meta:m path s) in
        let workload = m.Hbbp_collector.Perf_data.workload_name in
        Hbbp_telemetry.Trace.with_span ~cat:"stats"
          ~args:[ ("workload", workload) ]
          "archive"
        @@ fun () -> (p, (path, print_stats path m (Pipeline.finalize p)))
      in
      let path0 = List.hd paths in
      let s0 = ok (Pipeline.open_archive path0) in
      let meta0 = Hbbp_collector.Perf_data.Stream.meta s0 in
      label_run meta0;
      let static0 = ok (Pipeline.archive_static path0 meta0) in
      let p0, v0 = own path0 meta0 static0 s0 in
      (* An archive whose metadata matches the first one's (a shard of
         the same collection) shares its static view and joins the
         merged partial; any other is analyzed on its own static view
         and leaves no merged view. *)
      let merged, own_rev =
        List.fold_left
          (fun (merged, vs) path ->
            let s = ok (Pipeline.open_archive path) in
            let m = Hbbp_collector.Perf_data.Stream.meta s in
            let shared = Pipeline.check_shard_meta ~meta:meta0 path m in
            let static =
              if Result.is_ok shared then static0
              else ok (Pipeline.archive_static path m)
            in
            let p, v = own path m static s in
            ( Result.bind merged (fun acc ->
                  Result.map (fun () -> Pipeline.Partial.merge acc p) shared),
              v :: vs ))
          (Ok p0, [ v0 ])
          (List.tl paths)
      in
      let own = List.rev own_rev in
      (* Several archives also get the merged view.  The merged verdict
         drives the exit code: shards that starve a channel
         individually can be healthy together. *)
      let verdicts =
        if List.length paths < 2 then own
        else
          match merged with
          | Error msg ->
              Format.eprintf "hbbp: no merged view: %s@." msg;
              own
          | Ok m ->
              let label =
                Printf.sprintf "merged (%d archives)" (List.length paths)
              in
              Format.printf "@.";
              [ (label, print_stats label meta0 (Pipeline.finalize m)) ]
      in
      let degraded =
        List.exists
          (function _, Pipeline.Degraded _ -> true | _, Pipeline.Full -> false)
          verdicts
      in
      if health then begin
        Format.printf "@.health: %s@."
          (if degraded then "degraded" else "full");
        List.iter
          (function
            | _, Pipeline.Full -> ()
            | label, Pipeline.Degraded reasons ->
                List.iter
                  (Format.printf "  - %s: %a@." label
                     Pipeline.pp_degrade_reason)
                  reasons)
          verdicts
      end;
      degraded
    in
    if degraded then exit 2
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:
         "Print collection and sampling-health statistics of archive(s), \
          streamed in bounded chunks: record volume, sample split, \
          stream-walk failure rate, bias flags, salvage/integrity status; \
          several archives also report their merged reconstruction. \
          $(b,--health) repeats the deciding verdict with its reasons. \
          Exits 2 when the (merged) reconstruction is degraded, 1 when an \
          archive is unreadable")
    Term.(
      const run $ archives_arg $ health_arg $ trace_arg $ metrics_arg)

(* ---- lint ----------------------------------------------------------- *)

module V = Hbbp_verifier

(* One lint target: a workload name (linted in place) or the whole set
   of archive paths (shards of one collection, linted from their
   metadata and flow-checked through the streamed reconstruction). *)
type lint_result = {
  lr_target : string;
  lr_kind : [ `Workload | `Archive ];
  lr_diags : V.Diagnostic.t list;
  lr_flow : V.Flow.report option;
}

let lint_errors r =
  V.Diagnostic.count_errors r.lr_diags
  +
  match r.lr_flow with
  | Some f
    when f.V.Flow.conservation_error
         > Pipeline.default_thresholds.Pipeline.max_conservation_error ->
      1
  | Some _ | None -> 0

(* Version of the machine-readable lint report below; bump on any
   shape change so CI consumers can pin what they parse. *)
let lint_schema_version = 1

let lint_json results =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "{\"schema_version\":%d,\"targets\":[" lint_schema_version);
  List.iteri
    (fun i r ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf "{\"target\":\"%s\",\"kind\":\"%s\",\"diagnostics\":["
           (Json.escape r.lr_target)
           (match r.lr_kind with
           | `Workload -> "workload"
           | `Archive -> "archive"));
      List.iteri
        (fun j (d : V.Diagnostic.t) ->
          if j > 0 then Buffer.add_char buf ',';
          Buffer.add_string buf
            (Printf.sprintf "{\"rule\":\"%s\",\"severity\":\"%s\",\"image\":\"%s\""
               (V.Diagnostic.rule_id d.V.Diagnostic.rule)
               (V.Diagnostic.severity_to_string d.V.Diagnostic.severity)
               (Json.escape d.V.Diagnostic.image));
          Option.iter
            (fun a -> Buffer.add_string buf (Printf.sprintf ",\"addr\":%d" a))
            d.V.Diagnostic.addr;
          Option.iter
            (fun b -> Buffer.add_string buf (Printf.sprintf ",\"block\":%d" b))
            d.V.Diagnostic.block;
          Buffer.add_string buf
            (Printf.sprintf ",\"message\":\"%s\"}"
               (Json.escape d.V.Diagnostic.message)))
        r.lr_diags;
      Buffer.add_string buf "]";
      Option.iter
        (fun (f : V.Flow.report) ->
          Buffer.add_string buf
            (Printf.sprintf
               ",\"flow\":{\"conservation_error\":%.6f,\"total_residual\":%.1f,\"total_flow\":%.1f,\"checked_blocks\":%d,\"entry_blocks\":%d,\"violation\":%b}"
               f.V.Flow.conservation_error f.V.Flow.total_residual
               f.V.Flow.total_flow f.V.Flow.checked_blocks
               f.V.Flow.entry_blocks
               (f.V.Flow.conservation_error
               > Pipeline.default_thresholds.Pipeline.max_conservation_error)))
        r.lr_flow;
      Buffer.add_string buf
        (Printf.sprintf ",\"errors\":%d}" (lint_errors r)))
    results;
  Buffer.add_string buf
    (Printf.sprintf "],\"errors\":%d}"
       (List.fold_left (fun acc r -> acc + lint_errors r) 0 results));
  Buffer.contents buf

let lint_cmd =
  let targets =
    Arg.(
      non_empty
      & pos_all string []
      & info [] ~docv:"TARGET"
          ~doc:
            "Workload name (see $(b,hbbp list)) or archive file written by \
             $(b,hbbp collect).  All archive paths together are analyzed \
             as shards of one collection.")
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ] ~doc:"Emit a machine-readable JSON report on stdout.")
  in
  let flow =
    Arg.(
      value & flag
      & info [ "flow" ]
          ~doc:
            "Also profile each workload target and flow-check its HBBP \
             reconstruction (archive targets are always flow-checked).")
  in
  let lint_workload ~flow name =
    let w = find_workload name in
    let diags = V.Lint.process w.Workload.analysis_process in
    let diags =
      (* The live process only differs for self-patching kernels; lint
         it too, but keep one copy of findings common to both views. *)
      if w.Workload.live_process == w.Workload.analysis_process then diags
      else
        diags
        @ List.filter
            (fun d -> not (List.mem d diags))
            (V.Lint.process w.Workload.live_process)
    in
    let flow_report =
      if flow then begin
        let p = Pipeline.run w in
        Some (V.Flow.check p.Pipeline.static p.Pipeline.hbbp)
      end
      else None
    in
    { lr_target = name; lr_kind = `Workload; lr_diags = diags;
      lr_flow = flow_report }
  in
  let lint_archives paths =
    match Pipeline.analyze_archives paths with
    | Error msg -> die "%s" msg
    | Ok (meta, r) ->
        let process =
          Hbbp_program.Process.create
            meta.Hbbp_collector.Perf_data.analysis_images
        in
        let diags = V.Lint.process process in
        let flow_report =
          V.Flow.check r.Pipeline.r_static r.Pipeline.r_hbbp
        in
        {
          lr_target = String.concat " " paths;
          lr_kind = `Archive;
          lr_diags = diags;
          lr_flow = Some flow_report;
        }
  in
  let run targets json flow trace metrics =
    let archives, workloads =
      List.partition Sys.file_exists targets
    in
    with_telemetry "lint" trace metrics @@ fun () ->
    let results =
      List.map (lint_workload ~flow) workloads
      @ (if archives = [] then [] else [ lint_archives archives ])
    in
    if json then print_endline (lint_json results)
    else
      List.iter
        (fun r ->
          List.iter
            (fun d -> Format.printf "%a@." V.Diagnostic.pp d)
            r.lr_diags;
          (match r.lr_flow with
          | Some f ->
              Format.printf "%s: flow conservation error %.4f%s@."
                r.lr_target f.V.Flow.conservation_error
                (if
                   f.V.Flow.conservation_error
                   > Pipeline.default_thresholds
                       .Pipeline.max_conservation_error
                 then " (VIOLATION)"
                 else "")
          | None -> ());
          let errors = lint_errors r in
          let warnings = List.length r.lr_diags - V.Diagnostic.count_errors r.lr_diags in
          Format.printf "%s: %s@." r.lr_target
            (if errors = 0 && warnings = 0 then "clean"
             else Printf.sprintf "%d error(s), %d warning(s)" errors warnings))
        results;
    let total = List.fold_left (fun acc r -> acc + lint_errors r) 0 results in
    if total > 0 then exit 2
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Statically verify workload images (decode totality, encoding \
          round-trip, basic-block tiling, terminator placement, branch \
          targets, CFG edge soundness, reachability, executable-graph \
          agreement) and flow-check archive reconstructions against \
          Kirchhoff conservation. Exits 0 when clean, 2 on findings, 1 \
          when a target is unreadable")
    Term.(const run $ targets $ json $ flow $ trace_arg $ metrics_arg)

(* ---- repair --------------------------------------------------------- *)

type repair_result = {
  rr_target : string;
  rr_kind : [ `Workload | `Archive ];
  rr_report : V.Repair.report;
  rr_raw_error : float option;  (* mix error vs reference, workloads only *)
  rr_repaired_error : float option;
}

let repair_violation r =
  r.rr_report.V.Repair.post.V.Flow.conservation_error
  > Pipeline.default_thresholds.Pipeline.max_conservation_error

let repair_schema_version = 1

let repair_json results =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "{\"schema_version\":%d,\"targets\":["
       repair_schema_version);
  List.iteri
    (fun i r ->
      if i > 0 then Buffer.add_char buf ',';
      let rep = r.rr_report in
      let opt_float = function
        | Some v -> Printf.sprintf "%.6f" v
        | None -> "null"
      in
      Buffer.add_string buf
        (Printf.sprintf
           "{\"target\":\"%s\",\"kind\":\"%s\",\"pre_conservation_error\":%.6f,\"post_conservation_error\":%.6f,\"iterations\":%d,\"converged\":%b,\"adjusted_blocks\":%d,\"moved_mass\":%.1f,\"raw_mix_error\":%s,\"repaired_mix_error\":%s,\"violation\":%b}"
           (Json.escape r.rr_target)
           (match r.rr_kind with
           | `Workload -> "workload"
           | `Archive -> "archive")
           rep.V.Repair.pre.V.Flow.conservation_error
           rep.V.Repair.post.V.Flow.conservation_error
           rep.V.Repair.iterations rep.V.Repair.converged
           rep.V.Repair.adjusted_blocks rep.V.Repair.moved_mass
           (opt_float r.rr_raw_error)
           (opt_float r.rr_repaired_error)
           (repair_violation r)))
    results;
  Buffer.add_string buf
    (Printf.sprintf "],\"violations\":%d}"
       (List.length (List.filter repair_violation results)));
  Buffer.contents buf

let repair_cmd =
  let targets =
    Arg.(
      non_empty
      & pos_all string []
      & info [] ~docv:"TARGET"
          ~doc:
            "Workload name (see $(b,hbbp list)) or archive file written \
             by $(b,hbbp collect).  All archive paths together are \
             analyzed as shards of one collection.")
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ] ~doc:"Emit a machine-readable JSON report on stdout.")
  in
  let repair_workload name =
    let p = profile_of name in
    let rep =
      match p.Pipeline.repair_report with
      | Some rep -> rep
      | None -> die "%s: pipeline config disabled repair" name
    in
    let err bbec =
      (Pipeline.error_report p bbec).Error.avg_weighted_error
    in
    ( {
        rr_target = name;
        rr_kind = `Workload;
        rr_report = rep;
        rr_raw_error = Some (err p.Pipeline.hbbp);
        rr_repaired_error = Some (err rep.V.Repair.repaired);
      },
      (p.Pipeline.static, name) )
  in
  let repair_archives paths =
    match Pipeline.analyze_archives paths with
    | Error msg -> die "%s" msg
    | Ok (meta, r) ->
        let rep = Option.get r.Pipeline.r_repair in
        ( {
            rr_target = String.concat " " paths;
            rr_kind = `Archive;
            rr_report = rep;
            rr_raw_error = None;
            rr_repaired_error = None;
          },
          ( r.Pipeline.r_static,
            meta.Hbbp_collector.Perf_data.workload_name ) )
  in
  let run targets json profile_out trace metrics =
    with_telemetry "repair" trace metrics @@ fun () ->
    let archives, workloads = List.partition Sys.file_exists targets in
    let results =
      List.map repair_workload workloads
      @ if archives = [] then [] else [ repair_archives archives ]
    in
    (match (profile_out, results) with
    | None, _ -> ()
    | Some path, [ (r, (static, workload)) ] ->
        let jsn =
          Profile_export.to_json ~workload
            ~repair:(true, r.rr_report)
            static r.rr_report.V.Repair.repaired
        in
        Hbbp_durable.Durable.write_file ~path jsn;
        Format.printf "profile written to %s@." path
    | Some _, _ ->
        die "--emit-profile needs exactly one target (or one archive set)");
    let results = List.map fst results in
    if json then print_endline (repair_json results)
    else
      List.iter
        (fun r ->
          Format.printf "%s: %a@." r.rr_target V.Repair.pp_report
            r.rr_report;
          match (r.rr_raw_error, r.rr_repaired_error) with
          | Some raw, Some fixed ->
              Format.printf
                "%s: weighted mix error vs reference %.4f -> %.4f@."
                r.rr_target raw fixed
          | _ -> ())
        results;
    if List.exists repair_violation results then exit 2
  in
  Cmd.v
    (Cmd.info "repair"
       ~doc:
         "Project reconstructed HBBP counts onto the flow-conservation \
          polytope of the CFG (weighted Kirchhoff repair; low-confidence \
          blocks absorb the correction) and report the residual shrink; \
          workload targets also report the weighted mix error against \
          the instrumentation reference before and after.  Exits 2 when \
          a repaired reconstruction still violates the conservation \
          threshold, 1 when a target is unreadable")
    Term.(
      const run $ targets $ json $ emit_profile_arg $ trace_arg
      $ metrics_arg)

(* ---- loops ---------------------------------------------------------- *)

let loops_cmd =
  let run name =
    let p = profile_of name in
    Loop_view.render Format.std_formatter
      (Loop_view.report p.Pipeline.static p.Pipeline.hbbp)
  in
  Cmd.v
    (Cmd.info "loops"
       ~doc:"Natural loops with composition and estimated trip counts")
    Term.(const run $ workload_arg)

(* ---- doctor --------------------------------------------------------- *)

let doctor_cmd =
  let json =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:
            "Emit a machine-readable report on stdout: \
             $(i,{\"reports\":[...]}) with one entry per workload.")
  in
  let max_jobs =
    Arg.(
      value
      & opt (some int) None
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:
            "Try every job count from 1 to $(docv) (default: the host's \
             recommended domain count, capped at 4).")
  in
  let shards =
    Arg.(
      value
      & opt (some int) None
      & info [ "shards" ] ~docv:"N"
          ~doc:
            "Shards to split the archive into, i.e. parallel task \
             granularity (default: twice the maximum job count).")
  in
  let run positional named json max_jobs shards trace metrics =
    let names =
      match positional @ named with [] -> [ "mcf"; "hello" ] | ns -> ns
    in
    let ws = List.map find_workload names in
    with_telemetry "doctor" trace metrics @@ fun () ->
    let reports =
      List.map (fun w -> Doctor.run ?max_jobs ?shards w) ws
    in
    if json then
      print_endline
        (Printf.sprintf "{\"reports\":[%s]}"
           (String.concat "," (List.map Doctor.to_json reports)))
    else
      List.iteri
        (fun k r ->
          if k > 0 then Format.printf "@.";
          Doctor.pp Format.std_formatter r)
        reports;
    if List.exists (fun r -> not r.Doctor.rep_consistent) reports then exit 2
  in
  Cmd.v
    (Cmd.info "doctor"
       ~doc:
         "Attribute parallel (in)efficiency of the sharded analysis path: \
          collect an archive, shard it, replay the stream→merge→finalize \
          analysis at -j 1..N and report speedup, efficiency, the serial \
          merge tail, per-worker utilization and busy-time imbalance, \
          per-domain GC activity, task-size statistics and the top \
          allocation sites by span. Defaults to the $(b,mcf) and \
          $(b,hello) workloads. Exits 2 if any job count reconstructs \
          different counts (determinism violation)")
    Term.(
      const run $ workloads_pos_arg $ workload_opt_arg $ json $ max_jobs
      $ shards $ trace_arg $ metrics_arg)

(* ---- capabilities --------------------------------------------------- *)

let capabilities_cmd =
  let run () =
    let module C = Hbbp_collector.Capabilities in
    List.iter
      (fun gen ->
        Printf.printf "%s (%d):\n" (C.generation_to_string gen) (C.year gen);
        List.iter
          (fun cls ->
            Printf.printf "  %-14s %s\n"
              (C.event_class_to_string cls)
              (C.support_to_string (C.support gen cls)))
          C.event_classes)
      C.generations
  in
  Cmd.v
    (Cmd.info "capabilities"
       ~doc:"Show instruction-specific event support by PMU generation")
    Term.(const run $ const ())

let () =
  let doc = "Low-overhead dynamic instruction mixes via Hybrid Basic Block Profiling" in
  let info = Cmd.info "hbbp" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [ list_cmd; profile_cmd; mix_cmd; bias_cmd; train_cmd;
            collect_cmd; analyze_cmd; stats_cmd; lint_cmd; repair_cmd;
            loops_cmd; doctor_cmd; capabilities_cmd ]))
