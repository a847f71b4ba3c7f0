open Hbbp_isa
open Hbbp_program
open Hbbp_cpu
open Hbbp_analyzer
open Hbbp_collector
module Trace = Hbbp_telemetry.Trace
module Metrics = Hbbp_telemetry.Metrics

(* ------------------------------------------------------------------ *)
(* Reconstruction quality and graceful degradation                     *)

type degrade_reason =
  | Archive_fault of string
  | Lost_records of int
  | Ebs_starved of { samples : int; unattributed_share : float }
  | Lbr_starved of { snapshots : int; failure_rate : float }
  | Fallback of [ `Ebs_only | `Lbr_only ]
  | Flow_violation of {
      conservation_error : float;
      total_residual : float;
      worst_block : int option;
    }

type quality = Full | Degraded of degrade_reason list

let pp_degrade_reason ppf = function
  | Archive_fault s -> Format.fprintf ppf "archive: %s" s
  | Lost_records n -> Format.fprintf ppf "%d lost records" n
  | Ebs_starved { samples; unattributed_share } ->
      Format.fprintf ppf "EBS starved (%d samples, %.0f%% unattributed)"
        samples (100.0 *. unattributed_share)
  | Lbr_starved { snapshots; failure_rate } ->
      Format.fprintf ppf "LBR starved (%d snapshots, %.0f%% stream failures)"
        snapshots (100.0 *. failure_rate)
  | Fallback `Ebs_only -> Format.pp_print_string ppf "EBS-only fallback"
  | Fallback `Lbr_only -> Format.pp_print_string ppf "LBR-only fallback"
  | Flow_violation { conservation_error; total_residual; worst_block } ->
      Format.fprintf ppf
        "flow conservation violated (error %.3f, %.0f unexplained \
         executions%a)"
        conservation_error total_residual
        (fun ppf -> function
          | Some gid -> Format.fprintf ppf ", worst at block %d" gid
          | None -> ())
        worst_block

let pp_quality ppf = function
  | Full -> Format.pp_print_string ppf "full"
  | Degraded reasons ->
      Format.fprintf ppf "degraded (%a)"
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.pp_print_string ppf "; ")
           pp_degrade_reason)
        reasons

type thresholds = {
  min_ebs_samples : int;
  max_unattributed_share : float;
  min_lbr_snapshots : int;
  max_stream_failure : float;
  max_lost_records : int;
  max_conservation_error : float;
}

let default_thresholds =
  {
    min_ebs_samples = 8;
    max_unattributed_share = 0.5;
    min_lbr_snapshots = 4;
    max_stream_failure = 0.6;
    max_lost_records = 0;
    (* Healthy sampled reconstructions of the bundled workloads stay
       under 0.035; systematic corruption pushes the score towards 1. *)
    max_conservation_error = 0.15;
  }

type repair_mode = Off | Report | Apply

type config = {
  model : Pmu_model.t;
  criteria : Criteria.t;
  periods : [ `Auto | `Fixed of Period.pair ];
  sde : Hbbp_instrument.Sde.config;
  max_instructions : int;
  count_events : Pmu_event.t list;
  thresholds : thresholds;
  keep_records : bool;
  engine : Machine.engine;
  repair : repair_mode;
}

let default_config =
  {
    model = Pmu_model.default;
    criteria = Criteria.default;
    periods = `Auto;
    sde = Hbbp_instrument.Sde.default_config;
    max_instructions = 2_000_000_000;
    count_events = [ Pmu_event.Inst_retired_any ];
    thresholds = default_thresholds;
    keep_records = false;
    engine = Machine.Superblock;
    repair = Report;
  }

type profile = {
  workload : Workload.t;
  config : config;
  stats : Machine.run_stats;
  pmu_health : Pmu.health;
  clean_cycles : int;
  static : Static.t;
  static_unpatched : Static.t;
  reference : Bbec.t;
  reference_mix : (Mnemonic.t * float) list;
  ebs : Ebs_estimator.t;
  lbr : Lbr_estimator.t;
  bias : Bias.t;
  hbbp : Bbec.t;
  sim_periods : Period.pair;
  paper_periods : Period.pair;
  collection_overhead : float;
  sde_slowdown : float;
  sde_total : int64;
  sde_lost_kernel : int;
  pmu_counts : (Pmu_event.t * int64) list;
  records : Record.t list;
  record_count : int;
  quality : quality;
  repair_report : Hbbp_verifier.Repair.report option;
}

let user_maps static =
  List.filter_map
    (fun (img : Image.t) ->
      if Ring.equal img.ring Ring.User then
        Static.map_of_image static img.name
      else None)
    (Process.images (Static.process static))

(* ------------------------------------------------------------------ *)
(* Mergeable partial reconstruction state                              *)

(* Everything a reconstruction needs from the record stream, in
   mergeable form: the estimator and bias accumulators (integer-domain,
   so merges are exact) plus the stream-level tallies the quality
   verdict reads.  Chunks feed in arrival order; partials from
   contiguous shards merge in order; [finalize] turns the merged state
   into a reconstruction.  Feeding a stream as one chunk, as many
   chunks, or as per-shard partials merged later all produce
   bit-identical reconstructions. *)
module Partial = struct
  type t = {
    static : Static.t;
    ebs_period : int;
    lbr_period : int;
    ebs_acc : Ebs_estimator.Acc.acc;
    lbr_acc : Lbr_estimator.Acc.acc;
    bias_acc : Bias.Acc.acc;
    mutable records : int;
    mutable ebs_samples : int;
    mutable lbr_snapshots : int;
    mutable other_samples : int;
    mutable lost : int;
    mutable faults_rev : Perf_data.fault list;
  }

  let create ~static ~ebs_period ~lbr_period () =
    {
      static;
      ebs_period;
      lbr_period;
      ebs_acc = Ebs_estimator.Acc.create static;
      lbr_acc = Lbr_estimator.Acc.create static;
      bias_acc = Bias.Acc.create ();
      records = 0;
      ebs_samples = 0;
      lbr_snapshots = 0;
      other_samples = 0;
      lost = 0;
      faults_rev = [];
    }

  let static t = t.static
  let ebs_period t = t.ebs_period
  let lbr_period t = t.lbr_period
  let record_count t = t.records
  let ebs_samples t = t.ebs_samples
  let lbr_snapshots t = t.lbr_snapshots
  let other_samples t = t.other_samples
  let lost_records t = t.lost
  let faults t = List.rev t.faults_rev

  let add t (r : Record.t) =
    t.records <- t.records + 1;
    match r with
    | Record.Sample s -> (
        match s.Record.event with
        | Pmu_event.Inst_retired_prec_dist ->
            t.ebs_samples <- t.ebs_samples + 1;
            Ebs_estimator.Acc.add t.static t.ebs_acc
              { Sample_db.ip = s.Record.ip; ring = s.Record.ring }
        | Pmu_event.Br_inst_retired_near_taken ->
            t.lbr_snapshots <- t.lbr_snapshots + 1;
            let sample =
              { Sample_db.entries = s.Record.lbr; ring = s.Record.ring }
            in
            Lbr_estimator.Acc.add t.static t.lbr_acc sample;
            Bias.Acc.add t.static t.bias_acc sample
        | _ -> t.other_samples <- t.other_samples + 1)
    | Record.Lost n -> t.lost <- t.lost + n
    | Record.Comm _ | Record.Mmap _ | Record.Fork _ -> ()

  let feed t chunk =
    Trace.with_span ~cat:"analyze" "chunk" (fun () -> List.iter (add t) chunk)

  let note_faults t faults =
    List.iter (fun f -> t.faults_rev <- f :: t.faults_rev) faults

  let merge a b =
    if not (a.static == b.static) then
      invalid_arg "Pipeline.Partial.merge: partials must share one static view";
    if a.ebs_period <> b.ebs_period || a.lbr_period <> b.lbr_period then
      invalid_arg "Pipeline.Partial.merge: sampling period mismatch";
    {
      static = a.static;
      ebs_period = a.ebs_period;
      lbr_period = a.lbr_period;
      ebs_acc = Ebs_estimator.Acc.merge a.ebs_acc b.ebs_acc;
      lbr_acc = Lbr_estimator.Acc.merge a.lbr_acc b.lbr_acc;
      bias_acc = Bias.Acc.merge a.bias_acc b.bias_acc;
      records = a.records + b.records;
      ebs_samples = a.ebs_samples + b.ebs_samples;
      lbr_snapshots = a.lbr_snapshots + b.lbr_snapshots;
      other_samples = a.other_samples + b.other_samples;
      lost = a.lost + b.lost;
      faults_rev = b.faults_rev @ a.faults_rev;
    }

  (* ---------------------------------------------------------------- *)
  (* Checkpoint serialization: the archive's v2 framing style — magic,
     version byte, CRC-guarded length-prefixed sections — over the
     accumulator state.  Everything in a partial is integer-domain
     (tallies, counts, sorted assoc lists), so serialize/restore is an
     exact round trip and a resumed analysis finalizes to the same
     bytes as an uninterrupted one. *)

  let magic = "HBBPPART"
  (* Version 2 added the bias accumulator's stream set. *)
  let serialize_version = 2

  let w_i64 buf v = Buffer.add_int64_le buf (Int64.of_int v)

  let w_str buf s =
    w_i64 buf (String.length s);
    Buffer.add_string buf s

  let section_code = function
    | Perf_data.Header -> 0
    | Perf_data.Images -> 1
    | Perf_data.Kernel_text -> 2
    | Perf_data.Records -> 3

  let section_of_code = function
    | 0 -> Some Perf_data.Header
    | 1 -> Some Perf_data.Images
    | 2 -> Some Perf_data.Kernel_text
    | 3 -> Some Perf_data.Records
    | _ -> None

  let serialize t =
    let buf = Buffer.create 4096 in
    Buffer.add_string buf magic;
    Buffer.add_uint8 buf serialize_version;
    let section write_payload =
      let p = Buffer.create 1024 in
      write_payload p;
      let payload = Buffer.to_bytes p in
      w_i64 buf (Bytes.length payload);
      w_i64 buf (Hbbp_util.Crc32.bytes payload);
      Buffer.add_bytes buf payload
    in
    section (fun p ->
        w_i64 p t.ebs_period;
        w_i64 p t.lbr_period;
        w_i64 p t.records;
        w_i64 p t.ebs_samples;
        w_i64 p t.lbr_snapshots;
        w_i64 p t.other_samples;
        w_i64 p t.lost);
    section (fun p ->
        let raw, unattributed = Ebs_estimator.Acc.export t.ebs_acc in
        w_i64 p unattributed;
        w_i64 p (Array.length raw);
        Array.iter (w_i64 p) raw);
    section (fun p ->
        let r = Lbr_estimator.Acc.export t.lbr_acc in
        w_i64 p r.Lbr_estimator.Acc.r_total_blocks;
        w_i64 p r.Lbr_estimator.Acc.r_snapshots;
        w_i64 p r.Lbr_estimator.Acc.r_usable;
        w_i64 p r.Lbr_estimator.Acc.r_inconsistent;
        w_i64 p r.Lbr_estimator.Acc.r_discarded;
        let by_k = r.Lbr_estimator.Acc.r_by_k in
        w_i64 p (Array.length by_k);
        Array.iter
          (fun row ->
            w_i64 p (Array.length row);
            Array.iter (w_i64 p) row)
          by_k);
    section (fun p ->
        let r = Bias.Acc.export t.static t.bias_acc in
        w_i64 p r.Bias.Acc.r_snapshots;
        w_i64 p r.Bias.Acc.r_deep_total;
        let table bindings =
          w_i64 p (List.length bindings);
          List.iter
            (fun (k, v) ->
              w_i64 p k;
              w_i64 p v)
            bindings
        in
        table r.Bias.Acc.r_entry0;
        table r.Bias.Acc.r_deep;
        table r.Bias.Acc.r_adjacent;
        table r.Bias.Acc.r_failed;
        let streams = r.Bias.Acc.r_streams in
        w_i64 p (List.length streams);
        List.iter
          (fun (owner, target, src) ->
            w_i64 p owner;
            w_i64 p target;
            w_i64 p src)
          streams);
    section (fun p ->
        let faults = List.rev t.faults_rev in
        w_i64 p (List.length faults);
        List.iter
          (fun f ->
            match f with
            | Perf_data.Checksum_mismatch s ->
                Buffer.add_uint8 p 0;
                Buffer.add_uint8 p (section_code s)
            | Perf_data.Truncated_records { expected; salvaged } ->
                Buffer.add_uint8 p 1;
                w_i64 p (match expected with None -> -1 | Some e -> e);
                w_i64 p salvaged
            | Perf_data.Corrupt_records { index; reason; salvaged } ->
                Buffer.add_uint8 p 2;
                w_i64 p index;
                w_i64 p salvaged;
                w_str p reason)
          faults);
    Buffer.to_bytes buf

  exception Bad of string

  type cursor = { data : bytes; mutable pos : int; limit : int }

  let need c n =
    if c.pos + n > c.limit then raise (Bad "truncated checkpoint state")

  let r_i64 c =
    need c 8;
    let v = Int64.to_int (Bytes.get_int64_le c.data c.pos) in
    c.pos <- c.pos + 8;
    v

  let r_u8 c =
    need c 1;
    let v = Bytes.get_uint8 c.data c.pos in
    c.pos <- c.pos + 1;
    v

  let r_str c =
    let n = r_i64 c in
    if n < 0 then raise (Bad "negative string length");
    need c n;
    let s = Bytes.sub_string c.data c.pos n in
    c.pos <- c.pos + n;
    s

  let r_array c =
    let n = r_i64 c in
    if n < 0 then raise (Bad "negative array length");
    Array.init n (fun _ -> r_i64 c)

  (* One CRC-guarded section: bounds the cursor to the payload, runs
     the parser, then checks the parser consumed exactly the payload. *)
  let r_section c parse =
    let len = r_i64 c in
    if len < 0 then raise (Bad "negative section length");
    let crc = r_i64 c in
    need c len;
    if Hbbp_util.Crc32.bytes ~off:c.pos ~len c.data <> crc then
      raise (Bad "section CRC mismatch");
    let sub = { data = c.data; pos = c.pos; limit = c.pos + len } in
    let v = parse sub in
    if sub.pos <> sub.limit then raise (Bad "trailing section bytes");
    c.pos <- c.pos + len;
    v

  let restore ~static data =
    try
      if Bytes.length data < String.length magic + 1 then
        raise (Bad "truncated header");
      if
        not
          (String.equal
             (Bytes.sub_string data 0 (String.length magic))
             magic)
      then raise (Bad "bad magic");
      let c =
        { data; pos = String.length magic; limit = Bytes.length data }
      in
      (match r_u8 c with
      | v when v = serialize_version -> ()
      | v -> raise (Bad (Printf.sprintf "unsupported version %d" v)));
      let ebs_period, lbr_period, records, ebs_samples, lbr_snapshots,
          other_samples, lost =
        r_section c (fun s ->
            let ebs_period = r_i64 s in
            let lbr_period = r_i64 s in
            let records = r_i64 s in
            let ebs_samples = r_i64 s in
            let lbr_snapshots = r_i64 s in
            let other_samples = r_i64 s in
            let lost = r_i64 s in
            ( ebs_period, lbr_period, records, ebs_samples, lbr_snapshots,
              other_samples, lost ))
      in
      let ebs_acc =
        r_section c (fun s ->
            let unattributed = r_i64 s in
            let raw = r_array s in
            if Array.length raw <> Static.total_blocks static then
              raise (Bad "EBS block count does not match the static view");
            Ebs_estimator.Acc.import (raw, unattributed))
      in
      let lbr_acc =
        r_section c (fun s ->
            let total_blocks = r_i64 s in
            if total_blocks <> Static.total_blocks static then
              raise (Bad "LBR block count does not match the static view");
            let snapshots = r_i64 s in
            let usable = r_i64 s in
            let inconsistent = r_i64 s in
            let discarded = r_i64 s in
            let n_k = r_i64 s in
            if n_k < 0 then raise (Bad "negative row count");
            let by_k = Array.init n_k (fun _ -> r_array s) in
            Array.iter
              (fun row ->
                let n = Array.length row in
                if n <> 0 && n <> total_blocks then
                  raise (Bad "LBR row length mismatch"))
              by_k;
            Lbr_estimator.Acc.import
              {
                Lbr_estimator.Acc.r_total_blocks = total_blocks;
                r_by_k = by_k;
                r_snapshots = snapshots;
                r_usable = usable;
                r_inconsistent = inconsistent;
                r_discarded = discarded;
              })
      in
      let bias_acc =
        r_section c (fun s ->
            let snapshots = r_i64 s in
            let deep_total = r_i64 s in
            let table () =
              let n = r_i64 s in
              if n < 0 then raise (Bad "negative table size");
              List.init n (fun _ ->
                  let k = r_i64 s in
                  let v = r_i64 s in
                  (k, v))
            in
            let entry0 = table () in
            let deep = table () in
            let adjacent = table () in
            let failed = table () in
            let n = r_i64 s in
            if n < 0 then raise (Bad "negative stream count");
            let streams =
              List.init n (fun _ ->
                  let owner = r_i64 s in
                  let target = r_i64 s in
                  let src = r_i64 s in
                  (owner, target, src))
            in
            Bias.Acc.import static
              {
                Bias.Acc.r_entry0 = entry0;
                r_deep = deep;
                r_adjacent = adjacent;
                r_failed = failed;
                r_streams = streams;
                r_snapshots = snapshots;
                r_deep_total = deep_total;
              })
      in
      let faults =
        r_section c (fun s ->
            let n = r_i64 s in
            if n < 0 then raise (Bad "negative fault count");
            List.init n (fun _ ->
                match r_u8 s with
                | 0 -> (
                    let code = r_u8 s in
                    match section_of_code code with
                    | Some sec -> Perf_data.Checksum_mismatch sec
                    | None ->
                        raise (Bad (Printf.sprintf "bad section code %d" code)))
                | 1 ->
                    let expected = r_i64 s in
                    let salvaged = r_i64 s in
                    Perf_data.Truncated_records
                      {
                        expected = (if expected < 0 then None else Some expected);
                        salvaged;
                      }
                | 2 ->
                    let index = r_i64 s in
                    let salvaged = r_i64 s in
                    let reason = r_str s in
                    Perf_data.Corrupt_records { index; reason; salvaged }
                | t -> raise (Bad (Printf.sprintf "bad fault tag %d" t))))
      in
      if c.pos <> c.limit then raise (Bad "trailing bytes");
      Ok
        {
          static;
          ebs_period;
          lbr_period;
          ebs_acc;
          lbr_acc;
          bias_acc;
          records;
          ebs_samples;
          lbr_snapshots;
          other_samples;
          lost;
          faults_rev = List.rev faults;
        }
    with Bad msg -> Error msg
end

type reconstruction = {
  r_static : Static.t;
  r_ebs : Ebs_estimator.t;
  r_lbr : Lbr_estimator.t;
  r_bias : Bias.t;
  r_hbbp : Bbec.t;
  r_quality : quality;
  r_flow : Hbbp_verifier.Flow.report;
  r_repair : Hbbp_verifier.Repair.report option;
  r_partial : Partial.t;
}

(* Sampling-health counters of one reconstruction: everything the paper
   blames estimator error on, as observed by the analyzer itself. *)
let record_reconstruction_metrics (r : reconstruction) =
  if Metrics.enabled () then begin
    let c name n = Metrics.add (Metrics.counter name) n in
    let ebs_samples =
      Array.fold_left ( + ) r.r_ebs.Ebs_estimator.unattributed
        r.r_ebs.Ebs_estimator.raw
    in
    c "ebs.samples" ebs_samples;
    c "ebs.unattributed_samples" r.r_ebs.Ebs_estimator.unattributed;
    c "lbr.snapshots" r.r_lbr.Lbr_estimator.snapshots;
    c "lbr.streams_usable" r.r_lbr.Lbr_estimator.usable_streams;
    c "lbr.streams_inconsistent" r.r_lbr.Lbr_estimator.inconsistent_streams;
    c "lbr.streams_discarded" r.r_lbr.Lbr_estimator.discarded_streams;
    let streams =
      r.r_lbr.Lbr_estimator.usable_streams
      + r.r_lbr.Lbr_estimator.inconsistent_streams
      + r.r_lbr.Lbr_estimator.discarded_streams
    in
    Metrics.set
      (Metrics.gauge "lbr.stream_failure_rate")
      (if streams = 0 then 0.0
       else
         float_of_int (streams - r.r_lbr.Lbr_estimator.usable_streams)
         /. float_of_int streams);
    c "bias.flagged_blocks" (List.length (Bias.flagged_blocks r.r_bias));
    match r.r_quality with
    | Full -> ()
    | Degraded reasons ->
        c "degrade.reconstructions" 1;
        c "degrade.reasons" (List.length reasons);
        List.iter
          (function
            | Fallback `Ebs_only -> c "degrade.fallback_ebs_only" 1
            | Fallback `Lbr_only -> c "degrade.fallback_lbr_only" 1
            | Archive_fault _ -> c "degrade.archive_faults" 1
            | Lost_records n -> c "degrade.lost_records" n
            | Flow_violation _ -> c "degrade.flow_violations" 1
            | Ebs_starved _ | Lbr_starved _ -> ())
          reasons
  end

(* Channel health against the configured thresholds: the analyzer-side
   analogue of the PMU's own sampling-health accounting.  A channel is
   "starved" when it cannot plausibly support per-block estimation on
   its own — the situations the paper's decision criteria assume never
   happen on healthy hardware. *)
let assess_quality (th : thresholds) ~ledger ~lost ~(ebs : Ebs_estimator.t)
    ~(lbr : Lbr_estimator.t) =
  let ebs_total =
    Array.fold_left ( + ) ebs.Ebs_estimator.unattributed ebs.Ebs_estimator.raw
  in
  let unattributed_share =
    if ebs_total = 0 then 1.0
    else float_of_int ebs.Ebs_estimator.unattributed /. float_of_int ebs_total
  in
  let ebs_bad =
    ebs_total < th.min_ebs_samples
    || unattributed_share > th.max_unattributed_share
  in
  let streams =
    lbr.Lbr_estimator.usable_streams
    + lbr.Lbr_estimator.inconsistent_streams
    + lbr.Lbr_estimator.discarded_streams
  in
  let failure_rate =
    if streams = 0 then 0.0
    else
      float_of_int (streams - lbr.Lbr_estimator.usable_streams)
      /. float_of_int streams
  in
  let lbr_bad =
    lbr.Lbr_estimator.snapshots < th.min_lbr_snapshots
    || failure_rate > th.max_stream_failure
  in
  let fallback =
    if ebs_bad && not lbr_bad then Some `Lbr_only
    else if lbr_bad && not ebs_bad then Some `Ebs_only
    else None
  in
  let reasons =
    List.map
      (fun f -> Archive_fault (Format.asprintf "%a" Perf_data.pp_fault f))
      ledger
    @ (if lost > th.max_lost_records then [ Lost_records lost ] else [])
    @ (if ebs_bad then
         [ Ebs_starved { samples = ebs_total; unattributed_share } ]
       else [])
    @ (if lbr_bad then
         [ Lbr_starved { snapshots = lbr.Lbr_estimator.snapshots; failure_rate } ]
       else [])
    @ match fallback with Some f -> [ Fallback f ] | None -> []
  in
  let quality = if reasons = [] then Full else Degraded reasons in
  (quality, fallback)

(* Single-channel reconstruction reuses the fusion path: a length rule
   with cutoff 0 sends every block to EBS, cutoff max_int to LBR. *)
let fallback_criteria = function
  | `Ebs_only -> Criteria.Length_rule { cutoff = 0; bias_to_ebs = false }
  | `Lbr_only -> Criteria.Length_rule { cutoff = max_int; bias_to_ebs = false }

(* Turn accumulated partial state into a reconstruction.  The partial
   holds everything bias contamination needs, so [replay] is ignored
   (see pipeline.mli).  All reconstruction entry points — batch,
   streaming, merged shards — go through here, which is what makes them
   bit-identical. *)
let finalize ?(criteria = Criteria.default) ?(thresholds = default_thresholds)
    ?(repair = Report) ?replay:_ (p : Partial.t) =
  let span name f = Trace.with_span ~cat:"analyze" name f in
  let static = Partial.static p in
  let ebs =
    span "ebs_finalize" (fun () ->
        Ebs_estimator.finalize static ~period:(Partial.ebs_period p)
          p.Partial.ebs_acc)
  in
  let lbr =
    span "lbr_finalize" (fun () ->
        Lbr_estimator.finalize static ~period:(Partial.lbr_period p)
          p.Partial.lbr_acc)
  in
  let bias =
    span "bias_finalize" (fun () ->
        Bias.finalize static p.Partial.bias_acc ~replay:None)
  in
  let quality, fallback =
    assess_quality thresholds ~ledger:(Partial.faults p)
      ~lost:(Partial.lost_records p) ~ebs ~lbr
  in
  let criteria =
    match fallback with
    | None -> criteria
    | Some which -> fallback_criteria which
  in
  let hbbp =
    span "fuse" (fun () -> Combine.fuse static ~criteria ~bias ~ebs ~lbr)
  in
  (* Kirchhoff cross-check of the fused counts: badly non-conserving
     flow means the reconstruction is internally inconsistent no matter
     how healthy each channel looked on its own. *)
  let fstruct, flow =
    Trace.with_span ~cat:"verify" "flow_check" (fun () ->
        let s = Hbbp_verifier.Flow.structure static in
        (s, Hbbp_verifier.Flow.check_with s hbbp))
  in
  if Metrics.enabled () then begin
    Metrics.set
      (Metrics.gauge "verify.conservation_error")
      flow.Hbbp_verifier.Flow.conservation_error;
    Metrics.set
      (Metrics.gauge "verify.flow_residual")
      flow.Hbbp_verifier.Flow.total_residual;
    Metrics.add
      (Metrics.counter "verify.flow_checks")
      1;
    if
      flow.Hbbp_verifier.Flow.conservation_error
      > thresholds.max_conservation_error
    then Metrics.add (Metrics.counter "verify.flow_violations") 1
  end;
  let quality =
    if
      flow.Hbbp_verifier.Flow.conservation_error
      > thresholds.max_conservation_error
    then begin
      let reason =
        Flow_violation
          {
            conservation_error = flow.Hbbp_verifier.Flow.conservation_error;
            total_residual = flow.Hbbp_verifier.Flow.total_residual;
            worst_block =
              (match flow.Hbbp_verifier.Flow.worst with
              | w :: _ -> Some w.Hbbp_verifier.Flow.gid
              | [] -> None);
          }
      in
      match quality with
      | Full -> Degraded [ reason ]
      | Degraded reasons -> Degraded (reasons @ [ reason ])
    end
    else quality
  in
  (* Count repair: project the fused counts onto the conservation
     polytope, low-confidence blocks absorbing the correction.  The
     quality verdict above is deliberately based on the *pre*-repair
     check — Apply mode cleans the counts but cannot launder a corrupt
     reconstruction into a Full verdict. *)
  let repair_report =
    match repair with
    | Off -> None
    | Report | Apply ->
        let weights =
          Hbbp_verifier.Repair.confidence
            ~use_ebs:
              (Array.map
                 (function
                   | Criteria.Use_ebs -> true
                   | Criteria.Use_lbr -> false)
                 (Combine.decisions static ~criteria ~bias ~ebs ~lbr))
            ~ebs_raw:ebs.Ebs_estimator.raw
            ~lbr_weight:lbr.Lbr_estimator.weight
            (Static.total_blocks static)
        in
        let rep =
          Trace.with_span ~cat:"verify" "repair" (fun () ->
              Hbbp_verifier.Repair.repair ~weights fstruct hbbp)
        in
        if Metrics.enabled () then begin
          Metrics.add (Metrics.counter "repair.runs") 1;
          Metrics.set
            (Metrics.gauge "repair.pre_conservation_error")
            rep.Hbbp_verifier.Repair.pre.Hbbp_verifier.Flow.conservation_error;
          Metrics.set
            (Metrics.gauge "repair.post_conservation_error")
            rep.Hbbp_verifier.Repair.post.Hbbp_verifier.Flow.conservation_error;
          Metrics.add
            (Metrics.counter "repair.adjusted_blocks")
            rep.Hbbp_verifier.Repair.adjusted_blocks;
          Metrics.add
            (Metrics.counter "repair.sweeps")
            rep.Hbbp_verifier.Repair.iterations;
          Metrics.set
            (Metrics.gauge "repair.moved_mass")
            rep.Hbbp_verifier.Repair.moved_mass;
          if repair = Apply then
            Metrics.add (Metrics.counter "repair.applied") 1
        end;
        Some rep
  in
  let hbbp =
    match (repair, repair_report) with
    | Apply, Some rep -> rep.Hbbp_verifier.Repair.repaired
    | _ -> hbbp
  in
  let r =
    {
      r_static = static;
      r_ebs = ebs;
      r_lbr = lbr;
      r_bias = bias;
      r_hbbp = hbbp;
      r_quality = quality;
      r_flow = flow;
      r_repair = repair_report;
      r_partial = p;
    }
  in
  record_reconstruction_metrics r;
  r

let reconstruct ?criteria ?thresholds ?repair ?(ledger = []) ~static
    ~ebs_period ~lbr_period records =
  let p = Partial.create ~static ~ebs_period ~lbr_period () in
  Partial.note_faults p ledger;
  Partial.feed p records;
  finalize ?criteria ?thresholds ?repair p

(* Chunked streaming reconstruction: [chunks ()] yields record chunks
   until [None]; state stays bounded by the accumulators plus one
   chunk. *)
let reconstruct_stream ?criteria ?thresholds ?repair ?(ledger = []) ~static
    ~ebs_period ~lbr_period chunks =
  let p = Partial.create ~static ~ebs_period ~lbr_period () in
  Partial.note_faults p ledger;
  let rec pump () =
    match chunks () with
    | Some chunk ->
        Partial.feed p chunk;
        pump ()
    | None -> ()
  in
  pump ();
  finalize ?criteria ?thresholds ?repair p

(* Merging finalized reconstructions re-finalizes the merged partial
   state — the estimator/bias accumulators are the mergeable core; the
   finalized arrays themselves are not (fallback and bias are
   non-linear). *)
let merge_reconstructions ?criteria ?thresholds ?repair a b =
  finalize ?criteria ?thresholds ?repair
    (Partial.merge a.r_partial b.r_partial)

let collect_archive ?(config = default_config) (w : Workload.t) =
  Trace.with_span ~cat:"pipeline"
    ~args:[ ("workload", w.Workload.name) ]
    "collect_archive"
  @@ fun () ->
  let sim_periods =
    match config.periods with
    | `Auto -> Period.simulation w.Workload.runtime_class
    | `Fixed pair -> pair
  in
  let machine =
    Machine.create ~process:w.Workload.live_process ~engine:config.engine ()
  in
  let session = Session.configure config.model sim_periods in
  Machine.add_observer machine (Pmu.observer (Session.pmu session));
  let (_ : Machine.run_stats) =
    Trace.with_span ~cat:"pipeline" "execute" (fun () ->
        Machine.run machine ~entry:w.Workload.entry
          ~max_instructions:config.max_instructions ())
  in
  Trace.with_span ~cat:"pipeline" "archive" (fun () ->
      Perf_data.of_session ~workload_name:w.Workload.name ~session
        ~analysis:w.Workload.analysis_process ~live:w.Workload.live_process)

let analyze_archive ?criteria ?thresholds ?repair ?ledger
    (archive : Perf_data.t) =
  let static = Static.create_exn (Perf_data.analysis_process archive) in
  reconstruct ?criteria ?thresholds ?repair ?ledger ~static
    ~ebs_period:archive.Perf_data.ebs_period
    ~lbr_period:archive.Perf_data.lbr_period archive.Perf_data.records

(* Streaming multi-archive analysis: one partial per archive (chunked
   off the file, never materializing a record list), merged in path
   order, finalized over the merged totals.  All archives must agree on
   workload name and sampling periods (shards of one collection do);
   the static view is built once, from the first archive's metadata. *)
let analyze_archives ?criteria ?thresholds ?repair ?chunk_records paths =
  if paths = [] then invalid_arg "Pipeline.analyze_archives: no archives";
  let render e = Format.asprintf "%a" Perf_data.pp_error e in
  let exception Fail of string in
  try
    let meta = ref None and static = ref None in
    let partial_of_path path =
      Trace.with_span ~cat:"analyze" ~args:[ ("path", path) ] "archive"
      @@ fun () ->
      match Perf_data.Stream.open_file ?chunk_records path with
      | Error e -> raise (Fail (Printf.sprintf "%s: %s" path (render e)))
      | Ok s ->
          Fun.protect
            ~finally:(fun () -> Perf_data.Stream.close s)
            (fun () ->
              let m = Perf_data.Stream.meta s in
              let st =
                match !static with
                | None ->
                    let st =
                      Static.create_exn (Perf_data.analysis_process m)
                    in
                    meta := Some m;
                    static := Some st;
                    st
                | Some st ->
                    let m0 = Option.get !meta in
                    if
                      m.Perf_data.workload_name
                      <> m0.Perf_data.workload_name
                      || m.Perf_data.ebs_period <> m0.Perf_data.ebs_period
                      || m.Perf_data.lbr_period <> m0.Perf_data.lbr_period
                    then
                      raise
                        (Fail
                           (Printf.sprintf
                              "%s: shard metadata mismatch (workload %S, \
                               periods %d/%d; expected %S, %d/%d)"
                              path m.Perf_data.workload_name
                              m.Perf_data.ebs_period m.Perf_data.lbr_period
                              m0.Perf_data.workload_name
                              m0.Perf_data.ebs_period
                              m0.Perf_data.lbr_period));
                    st
              in
              let p =
                Partial.create ~static:st
                  ~ebs_period:m.Perf_data.ebs_period
                  ~lbr_period:m.Perf_data.lbr_period ()
              in
              let rec pump () =
                match Perf_data.Stream.next s with
                | Some chunk ->
                    Partial.feed p chunk;
                    pump ()
                | None -> ()
              in
              pump ();
              Partial.note_faults p (Perf_data.Stream.ledger s);
              p)
    in
    let partials = List.map partial_of_path paths in
    let merged =
      match partials with
      | p :: rest -> List.fold_left Partial.merge p rest
      | [] -> assert false
    in
    Ok (Option.get !meta, finalize ?criteria ?thresholds ?repair merged)
  with
  | Fail msg -> Error msg
  | Sys_error msg -> Error msg

(* Run-level counters: execution volume plus the PMU's sampling-health
   accounting (the repo observing its own collection quality, the way
   the paper accounts for perf's). *)
let record_run_metrics (p : profile) =
  if Metrics.enabled () then begin
    let c name n = Metrics.add (Metrics.counter name) n in
    c "pipeline.runs" 1;
    c "pipeline.retired" p.stats.Machine.retired;
    c "pipeline.cycles" p.stats.Machine.cycles;
    c "pipeline.taken_branches" p.stats.Machine.taken_branches;
    c "pipeline.kernel_retired" p.stats.Machine.kernel_retired;
    c "pipeline.records" p.record_count;
    Metrics.set
      (Metrics.gauge "pipeline.collection_overhead")
      p.collection_overhead;
    Metrics.set (Metrics.gauge "pipeline.sde_slowdown") p.sde_slowdown;
    let h = p.pmu_health in
    c "pmu.pmi_count" h.Pmu.pmi_count;
    c "pmu.shadow_slides" h.Pmu.shadow_slides;
    c "pmu.lbr_snapshots" h.Pmu.lbr_snapshots;
    c "pmu.lbr_stuck_snapshots" h.Pmu.stuck_snapshots;
    c "pmu.lbr_misrotated_snapshots" h.Pmu.misrotated_snapshots;
    c "pmu.lbr_dropped_records" h.Pmu.dropped_records;
    let skid =
      Metrics.histogram
        ~bounds:(Array.init (Pmu.max_skid_bucket + 1) float_of_int)
        "pmu.skid_displacement"
    in
    Array.iteri
      (fun d n -> if n > 0 then Metrics.observe ~n skid (float_of_int d))
      h.Pmu.skid_hist;
    c "sde.lost_kernel_instructions" p.sde_lost_kernel
  end

let run ?(config = default_config) (w : Workload.t) =
  Trace.with_span ~cat:"pipeline" ~args:[ ("workload", w.Workload.name) ] "run"
  @@ fun () ->
  let sim_periods, paper_periods =
    match config.periods with
    | `Auto -> (Period.simulation w.runtime_class, Period.paper w.runtime_class)
    | `Fixed pair -> (pair, Period.paper w.runtime_class)
  in
  (* Static views: what the analyzer finds on disk, and the same view
     with kernel text patched from the live image (the paper's remedy). *)
  let static_unpatched, static =
    Trace.with_span ~cat:"pipeline" "static" (fun () ->
        let static_unpatched = Static.create_exn w.analysis_process in
        let static =
          if w.analysis_process == w.live_process then static_unpatched
          else Kernel_patch.patch_static static_unpatched ~live:w.live_process
        in
        (static_unpatched, static))
  in
  (* One execution, three observers. *)
  let machine =
    Machine.create ~process:w.live_process ~engine:config.engine ()
  in
  let sde = Hbbp_instrument.Sde.create config.sde (user_maps static) in
  let session = Session.configure config.model sim_periods in
  let counting = Pmu.create config.model
      (List.map
         (fun event -> { Pmu.event; mode = Pmu.Counting })
         config.count_events)
  in
  Machine.add_observer machine (Hbbp_instrument.Sde.observer sde);
  Machine.add_observer machine (Pmu.observer (Session.pmu session));
  Machine.add_observer machine (Pmu.observer counting);
  let stats =
    Trace.with_span ~cat:"pipeline" "execute" (fun () ->
        Machine.run machine ~entry:w.entry
          ~max_instructions:config.max_instructions ())
  in
  (* Collection output and reconstruction. *)
  let records =
    Trace.with_span ~cat:"pipeline" "collect" (fun () ->
        Session.records session w.live_process ~pid:1 ~name:w.name)
  in
  let r =
    reconstruct ~criteria:config.criteria ~thresholds:config.thresholds
      ~repair:config.repair ~static
      ~ebs_period:(Session.ebs_period session)
      ~lbr_period:(Session.lbr_period session) records
  in
  let ebs = r.r_ebs and lbr = r.r_lbr and bias = r.r_bias and hbbp = r.r_hbbp in
  let reference, reference_mix =
    Trace.with_span ~cat:"pipeline" "reference" (fun () ->
        ( Bbec.of_block_counts static (Hbbp_instrument.Sde.block_counts sde),
          Mix.of_histogram (Hbbp_instrument.Sde.histogram sde) ))
  in
  let collection_overhead =
    Session.overhead_fraction ~paper:paper_periods ~stats ~model:config.model
  in
  let sde_slowdown =
    if stats.cycles = 0 then 1.0
    else
      float_of_int (Hbbp_instrument.Sde.instrumented_cycles sde)
      /. float_of_int stats.cycles
  in
  let p =
    {
      workload = w;
      config;
      stats;
      pmu_health = Pmu.health (Session.pmu session);
      clean_cycles = stats.cycles;
      static;
      static_unpatched;
      reference;
      reference_mix;
      ebs;
      lbr;
      bias;
      hbbp;
      sim_periods;
      paper_periods;
      collection_overhead;
      sde_slowdown;
      sde_total = Hbbp_instrument.Sde.total_instructions sde;
      sde_lost_kernel = Hbbp_instrument.Sde.lost_kernel_instructions sde;
      pmu_counts = Pmu.counts counting;
      records = (if config.keep_records then records else []);
      record_count = List.length records;
      quality = r.r_quality;
      repair_report = r.r_repair;
    }
  in
  record_run_metrics p;
  p

(* Each task builds its own machine, PMU session, SDE and PRNG from the
   workload alone, so fanning out over domains cannot perturb results:
   the profile of a workload is a pure function of (workload, config). *)
let run_many ?jobs ?(config = default_config) workloads =
  Hbbp_util.Domain_pool.run ?jobs (fun w -> run ~config w) workloads

let collect_many ?jobs ?(config = default_config) workloads =
  Hbbp_util.Domain_pool.run ?jobs (fun w -> collect_archive ~config w) workloads

let mix_of profile bbec = Mix.user_only (Mix.of_bbec profile.static bbec)
let full_mix_of profile bbec = Mix.of_bbec profile.static bbec

let error_report profile bbec =
  Error.compare_mixes ~reference:profile.reference_mix
    ~measured:(Mix.mnemonic_totals (mix_of profile bbec))

let features profile gid =
  Feature.of_block profile.static ~bias:profile.bias ~ebs:profile.ebs
    ~lbr:profile.lbr ~gid

let sde_pmu_discrepancy profile =
  let user_retired = profile.stats.retired - profile.stats.kernel_retired in
  if user_retired = 0 then 0.0
  else
    Float.abs (Int64.to_float profile.sde_total -. float_of_int user_retired)
    /. float_of_int user_retired
