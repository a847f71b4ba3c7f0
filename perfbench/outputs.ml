(* What a task produced, reduced to digests that a speed-only change must
   leave unchanged, and the checks that turn a wrong output into a failed
   task. *)

open Hbbp_core

exception Check_failed of string

let check cond fmt =
  Printf.ksprintf (fun msg -> if not cond then raise (Check_failed msg)) fmt

let digest v =
  Digest.to_hex (Digest.string (Marshal.to_string v [ Marshal.No_sharing ]))

let reconstruction (r : Pipeline.reconstruction) =
  digest
    ( r.r_ebs,
      r.r_lbr,
      r.r_hbbp,
      r.r_quality,
      r.r_bias.Hbbp_analyzer.Bias.flags,
      Pipeline.Partial.record_count r.r_partial,
      Option.map
        (fun (rep : Hbbp_verifier.Repair.report) -> rep.repaired)
        r.r_repair )

(* The fields of a profile that the layer replay also produces. *)
let profile ~stats ~reference ~reference_mix ~ebs ~lbr ~hbbp ~quality
    ~record_count ~sde_total ~sde_lost_kernel ~pmu_counts =
  digest
    ( (stats : Hbbp_cpu.Machine.run_stats),
      (reference : Hbbp_analyzer.Bbec.t),
      reference_mix,
      (ebs : Hbbp_analyzer.Ebs_estimator.t),
      (lbr : Hbbp_analyzer.Lbr_estimator.t),
      (hbbp : Hbbp_analyzer.Bbec.t),
      (quality : Pipeline.quality),
      (record_count : int),
      (sde_total : int64),
      (sde_lost_kernel : int),
      pmu_counts )

let of_profile (p : Pipeline.profile) =
  profile ~stats:p.stats ~reference:p.reference ~reference_mix:p.reference_mix
    ~ebs:p.ebs ~lbr:p.lbr ~hbbp:p.hbbp ~quality:p.quality
    ~record_count:p.record_count ~sde_total:p.sde_total
    ~sde_lost_kernel:p.sde_lost_kernel ~pmu_counts:p.pmu_counts

let shards = 4

(* Digest of the archive files a collection published. *)
let files paths =
  String.concat "," (List.map (fun p -> Digest.to_hex (Digest.file p)) paths)
