type t = { bbec : Bbec.t; raw : int array; unattributed : int; period : int }

(* Mergeable accumulator: the whole EBS estimate is determined by the
   integer per-block sample tally plus the unattributed count, so shards
   merge with plain integer addition — exactly associative and
   commutative — and [finalize] turns the merged tally into counts. *)
module Acc = struct
  type acc = { raw : int array; mutable unattributed : int }

  let create static =
    { raw = Array.make (Static.total_blocks static) 0; unattributed = 0 }

  let add static acc (s : Sample_db.ebs_sample) =
    let gid = Static.gid_at static s.ip in
    if gid >= 0 then acc.raw.(gid) <- acc.raw.(gid) + 1
    else acc.unattributed <- acc.unattributed + 1

  let merge a b =
    if Array.length a.raw <> Array.length b.raw then
      invalid_arg "Ebs_estimator.Acc.merge: block count mismatch";
    {
      raw = Array.init (Array.length a.raw) (fun gid -> a.raw.(gid) + b.raw.(gid));
      unattributed = a.unattributed + b.unattributed;
    }

  (* Checkpoint support: the accumulator state is integers only, so a
     round trip through export/import is exact. *)
  let export acc = (Array.copy acc.raw, acc.unattributed)
  let import (raw, unattributed) = { raw = Array.copy raw; unattributed }
end

let finalize static ~period (acc : Acc.acc) =
  let raw = Array.copy acc.Acc.raw in
  let bbec = Bbec.create Bbec.Ebs (Array.length raw) in
  Static.iter
    (fun gid _ block ->
      let len = Hbbp_program.Basic_block.length block in
      if raw.(gid) > 0 && len > 0 then
        bbec.Bbec.counts.(gid) <-
          float_of_int raw.(gid) *. float_of_int period /. float_of_int len)
    static;
  { bbec; raw; unattributed = acc.Acc.unattributed; period }

let estimate static ~period samples =
  let acc = Acc.create static in
  Array.iter (Acc.add static acc) samples;
  finalize static ~period acc
