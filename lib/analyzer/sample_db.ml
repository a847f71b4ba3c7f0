open Hbbp_program
open Hbbp_cpu
module Record = Hbbp_collector.Record

type ebs_sample = { ip : int; ring : Ring.t }
type lbr_sample = { entries : Lbr.snapshot; ring : Ring.t }

type t = {
  ebs : ebs_sample array;
  lbr : lbr_sample array;
  lost : int;
  other : int;
}

(* Incremental construction: records are fed in arrival order and kept
   in reversed accumulation lists until [finalize].  Merging two builders
   concatenates their streams (left before right), so splitting a record
   stream into contiguous shards and merging the per-shard builders in
   order reproduces [of_records] on the whole stream exactly. *)
module Builder = struct
  type db = t

  type t = {
    mutable ebs_rev : ebs_sample list;
    mutable lbr_rev : lbr_sample list;
    mutable lost : int;
    mutable other : int;
  }

  let create () = { ebs_rev = []; lbr_rev = []; lost = 0; other = 0 }

  let add b (r : Record.t) =
    match r with
    | Record.Sample s -> (
        match s.event with
        | Pmu_event.Inst_retired_prec_dist ->
            b.ebs_rev <- { ip = s.ip; ring = s.ring } :: b.ebs_rev
        | Pmu_event.Br_inst_retired_near_taken ->
            b.lbr_rev <- { entries = s.lbr; ring = s.ring } :: b.lbr_rev
        | _ -> b.other <- b.other + 1)
    | Record.Lost n -> b.lost <- b.lost + n
    | Record.Comm _ | Record.Mmap _ | Record.Fork _ -> ()

  let add_list b records = List.iter (add b) records

  let merge a b =
    {
      ebs_rev = b.ebs_rev @ a.ebs_rev;
      lbr_rev = b.lbr_rev @ a.lbr_rev;
      lost = a.lost + b.lost;
      other = a.other + b.other;
    }

  let finalize b : db =
    {
      ebs = Array.of_list (List.rev b.ebs_rev);
      lbr = Array.of_list (List.rev b.lbr_rev);
      lost = b.lost;
      other = b.other;
    }
end

let of_records records =
  let b = Builder.create () in
  Builder.add_list b records;
  Builder.finalize b
