type t = {
  bbec : Bbec.t;
  weight : float array;
  period : int;
  snapshots : int;
  usable_streams : int;
  inconsistent_streams : int;
  discarded_streams : int;
}

(* Mergeable accumulator.  A snapshot with [k] usable streams
   contributes 1/k per visited block, which is float arithmetic — and
   float sums are not associative, so merging finalized weights would
   not be bit-stable across shard splits.  Instead the accumulator keeps
   the state in the integer domain: one visit-tally row per snapshot
   stream count [k] (block visits from k-stream snapshots).  Integer
   rows merge exactly (associative and commutative), and [finalize]
   converts rows to weights in a fixed order (ascending k), so any
   partition of the snapshot stream yields bit-identical results.

   A walk covers an interval of block ids, so each row is kept as a
   difference array ([total_blocks + 1] long: +1 at the first block, -1
   past the last): a stream costs two bumps whatever its length.
   [tallies] prefix-sums a row back into per-block visits. *)
module Acc = struct
  type acc = {
    total_blocks : int;
    mutable by_k : int array array;  (** Index k; row [|.|] = unused. *)
    mutable snapshots : int;
    mutable usable : int;
    mutable inconsistent : int;
    mutable discarded : int;
    span : Stream_walk.span;
    mutable firsts : int array;  (** One snapshot's usable streams. *)
    mutable lasts : int array;
  }

  let create_sized total_blocks =
    {
      total_blocks;
      by_k = [||];
      snapshots = 0;
      usable = 0;
      inconsistent = 0;
      discarded = 0;
      span = Stream_walk.span ();
      firsts = [||];
      lasts = [||];
    }

  let create static = create_sized (Static.total_blocks static)

  let row acc k =
    if k >= Array.length acc.by_k then begin
      let grown = Array.make (k + 1) [||] in
      Array.blit acc.by_k 0 grown 0 (Array.length acc.by_k);
      acc.by_k <- grown
    end;
    if Array.length acc.by_k.(k) = 0 then
      acc.by_k.(k) <- Array.make (acc.total_blocks + 1) 0;
    acc.by_k.(k)

  let add static acc (s : Sample_db.lbr_sample) =
    acc.snapshots <- acc.snapshots + 1;
    let n = Array.length s.entries in
    if n >= 2 then begin
      if Array.length acc.firsts < n then begin
        acc.firsts <- Array.make n 0;
        acc.lasts <- Array.make n 0
      end;
      (* Two passes: classify the snapshot's streams first, then
         normalise the snapshot to one sample over its usable streams
         (= 1/(N-1) when all N-1 are usable, the paper's weighting). *)
      let walked = ref 0 in
      for idx = 1 to n - 1 do
        let target = s.entries.(idx - 1).Hbbp_cpu.Lbr.tgt in
        let src = s.entries.(idx).Hbbp_cpu.Lbr.src in
        match Stream_walk.walk static acc.span ~target ~src with
        | Stream_walk.Interval ->
            acc.firsts.(!walked) <- acc.span.first;
            acc.lasts.(!walked) <- acc.span.last;
            incr walked
        | Stream_walk.Inconsistent -> acc.inconsistent <- acc.inconsistent + 1
        | Stream_walk.Bad -> acc.discarded <- acc.discarded + 1
      done;
      acc.usable <- acc.usable + !walked;
      if !walked > 0 then begin
        let r = row acc !walked in
        for i = 0 to !walked - 1 do
          r.(acc.firsts.(i)) <- r.(acc.firsts.(i)) + 1;
          r.(acc.lasts.(i) + 1) <- r.(acc.lasts.(i) + 1) - 1
        done
      end
    end

  let tallies acc r =
    let out = Array.make acc.total_blocks 0 in
    let run = ref 0 in
    for gid = 0 to acc.total_blocks - 1 do
      run := !run + r.(gid);
      out.(gid) <- !run
    done;
    out

  let merge a b =
    if a.total_blocks <> b.total_blocks then
      invalid_arg "Lbr_estimator.Acc.merge: block count mismatch";
    let n_k = max (Array.length a.by_k) (Array.length b.by_k) in
    let pick (acc : acc) k =
      if k < Array.length acc.by_k then acc.by_k.(k) else [||]
    in
    let by_k =
      Array.init n_k (fun k ->
          match (pick a k, pick b k) with
          | [||], [||] -> [||]
          | [||], r | r, [||] -> Array.copy r
          | ra, rb -> Array.mapi (fun g n -> n + rb.(g)) ra)
    in
    { (create_sized a.total_blocks) with
      by_k;
      snapshots = a.snapshots + b.snapshots;
      usable = a.usable + b.usable;
      inconsistent = a.inconsistent + b.inconsistent;
      discarded = a.discarded + b.discarded;
    }

  (* Checkpoint support: integer state only, so the round trip is
     exact.  Rows travel as per-block visit tallies; empty rows stay
     empty (length 0), preserving the sparse representation [merge] and
     [finalize] rely on. *)
  type repr = {
    r_total_blocks : int;
    r_by_k : int array array;
    r_snapshots : int;
    r_usable : int;
    r_inconsistent : int;
    r_discarded : int;
  }

  let export acc =
    {
      r_total_blocks = acc.total_blocks;
      r_by_k =
        Array.map (fun r -> if Array.length r = 0 then r else tallies acc r)
          acc.by_k;
      r_snapshots = acc.snapshots;
      r_usable = acc.usable;
      r_inconsistent = acc.inconsistent;
      r_discarded = acc.discarded;
    }

  let import r =
    let differences row =
      if Array.length row = 0 then [||]
      else
        Array.init (r.r_total_blocks + 1) (fun gid ->
            (if gid < r.r_total_blocks then row.(gid) else 0)
            - if gid > 0 then row.(gid - 1) else 0)
    in
    { (create_sized r.r_total_blocks) with
      by_k = Array.map differences r.r_by_k;
      snapshots = r.r_snapshots;
      usable = r.r_usable;
      inconsistent = r.r_inconsistent;
      discarded = r.r_discarded;
    }
end

let finalize _static ~period (acc : Acc.acc) =
  let weight = Array.make acc.Acc.total_blocks 0.0 in
  Array.iteri
    (fun k r ->
      if Array.length r > 0 then begin
        let w = 1.0 /. float_of_int k in
        Array.iteri
          (fun gid n ->
            if n > 0 then weight.(gid) <- weight.(gid) +. (float_of_int n *. w))
          (Acc.tallies acc r)
      end)
    acc.Acc.by_k;
  let bbec = Bbec.create Bbec.Lbr acc.Acc.total_blocks in
  Array.iteri
    (fun gid w -> bbec.Bbec.counts.(gid) <- w *. float_of_int period)
    weight;
  {
    bbec;
    weight;
    period;
    snapshots = acc.Acc.snapshots;
    usable_streams = acc.Acc.usable;
    inconsistent_streams = acc.Acc.inconsistent;
    discarded_streams = acc.Acc.discarded;
  }

let estimate static ~period samples =
  let acc = Acc.create static in
  Array.iter (Acc.add static acc) samples;
  finalize static ~period acc
