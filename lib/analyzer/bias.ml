type branch_stat = {
  src : int;
  entry0_count : int;
  deep_count : int;
  entry0_share : float;
  deep_share : float;
  adjacent_streams : int;
  failed_streams : int;
}

type t = { flags : bool array; stats : branch_stat list; snapshots : int }

type params = {
  min_snapshots : int;
  min_entry0 : int;
  min_entry0_share : float;
  share_factor : float;
  min_failures : int;
  failure_rate : float;
}

let default_params =
  { min_snapshots = 30; min_entry0 = 8; min_entry0_share = 0.04;
    share_factor = 1.25; min_failures = 12; failure_rate = 0.10 }

(* Detection is one pass over the snapshots.  The accumulator below
   gathers per-branch integer tallies — entry[0] sightings, deep
   sightings, adjacent and failed streams — plus the set of distinct
   adjacent streams; all of it merges across shards exactly (addition
   and set union).  [finalize] flags branches from the tallies, then
   contaminates from the stream set: no registry workload has more than
   ~900 distinct streams, so each is walked once instead of once per
   sample, and the archives are never read a second time. *)

(* The distinct (owner source, target, source) triples of adjacent
   streams: an open-addressing set over one flat int array (three ints
   per slot), so adding a stream already present allocates nothing. *)
module Streams = struct
  type t = {
    mutable keys : int array;
    mutable used : Bytes.t;  (** One byte per slot. *)
    mutable count : int;
  }

  let create_sized slots =
    { keys = Array.make (3 * slots) 0; used = Bytes.make slots '\000';
      count = 0 }

  let create () = create_sized 64

  let rec probe t owner target src i =
    let mask = Bytes.length t.used - 1 in
    if Bytes.get t.used i = '\000' then i
    else if
      t.keys.(3 * i) = owner
      && t.keys.((3 * i) + 1) = target
      && t.keys.((3 * i) + 2) = src
    then i
    else probe t owner target src ((i + 1) land mask)

  let slot t owner target src =
    let h = (((owner * 0x9E3779B1) + target) * 0x85EBCA77) + src in
    probe t owner target src
      ((h lxor (h lsr 17)) land (Bytes.length t.used - 1))

  let iter f t =
    for i = 0 to Bytes.length t.used - 1 do
      if Bytes.get t.used i <> '\000' then
        f t.keys.(3 * i) t.keys.((3 * i) + 1) t.keys.((3 * i) + 2)
    done

  let rec add t owner target src =
    let i = slot t owner target src in
    if Bytes.get t.used i = '\000' then begin
      Bytes.set t.used i '\001';
      t.keys.(3 * i) <- owner;
      t.keys.((3 * i) + 1) <- target;
      t.keys.((3 * i) + 2) <- src;
      t.count <- t.count + 1;
      if 2 * t.count > Bytes.length t.used then grow t
    end

  and grow t =
    let old = { t with count = 0 } in
    let bigger = create_sized (2 * Bytes.length t.used) in
    t.keys <- bigger.keys;
    t.used <- bigger.used;
    t.count <- 0;
    iter (add t) old

  let copy t = { t with keys = Array.copy t.keys; used = Bytes.copy t.used }

  let to_sorted_list t =
    let out = ref [] in
    iter (fun o tg s -> out := (o, tg, s) :: !out) t;
    List.sort compare !out
end

module Acc = struct
  (* One per-branch tally, keyed by source address.  A taken branch's
     source is the last instruction of its block, so the count lives in
     a dense array at that block's global id ({!Static.gid_ending_at});
     [spill] holds any source that does not end a block.  [dense] is
     sized on the first [add] ([create] sees no static view). *)
  type tally = { mutable dense : int array; spill : (int, int) Hashtbl.t }

  type acc = {
    entry0 : tally;
    deep : tally;
    adjacent : tally;
    failed : tally;
    streams : Streams.t;
    span : Stream_walk.span;
    mutable snapshots : int;
    mutable deep_total : int;
  }

  let tally () = { dense = [||]; spill = Hashtbl.create 16 }

  let create () =
    {
      entry0 = tally ();
      deep = tally ();
      adjacent = tally ();
      failed = tally ();
      streams = Streams.create ();
      span = Stream_walk.span ();
      snapshots = 0;
      deep_total = 0;
    }

  let tallies acc = [ acc.entry0; acc.deep; acc.adjacent; acc.failed ]

  let size static acc =
    let n = Static.total_blocks static in
    if Array.length acc.entry0.dense <> n then
      List.iter (fun t -> t.dense <- Array.make n 0) (tallies acc)

  (* Add [n] to the tally of [src]; [gid] is
     [Static.gid_ending_at static src]. *)
  let add_count t gid src n =
    if gid >= 0 then t.dense.(gid) <- t.dense.(gid) + n
    else
      Hashtbl.replace t.spill src
        (n + Option.value ~default:0 (Hashtbl.find_opt t.spill src))

  (* Per branch: how many streams START at one of its records, and how
     many of those cannot be walked.  A missing LBR record after a branch
     merges the following stream, which then usually fails to walk — a
     high failure rate is the observable signature of record loss. *)
  let add static acc (s : Sample_db.lbr_sample) =
    let n = Array.length s.entries in
    if n >= 2 then begin
      size static acc;
      acc.snapshots <- acc.snapshots + 1;
      let first = s.entries.(0).Hbbp_cpu.Lbr.src in
      let owner_gid = ref (Static.gid_ending_at static first) in
      add_count acc.entry0 !owner_gid first 1;
      for k = 1 to n - 1 do
        let owner = s.entries.(k - 1).Hbbp_cpu.Lbr.src in
        let target = s.entries.(k - 1).Hbbp_cpu.Lbr.tgt in
        let src = s.entries.(k).Hbbp_cpu.Lbr.src in
        let src_gid = Static.gid_ending_at static src in
        add_count acc.deep src_gid src 1;
        acc.deep_total <- acc.deep_total + 1;
        add_count acc.adjacent !owner_gid owner 1;
        (match Stream_walk.walk static acc.span ~target ~src with
        | Stream_walk.Interval -> ()
        | Stream_walk.Inconsistent | Stream_walk.Bad ->
            add_count acc.failed !owner_gid owner 1);
        Streams.add acc.streams owner target src;
        owner_gid := src_gid
      done
    end

  let merge_tally a b =
    let dense =
      match (a.dense, b.dense) with
      | [||], d | d, [||] -> Array.copy d
      | da, db -> Array.mapi (fun gid n -> n + db.(gid)) da
    in
    let out = { dense; spill = Hashtbl.copy a.spill } in
    Hashtbl.iter (fun src n -> add_count out (-1) src n) b.spill;
    out

  let merge a b =
    let streams = Streams.copy a.streams in
    Streams.iter (Streams.add streams) b.streams;
    {
      entry0 = merge_tally a.entry0 b.entry0;
      deep = merge_tally a.deep b.deep;
      adjacent = merge_tally a.adjacent b.adjacent;
      failed = merge_tally a.failed b.failed;
      streams;
      span = Stream_walk.span ();
      snapshots = a.snapshots + b.snapshots;
      deep_total = a.deep_total + b.deep_total;
    }

  (* [count static t src] — the tally of one source address. *)
  let count static t src =
    let gid = Static.gid_ending_at static src in
    if gid >= 0 && gid < Array.length t.dense then t.dense.(gid)
    else Option.value ~default:0 (Hashtbl.find_opt t.spill src)

  (* Every source with a nonzero tally, as key-sorted (src, n). *)
  let bindings static t =
    let out = Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.spill [] in
    let out = ref out in
    Array.iteri
      (fun gid n ->
        if n > 0 then
          let _, _, block = Static.block static gid in
          out := (Hbbp_program.Basic_block.last_addr block, n) :: !out)
      t.dense;
    List.sort (fun (a, _) (b, _) -> compare (a : int) b) !out

  (* Checkpoint support.  Tallies export as key-sorted assoc lists by
     source address and the stream set as sorted triples, so the
     serialized form is deterministic however the accumulator was
     populated; [finalize] sorts its stats anyway, so import order
     cannot perturb results. *)
  type repr = {
    r_entry0 : (int * int) list;
    r_deep : (int * int) list;
    r_adjacent : (int * int) list;
    r_failed : (int * int) list;
    r_streams : (int * int * int) list;
    r_snapshots : int;
    r_deep_total : int;
  }

  let export static acc =
    {
      r_entry0 = bindings static acc.entry0;
      r_deep = bindings static acc.deep;
      r_adjacent = bindings static acc.adjacent;
      r_failed = bindings static acc.failed;
      r_streams = Streams.to_sorted_list acc.streams;
      r_snapshots = acc.snapshots;
      r_deep_total = acc.deep_total;
    }

  let import static r =
    let acc = create () in
    size static acc;
    let fill t =
      List.iter (fun (src, n) ->
          add_count t (Static.gid_ending_at static src) src n)
    in
    fill acc.entry0 r.r_entry0;
    fill acc.deep r.r_deep;
    fill acc.adjacent r.r_adjacent;
    fill acc.failed r.r_failed;
    List.iter (fun (o, tg, s) -> Streams.add acc.streams o tg s) r.r_streams;
    acc.snapshots <- r.r_snapshots;
    acc.deep_total <- r.r_deep_total;
    acc
end

let finalize ?(params = default_params) static (acc : Acc.acc) ~replay:_ =
  let flags = Array.make (Static.total_blocks static) false in
  let flagged_srcs = Hashtbl.create 16 in
  let stats = ref [] in
  if acc.Acc.snapshots >= params.min_snapshots then
    List.iter
      (fun (src, entry0_count) ->
        let deep_count = Acc.count static acc.Acc.deep src in
        let entry0_share =
          float_of_int entry0_count /. float_of_int acc.Acc.snapshots
        in
        let deep_share =
          if acc.Acc.deep_total = 0 then 0.0
          else float_of_int deep_count /. float_of_int acc.Acc.deep_total
        in
        let adjacent_streams = Acc.count static acc.Acc.adjacent src in
        let failed_streams = Acc.count static acc.Acc.failed src in
        stats :=
          { src; entry0_count; deep_count; entry0_share; deep_share;
            adjacent_streams; failed_streams }
          :: !stats;
        let entry0_symptom =
          entry0_count >= params.min_entry0
          && entry0_share >= params.min_entry0_share
          && entry0_share > params.share_factor *. deep_share
        in
        let failure_symptom =
          failed_streams >= params.min_failures
          && adjacent_streams > 0
          && float_of_int failed_streams /. float_of_int adjacent_streams
             > params.failure_rate
        in
        if entry0_symptom || failure_symptom then begin
          Hashtbl.replace flagged_srcs src ();
          match Static.find static src with
          | Some gid -> flags.(gid) <- true
          | None -> ()
        end)
      (Acc.bindings static acc.Acc.entry0);
  (* Contamination spreads beyond the anomalous branch itself: every
     count whose supporting stream is ADJACENT to a record of a flagged
     branch (ends at its source, or starts at its target) is suspect.
     Flag the blocks those streams visit, so HBBP can route the whole
     neighbourhood away from LBR data. *)
  let flag_forward_from addr limit =
    (* Flag the layout neighbourhood following [addr] — used when a
       suspect stream cannot even be walked. *)
    match Static.find_starting static addr with
    | None -> ()
    | Some gid0 ->
        let rec go gid k =
          if k < limit then begin
            flags.(gid) <- true;
            match Static.next_in_layout static gid with
            | Some next -> go next (k + 1)
            | None -> ()
          end
        in
        go gid0 0
  in
  let span = Stream_walk.span () in
  (* A stream is suspect when it ends at a flagged branch's record
     ([src]) or starts at one's target ([owner]). *)
  let contaminate owner target src =
    if Hashtbl.mem flagged_srcs owner || Hashtbl.mem flagged_srcs src then
      match Stream_walk.walk static span ~target ~src with
      | Stream_walk.Interval ->
          Array.fill flags span.first (span.last - span.first + 1) true
      | Stream_walk.Inconsistent | Stream_walk.Bad ->
          flag_forward_from target 4;
          Option.iter
            (fun gid -> flags.(gid) <- true)
            (Static.find static src)
  in
  if Hashtbl.length flagged_srcs > 0 then Streams.iter contaminate acc.Acc.streams;
  (* One hop along static control flow: a suspect stream's distortion
     spills onto the blocks its endpoints branch to. *)
  if Hashtbl.length flagged_srcs > 0 then begin
    let seed = Array.copy flags in
    Array.iteri
      (fun gid is_flagged ->
        if is_flagged then begin
          let _, _, block = Static.block static gid in
          let flag_target addr =
            Option.iter
              (fun g -> flags.(g) <- true)
              (Static.find_starting static addr)
          in
          match block.Hbbp_program.Basic_block.term with
          | Hbbp_program.Basic_block.Term_jump a -> flag_target a
          | Hbbp_program.Basic_block.Term_cond a ->
              flag_target a;
              Option.iter
                (fun g -> flags.(g) <- true)
                (Static.next_in_layout static gid)
          | Hbbp_program.Basic_block.Term_fallthrough ->
              Option.iter
                (fun g -> flags.(g) <- true)
                (Static.next_in_layout static gid)
          | Hbbp_program.Basic_block.Term_call _
          | Hbbp_program.Basic_block.Term_indirect_jump
          | Hbbp_program.Basic_block.Term_ret
          | Hbbp_program.Basic_block.Term_syscall
          | Hbbp_program.Basic_block.Term_sysret
          | Hbbp_program.Basic_block.Term_halt ->
              ()
        end)
      seed
  end;
  (* Deterministic order regardless of hashtable history (direct build
     vs shard merges): share descending, then source address. *)
  let stats =
    List.sort
      (fun a b ->
        match compare b.entry0_share a.entry0_share with
        | 0 -> compare a.src b.src
        | c -> c)
      !stats
  in
  { flags; stats; snapshots = acc.Acc.snapshots }

let detect ?params static samples =
  let acc = Acc.create () in
  Array.iter (Acc.add static acc) samples;
  finalize ?params static acc ~replay:None

let flagged_blocks t =
  let out = ref [] in
  Array.iteri (fun gid f -> if f then out := gid :: !out) t.flags;
  List.rev !out
