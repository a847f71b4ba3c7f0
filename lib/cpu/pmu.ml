open Hbbp_isa
open Hbbp_program
module Faults = Hbbp_faults.Faults

type counter_mode = Counting | Sampling of { period : int; lbr : bool }
type counter_config = { event : Pmu_event.t; mode : counter_mode }

type sample = {
  event : Pmu_event.t;
  ip : int;
  lbr : Lbr.entry array;
  ring : Ring.t;
  retired_index : int;
  cycles : int;
}

type counter = {
  config : counter_config;
  mutable value : int;  (* progress towards the next overflow *)
  mutable total : int;
}

type pending = {
  counter_idx : int;
  mutable skid_left : int;
  branch_based : bool;  (* skid counts taken branches, not retirements *)
  trigger : Lbr.entry option;  (* the branch that caused the overflow *)
  mutable waiting_shadow : bool;
}

(* Sampling-health accounting (paper sections III.A/III.C): everything
   the analyzer's error structure is later blamed on, counted at the
   source so the pipeline can observe its own collection quality. *)
type health = {
  pmi_count : int;
  skid_hist : int array;
  shadow_slides : int;
  lbr_snapshots : int;
  stuck_snapshots : int;
  misrotated_snapshots : int;
  dropped_records : int;
}

(* Skid displacements above this land in the overflow slot. *)
let max_skid_bucket = 16

type t = {
  model : Pmu_model.t;
  counters : counter array;
  lbr : Lbr.t;
  prng : Prng.t;
  mutable samples_rev : sample list;
  mutable pendings : pending list;
  mutable pmi_count : int;
  mutable last_cycles : int;
  mutable stuck_entry : Lbr.entry option;
      (* The quirk: a branch record stuck in the oldest LBR slots. *)
  mutable stuck_left : int;  (* Snapshots the stuck record persists for. *)
  mutable drop_next_push : bool;
      (* The quirk's second face: the recording of the taken branch that
         follows a quirky one is occasionally lost. *)
  skid_hist : int array;  (* drawn skid per overflow; last slot = overflow *)
  mutable shadow_slides : int;
  mutable lbr_snapshots : int;
  mutable stuck_snapshots : int;
  mutable misrotated_snapshots : int;
  mutable dropped_records : int;
  mutable faults : Faults.pmu_injector option;
      (* Chaos hook; [None] unless a fault plan with PMU faults is armed
         at creation, so the disarmed hot path is one field load. *)
  tracks_branches : bool;
      (* Some counter samples.  Without one, nothing ever reads the LBR
         or draws a skid, so the LBR model (and its record-drop draws)
         is skipped: a counting-only PMU is the batch totals (and,
         for events other than retirements, taken branches and cycles,
         the per-block static increments). *)
}

let create model configs =
  if List.length configs > 4 then
    invalid_arg "Pmu.create: at most 4 counters per core";
  let precise_sampling =
    List.filter
      (fun c ->
        match c.mode with
        | Sampling _ -> Pmu_event.is_precise c.event
        | Counting -> false)
      configs
  in
  if List.length precise_sampling > 1 then
    invalid_arg "Pmu.create: only one precise event can sample at a time";
  {
    model;
    counters =
      Array.of_list
        (List.map (fun config -> { config; value = 0; total = 0 }) configs);
    lbr = Lbr.create ~depth:model.lbr_depth;
    prng = Prng.create ~seed:model.seed;
    samples_rev = [];
    pendings = [];
    pmi_count = 0;
    last_cycles = 0;
    stuck_entry = None;
    stuck_left = 0;
    drop_next_push = false;
    skid_hist = Array.make (max_skid_bucket + 2) 0;
    shadow_slides = 0;
    lbr_snapshots = 0;
    stuck_snapshots = 0;
    misrotated_snapshots = 0;
    dropped_records = 0;
    faults = Faults.pmu_injector ();
    tracks_branches =
      List.exists
        (fun c -> match c.mode with Sampling _ -> true | Counting -> false)
        configs;
  }

(* How much retiring [m] advances a counter for [e], for every event
   but the two that depend on the retirement rather than the
   instruction: taken branches and cycles. *)
let static_increment (e : Pmu_event.t) m =
  match e with
  | Pmu_event.Inst_retired_any | Pmu_event.Inst_retired_prec_dist -> 1
  | Pmu_event.Br_inst_retired_near_taken | Pmu_event.Cpu_clk_unhalted -> 0
  | Pmu_event.Arith_divider_cycles -> (
      match Mnemonic.category m with
      | Mnemonic.Divide -> Latency.latency m
      | _ -> 0)
  | Pmu_event.Fp_comp_ops_sse | Pmu_event.Fp_comp_ops_avx
  | Pmu_event.Fp_comp_ops_x87 | Pmu_event.Simd_int_128 -> (
      let computational =
        match Mnemonic.category m with
        | Mnemonic.Arithmetic | Mnemonic.Divide | Mnemonic.Sqrt
        | Mnemonic.Transcendental | Mnemonic.Fma ->
            true
        | _ -> false
      in
      if not computational then 0
      else
        let set = Mnemonic.isa_set m and elem = Mnemonic.element m in
        let fp =
          match elem with
          | Mnemonic.Fp32 | Mnemonic.Fp64 -> true
          | Mnemonic.Int_elem | Mnemonic.No_elem -> false
        in
        match e with
        | Pmu_event.Fp_comp_ops_sse ->
            if fp && Mnemonic.equal_isa_set set Mnemonic.Sse then 1 else 0
        | Pmu_event.Fp_comp_ops_avx ->
            if
              fp
              && (Mnemonic.equal_isa_set set Mnemonic.Avx
                 || Mnemonic.equal_isa_set set Mnemonic.Avx2)
            then 1
            else 0
        | Pmu_event.Fp_comp_ops_x87 ->
            if Mnemonic.equal_isa_set set Mnemonic.X87 then 1 else 0
        | Pmu_event.Simd_int_128 -> (
            match (set, elem) with
            | (Mnemonic.Sse | Mnemonic.Avx2), Mnemonic.Int_elem -> 1
            | _, _ -> 0)
        | _ -> 0)

(* How much a retirement advances a counter, given the cycles it
   charged and whether it was a taken branch. *)
let increment (e : Pmu_event.t) (node : Exec_graph.node) ~taken ~cycles_delta =
  match e with
  | Pmu_event.Br_inst_retired_near_taken -> if taken then 1 else 0
  | Pmu_event.Cpu_clk_unhalted -> cycles_delta
  | _ -> static_increment e node.instr.Instruction.mnemonic

(* Mild anomaly (all branches, low rate): the buffer is mis-rotated by
   one slot — the triggering branch appears oldest, one genuine stream is
   lost and one bogus stream fabricated. *)
let misrotate snap =
  let n = Array.length snap in
  Array.init n (fun k -> if k = 0 then snap.(n - 1) else snap.(k - 1))

(* The hard quirk (hash-selected branches): the triggering branch's
   record gets STUCK in the two oldest slots of the buffer and persists
   there across the next few snapshots, as if those slots stopped being
   rewritten.  The analyzer sees the same branch at entry[0] a
   disproportionate number of times — up to ~50% for a hot branch, the
   paper's exact symptom — while the genuine oldest streams are lost and
   bogus streams anchored at the stuck branch's source/target fabricate
   weight over the blocks around it: concentrated over- and
   under-counting, as in Table 3. *)
let stick snap (e : Lbr.entry) =
  let out = Array.copy snap in
  let n = Array.length out in
  if n > 2 then begin
    out.(0) <- e;
    out.(1) <- e
  end;
  out

let snapshot_lbr t ~branch_based ~trigger =
  let snap = Lbr.snapshot t.lbr in
  if Array.length snap = 0 then snap
  else begin
    t.lbr_snapshots <- t.lbr_snapshots + 1;
    if not branch_based then snap
    else begin
      (match trigger with
      | Some (entry : Lbr.entry)
        when Pmu_model.is_quirk_branch t.model entry.src
             && Prng.bool t.prng t.model.quirk_probability ->
          t.stuck_entry <- Some entry;
          t.stuck_left <- 2 + Prng.int t.prng 5
      | Some _ | None -> ());
      match t.stuck_entry with
      | Some e when t.stuck_left > 0 ->
          t.stuck_left <- t.stuck_left - 1;
          if t.stuck_left = 0 then t.stuck_entry <- None;
          t.stuck_snapshots <- t.stuck_snapshots + 1;
          stick snap e
      | Some _ | None ->
          if Prng.bool t.prng t.model.global_anomaly_probability then begin
            t.misrotated_snapshots <- t.misrotated_snapshots + 1;
            misrotate snap
          end
          else snap
    end
  end

(* Injected LBR corruption (chaos testing): forced stuck/mis-rotated
   snapshots reuse the genuine quirk transforms; truncation keeps only
   the newest entries, as if the buffer stopped short. *)
let inject_lbr_faults inj ~(trigger : Lbr.entry option) snap =
  if Array.length snap = 0 then snap
  else begin
    let f = Faults.lbr_fault inj in
    let snap =
      if f.Faults.stick then
        let e =
          match trigger with Some e -> e | None -> snap.(Array.length snap - 1)
        in
        stick snap e
      else snap
    in
    let snap = if f.Faults.misrotate then misrotate snap else snap in
    let keep = f.Faults.truncate in
    if keep > 0 && keep < Array.length snap then
      Array.sub snap (Array.length snap - keep) keep
    else snap
  end

let deliver t pending (r : Machine.retirement) =
  let counter = t.counters.(pending.counter_idx) in
  let lbr_enabled =
    match counter.config.mode with
    | Sampling { lbr; _ } -> lbr
    | Counting -> false
  in
  let lbr =
    if lbr_enabled then
      snapshot_lbr t ~branch_based:pending.branch_based
        ~trigger:pending.trigger
    else [||]
  in
  let lbr =
    match t.faults with
    | None -> lbr
    | Some inj -> inject_lbr_faults inj ~trigger:pending.trigger lbr
  in
  t.pmi_count <- t.pmi_count + 1;
  (* Injected sample loss: the PMI happened (it is counted, it cost
     cycles) but the sample record never reaches the stream — a ring
     buffer overrun seen from inside the PMU. *)
  let lost =
    match t.faults with
    | None -> false
    | Some inj -> Faults.drop_sample inj
  in
  if not lost then
    t.samples_rev <-
      {
        event = counter.config.event;
        ip = r.node.Exec_graph.addr;
        lbr;
        ring = r.node.Exec_graph.ring;
        retired_index = r.retired_index;
        cycles = r.cycles;
      }
      :: t.samples_rev

let skid_for t (e : Pmu_event.t) =
  match e with
  | Pmu_event.Br_inst_retired_near_taken ->
      Pmu_model.draw_skid t.prng t.model.branch_skid
  | Pmu_event.Inst_retired_prec_dist ->
      Pmu_model.draw_skid t.prng t.model.precise_skid
  | _ -> Pmu_model.draw_skid t.prng t.model.imprecise_skid

(* LBR tracking of one retired taken branch — except records lost to
   the quirk — with the record-drop draws it triggers; [quirk] is
   [Pmu_model.is_quirk_branch] of [src]. *)
let record_taken t ~src ~tgt ~quirk =
  if t.drop_next_push then begin
    t.drop_next_push <- false;
    t.dropped_records <- t.dropped_records + 1
  end
  else Lbr.push t.lbr ~src ~tgt;
  if
    (quirk && Prng.bool t.prng t.model.quirk_drop_probability)
    || Prng.bool t.prng t.model.global_drop_probability
  then t.drop_next_push <- true

let on_retire t (r : Machine.retirement) =
  let cycles_delta = r.cycles - t.last_cycles in
  t.last_cycles <- r.cycles;
  let taken = r.taken_src >= 0 in
  (* 1. LBR tracks every retired taken branch. *)
  if taken && t.tracks_branches then
    record_taken t ~src:r.taken_src ~tgt:r.taken_tgt
      ~quirk:(Pmu_model.is_quirk_branch t.model r.taken_src);
  (* 2. Advance pending PMIs (created at earlier retirements). *)
  if t.pendings <> [] then begin
    let still_pending = ref [] in
    List.iter
      (fun p ->
        let shadow_blocked = t.model.shadow_enabled && r.shadow_active in
        if p.waiting_shadow then
          if shadow_blocked then still_pending := p :: !still_pending
          else deliver t p r
        else begin
          let applicable = (not p.branch_based) || taken in
          if applicable then p.skid_left <- p.skid_left - 1;
          if p.skid_left <= 0 && applicable then
            if
              shadow_blocked
              && Prng.bool t.prng t.model.shadow_slide_probability
            then begin
              p.waiting_shadow <- true;
              t.shadow_slides <- t.shadow_slides + 1;
              still_pending := p :: !still_pending
            end
            else deliver t p r
          else still_pending := p :: !still_pending
        end)
      (List.rev t.pendings);
    t.pendings <- List.rev !still_pending
  end;
  (* 3. Count, detect overflows, create new pendings.  A for-loop, not
     [Array.iteri]: the latter allocates a fresh closure over [r] and
     [cycles_delta] on every retirement. *)
  let counters = t.counters in
  for idx = 0 to Array.length counters - 1 do
    let c = Array.unsafe_get counters idx in
    begin
      let inc = increment c.config.event r.node ~taken ~cycles_delta in
      if inc > 0 then begin
        c.total <- c.total + inc;
        match c.config.mode with
        | Counting -> ()
        | Sampling { period; _ } ->
            c.value <- c.value + inc;
            if c.value >= period then begin
              c.value <- c.value - period;
              let branch_based =
                Pmu_event.equal c.config.event
                  Pmu_event.Br_inst_retired_near_taken
              in
              let trigger =
                if branch_based && taken then
                  Some { Lbr.src = r.taken_src; tgt = r.taken_tgt }
                else None
              in
              let skid = skid_for t c.config.event in
              let skid =
                match t.faults with
                | None -> skid
                | Some inj -> skid + Faults.extra_skid inj
              in
              let bucket = if skid <= max_skid_bucket then skid else max_skid_bucket + 1 in
              t.skid_hist.(bucket) <- t.skid_hist.(bucket) + 1;
              let p =
                { counter_idx = idx; skid_left = skid; branch_based; trigger;
                  waiting_shadow = false }
              in
              if skid = 0 then
                if
                  t.model.shadow_enabled && r.shadow_active
                  && Prng.bool t.prng t.model.shadow_slide_probability
                then begin
                  p.waiting_shadow <- true;
                  t.shadow_slides <- t.shadow_slides + 1;
                  t.pendings <- p :: t.pendings
                end
                else deliver t p r
              else t.pendings <- p :: t.pendings
            end
      end
    end
  done

(* How many more units of its event a sampling counter absorbs
   without overflowing.  An int comparison, not [Stdlib.max]: without
   cross-module inlining the polymorphic one is a C call. *)
let room c ~period =
  let room = period - 1 - c.value in
  if room > 0 then room else 0

(* Retirements the sampling counters absorb: events advancing by at
   most one per retirement absorb their room, cycle-weighted events
   always take the per-instruction path, and the taken-branch event is
   bounded by [taken_window] instead.  A pending PMI advances per
   retirement, and a cycle count that does not continue this PMU's last
   one (a machine run restarted without [reset]) would make the first
   retirement's cycle delta differ from its issue cost: both need
   per-instruction detail. *)
let window t cycles =
  if t.pendings <> [] || t.last_cycles <> cycles then 0
  else begin
    let w = ref max_int in
    for idx = 0 to Array.length t.counters - 1 do
      let c = Array.unsafe_get t.counters idx in
      match c.config.mode with
      | Counting -> ()
      | Sampling { period; _ } ->
          let r =
            match c.config.event with
            | Pmu_event.Br_inst_retired_near_taken -> max_int
            | Pmu_event.Cpu_clk_unhalted | Pmu_event.Arith_divider_cycles -> 0
            | _ -> room c ~period
          in
          if r < !w then w := r
    done;
    !w
  end

(* Taken branches the taken-branch sampling counters absorb. *)
let taken_window t =
  let w = ref max_int in
  for idx = 0 to Array.length t.counters - 1 do
    let c = Array.unsafe_get t.counters idx in
    match (c.config.event, c.config.mode) with
    | Pmu_event.Br_inst_retired_near_taken, Sampling { period; _ } ->
        let r = room c ~period in
        if r < !w then w := r
    | _, (Sampling _ | Counting) -> ()
  done;
  !w

(* What a block adds regardless of how it retires: each counter's
   static increment (indexed like [t.counters]), and its terminator —
   the only member that can branch — with whether it is a quirk
   branch. *)
type summary = { incs : int array; src : int; quirk : bool }

(* One attachment's summaries, by block id. *)
type summaries = { mutable slots : summary option array }

let summarize t (b : Machine.block) =
  let src = b.nodes.(Array.length b.nodes - 1).Exec_graph.addr in
  {
    incs =
      Array.map
        (fun c ->
          Array.fold_left
            (fun acc (n : Exec_graph.node) ->
              acc + static_increment c.config.event n.instr.Instruction.mnemonic)
            0 b.nodes)
        t.counters;
    src;
    quirk = Pmu_model.is_quirk_branch t.model src;
  }

(* [summaries.slots] must cover [log.blocks]. *)
let summary t summaries (log : Machine.log) id =
  match Array.unsafe_get summaries.slots id with
  | Some s -> s
  | None ->
      let s = summarize t log.blocks.(id) in
      summaries.slots.(id) <- Some s;
      s

let entry_id e = if e < 0 then lnot e else e

(* The fold of [on_retire] over a batch that the windows guarantee
   neither overflows a sampling counter nor meets a pending PMI: the
   LBR push and drop draws at each taken terminator in log order, then
   each counter's advance by the batch total — summed entry by entry
   only for events other than retirements, taken branches and cycles. *)
let on_blocks t summaries (log : Machine.log) =
  let cycles_delta = log.cycles - t.last_cycles in
  t.last_cycles <- log.cycles;
  let n = Array.length summaries.slots in
  if n < Array.length log.blocks then begin
    let slots = Array.make (Array.length log.blocks) None in
    Array.blit summaries.slots 0 slots 0 n;
    summaries.slots <- slots
  end;
  let ids = log.ids and len = log.len in
  if t.tracks_branches && log.taken > 0 then
    for k = 0 to len - 1 do
      let e = Array.unsafe_get ids k in
      if e < 0 then begin
        let s = summary t summaries log (lnot e) in
        record_taken t ~src:s.src ~tgt:(Array.unsafe_get log.targets k)
          ~quirk:s.quirk
      end
    done;
  let counters = t.counters in
  for idx = 0 to Array.length counters - 1 do
    let c = Array.unsafe_get counters idx in
    let inc =
      match c.config.event with
      | Pmu_event.Inst_retired_any | Pmu_event.Inst_retired_prec_dist ->
          log.retired
      | Pmu_event.Br_inst_retired_near_taken -> log.taken
      | Pmu_event.Cpu_clk_unhalted -> cycles_delta
      | Pmu_event.Arith_divider_cycles | Pmu_event.Fp_comp_ops_sse
      | Pmu_event.Fp_comp_ops_avx | Pmu_event.Fp_comp_ops_x87
      | Pmu_event.Simd_int_128 ->
          let sum = ref 0 in
          for k = 0 to len - 1 do
            let s = summary t summaries log (entry_id (Array.unsafe_get ids k)) in
            sum := !sum + Array.unsafe_get s.incs idx
          done;
          !sum
    in
    c.total <- c.total + inc;
    match c.config.mode with
    | Counting -> ()
    | Sampling _ -> c.value <- c.value + inc
  done

let observer t : Machine.observer =
  {
    attach =
      (fun () ->
        let summaries = { slots = [||] } in
        {
          Machine.on_retire = (fun r -> on_retire t r);
          on_blocks = (fun log -> on_blocks t summaries log);
          window = (fun cycles -> window t cycles);
          taken_window = (fun () -> taken_window t);
        });
  }

let samples t = List.rev t.samples_rev
let counts t =
  Array.to_list
    (Array.map (fun c -> (c.config.event, Int64.of_int c.total)) t.counters)

let pmi_count t = t.pmi_count

let health t =
  {
    pmi_count = t.pmi_count;
    skid_hist = Array.copy t.skid_hist;
    shadow_slides = t.shadow_slides;
    lbr_snapshots = t.lbr_snapshots;
    stuck_snapshots = t.stuck_snapshots;
    misrotated_snapshots = t.misrotated_snapshots;
    dropped_records = t.dropped_records;
  }

let reset t =
  Array.iter
    (fun c ->
      c.value <- 0;
      c.total <- 0)
    t.counters;
  Lbr.clear t.lbr;
  t.samples_rev <- [];
  t.pendings <- [];
  t.pmi_count <- 0;
  t.last_cycles <- 0;
  t.stuck_entry <- None;
  t.stuck_left <- 0;
  t.drop_next_push <- false;
  Array.fill t.skid_hist 0 (Array.length t.skid_hist) 0;
  t.shadow_slides <- 0;
  t.lbr_snapshots <- 0;
  t.stuck_snapshots <- 0;
  t.misrotated_snapshots <- 0;
  t.dropped_records <- 0;
  t.faults <- Faults.pmu_injector ()
