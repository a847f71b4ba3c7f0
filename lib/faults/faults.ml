(* Armed plan: written only by arm/disarm (test setup, CLI front door),
   read by injector constructors.  An Atomic so concurrent Domain_pool
   workers constructing PMUs see a consistent value. *)
let current : Fault_plan.t option Atomic.t = Atomic.make None

let arm plan = Atomic.set current (Some plan)
let disarm () = Atomic.set current None
let armed () = Atomic.get current <> None
let plan () = Atomic.get current

(* ------------------------------------------------------------------ *)
(* Tally                                                               *)

let tally_names =
  [
    "pmu.samples_dropped";
    "pmu.extra_skid";
    "lbr.forced_stuck";
    "lbr.forced_misrotated";
    "lbr.truncated_snapshots";
    "records.dropped_comm";
    "records.dropped_mmap";
    "records.dropped_sample";
    "records.reordered_windows";
    "archive.bit_flips";
    "archive.truncated_bytes";
    "io.enospc";
    "io.partial_write";
    "io.eintr";
    "io.rename_fail";
    "io.fsync_fail";
  ]

let cells : (string * int Atomic.t) list =
  List.map (fun n -> (n, Atomic.make 0)) tally_names

let bump name n =
  match List.assoc_opt name cells with
  | Some c -> ignore (Atomic.fetch_and_add c n)
  | None -> ()

let tally () =
  List.filter_map
    (fun (n, c) ->
      let v = Atomic.get c in
      if v > 0 then Some (n, v) else None)
    cells

let reset_tally () = List.iter (fun (_, c) -> Atomic.set c 0) cells

(* ------------------------------------------------------------------ *)
(* PMU layer                                                           *)

type pmu_injector = {
  pmu : Fault_plan.pmu;
  prng : Fault_prng.t;
  mutable sample_idx : int;
  mutable burst_left : int;
}

let pmu_injector () =
  match Atomic.get current with
  | Some p when Fault_plan.pmu_active p.Fault_plan.pmu ->
      Some
        {
          pmu = p.Fault_plan.pmu;
          prng = Fault_prng.create ~seed:p.Fault_plan.seed;
          sample_idx = 0;
          burst_left = 0;
        }
  | Some _ | None -> None

let drop_sample inj =
  inj.sample_idx <- inj.sample_idx + 1;
  let p = inj.pmu in
  let drop =
    if inj.burst_left > 0 then begin
      inj.burst_left <- inj.burst_left - 1;
      true
    end
    else if
      p.Fault_plan.burst_every > 0
      && p.Fault_plan.burst_len > 0
      && inj.sample_idx mod p.Fault_plan.burst_every = 0
    then begin
      inj.burst_left <- p.Fault_plan.burst_len - 1;
      true
    end
    else Fault_prng.bool inj.prng p.Fault_plan.drop_rate
  in
  if drop then bump "pmu.samples_dropped" 1;
  drop

let extra_skid inj =
  let p = inj.pmu in
  let extra =
    p.Fault_plan.extra_skid
    + (if p.Fault_plan.jitter > 0 then
         Fault_prng.int inj.prng (p.Fault_plan.jitter + 1)
       else 0)
  in
  if extra > 0 then bump "pmu.extra_skid" 1;
  extra

type lbr_fault = { stick : bool; misrotate : bool; truncate : int }

let lbr_fault inj =
  let p = inj.pmu in
  let stick = Fault_prng.bool inj.prng p.Fault_plan.lbr_stuck_rate in
  let misrotate = Fault_prng.bool inj.prng p.Fault_plan.lbr_misrotate_rate in
  if stick then bump "lbr.forced_stuck" 1;
  if misrotate then bump "lbr.forced_misrotated" 1;
  { stick; misrotate; truncate = p.Fault_plan.lbr_truncate }

(* ------------------------------------------------------------------ *)
(* Collector layer                                                     *)

type record_class = Rec_comm | Rec_mmap | Rec_sample | Rec_other

(* Fisher–Yates over one window, in place. *)
let shuffle prng arr =
  let n = Array.length arr in
  for i = n - 1 downto 1 do
    let j = Fault_prng.int prng (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

(* The draws follow the records: a record's drop draw comes when it
   arrives, a window's shuffle draws when the window is released, as
   perf's ring buffer loses data while the stream is written. *)
let record_filter ~classify ~lost emit =
  match Atomic.get current with
  | Some p when Fault_plan.collector_active p.Fault_plan.collector ->
      let c = p.Fault_plan.collector in
      (* Offset the seed so collector draws never mirror PMU draws. *)
      let prng =
        Fault_prng.create ~seed:(Int64.add p.Fault_plan.seed 0x5EEDL)
      in
      let dropped = ref 0 and held = ref [] and n_held = ref 0 in
      let release () =
        let window = Array.of_list (List.rev !held) in
        held := [];
        n_held := 0;
        if Array.length window > 1 then begin
          shuffle prng window;
          bump "records.reordered_windows" 1
        end;
        Array.iter emit window
      in
      let push r =
        let rate, tally =
          match classify r with
          | Rec_comm -> (c.Fault_plan.drop_comm_rate, "records.dropped_comm")
          | Rec_mmap -> (c.Fault_plan.drop_mmap_rate, "records.dropped_mmap")
          | Rec_sample ->
              (c.Fault_plan.drop_sample_rate, "records.dropped_sample")
          | Rec_other -> (0.0, "")
        in
        if Fault_prng.bool prng rate then begin
          incr dropped;
          bump tally 1
        end
        else if c.Fault_plan.reorder_window <= 1 then emit r
        else begin
          held := r :: !held;
          incr n_held;
          if !n_held = c.Fault_plan.reorder_window then release ()
        end
      in
      let close () =
        release ();
        if !dropped > 0 then emit (lost !dropped)
      in
      (push, close)
  | Some _ | None -> (emit, ignore)

(* ------------------------------------------------------------------ *)
(* IO layer                                                            *)

type io_injector = { io : Fault_plan.io; iprng : Fault_prng.t }

let io_injector () =
  match Atomic.get current with
  | Some p when Fault_plan.io_active p.Fault_plan.io ->
      Some
        {
          io = p.Fault_plan.io;
          (* Offset the seed so IO draws never mirror the other layers. *)
          iprng = Fault_prng.create ~seed:(Int64.add p.Fault_plan.seed 0x10ADL);
        }
  | Some _ | None -> None

let io_enospc inj =
  let hit = Fault_prng.bool inj.iprng inj.io.Fault_plan.enospc_rate in
  if hit then bump "io.enospc" 1;
  hit

(* A short write keeps at least one byte of progress so the retrying
   write loop always terminates. *)
let io_short_write inj ~len =
  if len > 1 && Fault_prng.bool inj.iprng inj.io.Fault_plan.partial_write_rate
  then begin
    bump "io.partial_write" 1;
    Some (1 + Fault_prng.int inj.iprng (len - 1))
  end
  else None

let io_eintr inj =
  let hit = Fault_prng.bool inj.iprng inj.io.Fault_plan.eintr_rate in
  if hit then bump "io.eintr" 1;
  hit

let io_rename_fail inj =
  let hit = Fault_prng.bool inj.iprng inj.io.Fault_plan.rename_fail_rate in
  if hit then bump "io.rename_fail" 1;
  hit

let io_fsync_fail inj =
  let hit = Fault_prng.bool inj.iprng inj.io.Fault_plan.fsync_fail_rate in
  if hit then bump "io.fsync_fail" 1;
  hit

(* ------------------------------------------------------------------ *)
(* Archive layer                                                       *)

let mangle_archive data =
  match Atomic.get current with
  | Some p when Fault_plan.archive_active p.Fault_plan.archive ->
      let a = p.Fault_plan.archive in
      let prng = Fault_prng.create ~seed:(Int64.add p.Fault_plan.seed 0xA5CL) in
      let n = Bytes.length data in
      let cut =
        if a.Fault_plan.truncate_at > 0 then min a.Fault_plan.truncate_at n
        else if a.Fault_plan.truncate_at < 0 then
          max 0 (n + a.Fault_plan.truncate_at)
        else n
      in
      let out = Bytes.sub data 0 cut in
      if cut < n then bump "archive.truncated_bytes" (n - cut);
      if Bytes.length out > 0 then
        for _ = 1 to a.Fault_plan.bit_flips do
          let off = Fault_prng.int prng (Bytes.length out) in
          let bit = Fault_prng.int prng 8 in
          Bytes.set_uint8 out off (Bytes.get_uint8 out off lxor (1 lsl bit));
          bump "archive.bit_flips" 1
        done;
      out
  | Some _ | None -> data
