open Hbbp_isa
open Hbbp_program
open Hbbp_cpu

type config = { probe_cost : int; bug_mnemonic : Mnemonic.t option }

let default_config = { probe_cost = 12; bug_mnemonic = None }

(* Per-instruction emulation cost: decode + translate + emulate.  Wider
   and microcoded instructions are disproportionately expensive under
   emulation, which is what makes vector-heavy scientific codes suffer
    the most (Table 1: 68-76x on "all other benchmarks" / Hydro-post vs
   4x on SPEC overall). *)
let emulation_cost (i : Instruction.t) =
  let m = i.mnemonic in
  let base =
    match Mnemonic.isa_set m with
    | Mnemonic.Base -> (
        match Mnemonic.category m with
        | Mnemonic.Branch -> 7
        | Mnemonic.Call | Mnemonic.Ret -> 14
        | Mnemonic.Divide -> 18
        | Mnemonic.Sync -> 20
        | Mnemonic.System -> 60
        | _ -> 4)
    | Mnemonic.X87 -> (
        match Mnemonic.category m with
        | Mnemonic.Transcendental -> 160
        | Mnemonic.Divide | Mnemonic.Sqrt -> 60
        | _ -> 28)
    | Mnemonic.Sse -> (
        match Mnemonic.packing m with
        | Mnemonic.Packed -> 38
        | Mnemonic.Scalar_fp | Mnemonic.Not_vector -> 22)
    | Mnemonic.Avx | Mnemonic.Avx2 -> (
        match Mnemonic.category m with
        | Mnemonic.Fma -> 160
        | _ -> (
            match Mnemonic.packing m with
            | Mnemonic.Packed -> 110
            | Mnemonic.Scalar_fp | Mnemonic.Not_vector -> 30))
  in
  let memory =
    if Instruction.reads_memory i || Instruction.writes_memory i then 6 else 0
  in
  base + memory

(* Dense per-map leader index: [s_ids.(addr - s_base)] is the flat block
   id of the leader at [addr], or -1.  The observer resolves every
   retired instruction's address, so this must not be a hash lookup —
   a range check plus an array load replaces hashing and the [Some]
   allocation of [Hashtbl.find_opt] on the armed hot path. *)
type seg = { s_base : int; s_limit : int; s_ids : int array }

(* Block-level executions of one machine attachment not yet folded into
   the totals: [execs.(id)] per compiled block id, [blocks] the
   machine's table of them ([Machine.log.blocks]) and [dirty] whether
   any entry is non-zero.  Every reader folds them in first ({!flush}),
   so a logged block costs one increment. *)
type tally = {
  mutable execs : int array;
  mutable blocks : Machine.block array;
  mutable dirty : bool;
}

type t = {
  config : config;
  leaders : seg array;  (* sorted by base; one per map with blocks *)
  maps : Bb_map.t array;
  map_of_block : int array;  (* flat id -> index into maps *)
  local_id : int array;  (* flat id -> block id within its map *)
  counts : int array;  (* flat id -> exact execution count *)
  histogram : int array;  (* indexed by mnemonic code *)
  mutable total : int;
  mutable lost_kernel : int;
  mutable emulation_cycles : int;
  mutable tallies : tally list;
}

let create config maps =
  let maps = Array.of_list maps in
  let flat = ref [] in
  let flat_count = ref 0 in
  let segs = ref [] in
  Array.iteri
    (fun map_idx map ->
      let blocks = Bb_map.blocks map in
      if Array.length blocks > 0 then begin
        let lo = ref max_int and hi = ref min_int in
        Array.iter
          (fun (b : Basic_block.t) ->
            if b.addr < !lo then lo := b.addr;
            if b.addr > !hi then hi := b.addr)
          blocks;
        let ids = Array.make (!hi - !lo + 1) (-1) in
        Array.iter
          (fun (b : Basic_block.t) ->
            ids.(b.addr - !lo) <- !flat_count;
            flat := (map_idx, b.id) :: !flat;
            incr flat_count)
          blocks;
        segs := { s_base = !lo; s_limit = !hi + 1; s_ids = ids } :: !segs
      end)
    maps;
  let pairs = Array.of_list (List.rev !flat) in
  let leaders = Array.of_list (List.rev !segs) in
  Array.sort (fun a b -> compare a.s_base b.s_base) leaders;
  {
    config;
    leaders;
    maps;
    map_of_block = Array.map fst pairs;
    local_id = Array.map snd pairs;
    counts = Array.make !flat_count 0;
    histogram = Array.make (Mnemonic.max_code + 1) 0;
    total = 0;
    lost_kernel = 0;
    emulation_cycles = 0;
    tallies = [];
  }

(* Flat id of the block leader at [addr], or -1. *)
let flat_of_addr t addr =
  let segs = t.leaders in
  let n = Array.length segs in
  let rec find k =
    if k = n then -1
    else
      let s = Array.unsafe_get segs k in
      if addr >= s.s_base && addr < s.s_limit then
        Array.unsafe_get s.s_ids (addr - s.s_base)
      else find (k + 1)
  in
  find 0

(* [n] retirements of [node]; the per-retirement hook is [n = 1]. *)
let count_node t (node : Exec_graph.node) n =
  if Ring.equal node.ring Ring.Kernel then begin
    (* Invisible to user-mode instrumentation; native time still passes. *)
    t.lost_kernel <- t.lost_kernel + n;
    t.emulation_cycles <- t.emulation_cycles + (n * node.issue_cost)
  end
  else begin
    let code = Mnemonic.to_code node.instr.Instruction.mnemonic in
    t.histogram.(code) <- t.histogram.(code) + n;
    t.total <- t.total + n;
    t.emulation_cycles <- t.emulation_cycles + (n * emulation_cost node.instr);
    let flat = flat_of_addr t node.addr in
    if flat >= 0 then begin
      t.counts.(flat) <- t.counts.(flat) + n;
      t.emulation_cycles <- t.emulation_cycles + (n * t.config.probe_cost)
    end
  end

let on_blocks tally (log : Machine.log) =
  let n = Array.length tally.execs in
  if n < Array.length log.blocks then begin
    let execs = Array.make (Array.length log.blocks) 0 in
    Array.blit tally.execs 0 execs 0 n;
    tally.execs <- execs
  end;
  tally.blocks <- log.blocks;
  tally.dirty <- true;
  let execs = tally.execs and ids = log.ids in
  for k = 0 to log.len - 1 do
    let e = Array.unsafe_get ids k in
    let id = if e < 0 then lnot e else e in
    Array.unsafe_set execs id (Array.unsafe_get execs id + 1)
  done

(* Fold the tallied block executions in: [n] executions of a block
   count each of its members [n] times — the fold of the per-retirement
   hook over the block, which may overlap other blocks, hold several
   leaders and contain kernel members. *)
let flush t =
  List.iter
    (fun tally ->
      if tally.dirty then begin
        tally.dirty <- false;
        Array.iteri
          (fun id n ->
            if n > 0 then begin
              tally.execs.(id) <- 0;
              Array.iter
                (fun node -> count_node t node n)
                tally.blocks.(id).Machine.nodes
            end)
          tally.execs
      end)
    t.tallies

(* Exact counting never needs per-instruction detail: both windows are
   unbounded, and a logged block costs one increment of its tally. *)
let observer t : Machine.observer =
  {
    attach =
      (fun () ->
        let tally = { execs = [||]; blocks = [||]; dirty = false } in
        t.tallies <- tally :: t.tallies;
        {
          Machine.on_retire = (fun r -> count_node t r.node 1);
          on_blocks = (fun log -> on_blocks tally log);
          window = (fun _ -> max_int);
          taken_window = (fun () -> max_int);
        });
  }

let block_count t map (block : Basic_block.t) =
  flush t;
  match flat_of_addr t block.addr with
  | flat when flat >= 0 && t.maps.(t.map_of_block.(flat)) == map ->
      t.counts.(flat)
  | _ -> 0

let block_counts t =
  flush t;
  let out = ref [] in
  Array.iteri
    (fun flat count ->
      if count > 0 then
        let map = t.maps.(t.map_of_block.(flat)) in
        let block = Bb_map.block map t.local_id.(flat) in
        out := (map, block, count) :: !out)
    t.counts;
  List.rev !out

let histogram t =
  flush t;
  let out = ref [] in
  Array.iteri
    (fun code count ->
      if count > 0 then
        match Mnemonic.of_code code with
        | Some m ->
            let count =
              match t.config.bug_mnemonic with
              | Some bug when Mnemonic.equal bug m -> count / 2
              | Some _ | None -> count
            in
            out := (m, Int64.of_int count) :: !out
        | None -> ())
    t.histogram;
  List.rev !out

let total_instructions t =
  (* The injected bug drops half the executions of one mnemonic from the
     tool's internal accounting, exactly the kind of defect the paper's
     PMU cross-check caught on x264ref (footnote 2). *)
  flush t;
  Int64.of_int
    (match t.config.bug_mnemonic with
    | None -> t.total
    | Some bug -> t.total - (t.histogram.(Mnemonic.to_code bug) / 2))

let lost_kernel_instructions t =
  flush t;
  t.lost_kernel

let instrumented_cycles t =
  flush t;
  t.emulation_cycles

let reset t =
  flush t;
  Array.fill t.counts 0 (Array.length t.counts) 0;
  Array.fill t.histogram 0 (Array.length t.histogram) 0;
  t.total <- 0;
  t.lost_kernel <- 0;
  t.emulation_cycles <- 0
