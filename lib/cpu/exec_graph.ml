open Hbbp_isa
open Hbbp_program

type node = {
  addr : int;
  instr : Instruction.t;
  len : int;
  ring : Ring.t;
  kernel : bool;
  issue_cost : int;
  latency : int;
  long_latency : bool;
  mutable fall : node option;
  mutable target : node option;
}

(* A straight-line run of nodes: every node but the last always falls
   through, and the last either is a terminator (branch/syscall/halt)
   or has no decodable fall-through.  Blocks are keyed by their {e
   entry} address and may overlap — a branch into the middle of one
   block simply starts another — which is what makes the cache safe
   without splitting at join points. *)
type block = {
  b_nodes : node array;
  b_last : node;
  b_len : int;
  b_cost : int;  (** Sum of member issue costs. *)
  b_kernel : int;  (** Members retiring in ring 0. *)
  b_shadow : int;  (** PMI shadow relative to block entry; -1 = none. *)
}

(* One contiguous decoded image.  [slots] is indexed by [addr - base],
   making [node_at] a range check plus an array load — the Hashtbl this
   replaces was the dominant cost of resolving indirect branches (every
   RET) on the [Machine.run] path.  [blocks] is the lazily filled
   basic-block cache, same indexing. *)
type segment = {
  base : int;
  limit : int;
  slots : node option array;
  blocks : block option array;
}

type t = { segments : segment array; count : int }

(* Address-indexed side table mirroring the graph's segment layout:
   a range check plus a dense array load, like [node_at].  The tiered
   executor keys its compiled-closure cache through one of these. *)
type 'a table = {
  tbl_base : int array;
  tbl_limit : int array;
  tbl_slots : 'a option array array;
}

(* Retirement charge: one issue slot, plus a flat memory penalty, plus a
   fraction of long latencies that out-of-order execution cannot hide. *)
let issue_cost_of instr =
  let lat = Latency.latency instr.Instruction.mnemonic in
  let mem =
    if Instruction.reads_memory instr || Instruction.writes_memory instr then 2
    else 0
  in
  let stall =
    (* Out-of-order execution hides short latencies entirely; only the
       long tail leaks into retirement. *)
    if lat >= Latency.long_latency_threshold then lat / 4
    else if lat >= 8 then 1
    else 0
  in
  1 + mem + stall

let node_at t addr =
  let segments = t.segments in
  let n = Array.length segments in
  let rec find k =
    if k >= n then None
    else
      let s = Array.unsafe_get segments k in
      if addr >= s.base && addr < s.limit then
        Array.unsafe_get s.slots (addr - s.base)
      else find (k + 1)
  in
  find 0

(* A terminator is any instruction whose [Exec.step] can return
   something other than [Fall]: branches (including SYSCALL/SYSRET via
   their branch kinds) and HLT.  Everything else always falls through,
   which is what lets whole blocks execute without control dispatch. *)
let is_terminator (instr : Instruction.t) =
  Instruction.is_branch instr
  || Mnemonic.equal instr.Instruction.mnemonic Mnemonic.HLT

(* Blocks are capped so pathological straight-line code (and the
   overlapping suffixes of jumps into block middles) keeps compilation
   and cache footprint bounded; the executor chains capped blocks
   through their fall-through like any other block boundary. *)
let max_block_len = 64

let build_block entry =
  let rec collect node acc n =
    if is_terminator node.instr || n >= max_block_len then
      List.rev (node :: acc)
    else
      match node.fall with
      | None -> List.rev (node :: acc)
      | Some next -> collect next (node :: acc) (n + 1)
  in
  let nodes = Array.of_list (collect entry [] 1) in
  let cost = ref 0 and kernel = ref 0 and shadow = ref (-1) in
  Array.iter
    (fun n ->
      if n.long_latency then shadow := max !shadow (!cost + n.latency);
      cost := !cost + n.issue_cost;
      if n.kernel then incr kernel)
    nodes;
  {
    b_nodes = nodes;
    b_last = nodes.(Array.length nodes - 1);
    b_len = Array.length nodes;
    b_cost = !cost;
    b_kernel = !kernel;
    b_shadow = !shadow;
  }

let block_at t addr =
  let segments = t.segments in
  let n = Array.length segments in
  let rec find k =
    if k >= n then None
    else
      let s = Array.unsafe_get segments k in
      if addr >= s.base && addr < s.limit then begin
        let off = addr - s.base in
        match Array.unsafe_get s.blocks off with
        | Some _ as b -> b
        | None -> (
            match Array.unsafe_get s.slots off with
            | None -> None
            | Some entry ->
                let b = build_block entry in
                s.blocks.(off) <- Some b;
                Some b)
      end
      else find (k + 1)
  in
  find 0

let create_table t =
  {
    tbl_base = Array.map (fun s -> s.base) t.segments;
    tbl_limit = Array.map (fun s -> s.limit) t.segments;
    tbl_slots =
      Array.map (fun s -> Array.make (Array.length s.slots) None) t.segments;
  }

let table_find tbl addr =
  let n = Array.length tbl.tbl_base in
  let rec find k =
    if k >= n then None
    else if
      addr >= Array.unsafe_get tbl.tbl_base k
      && addr < Array.unsafe_get tbl.tbl_limit k
    then
      Array.unsafe_get
        (Array.unsafe_get tbl.tbl_slots k)
        (addr - Array.unsafe_get tbl.tbl_base k)
    else find (k + 1)
  in
  find 0

let table_set tbl addr v =
  let n = Array.length tbl.tbl_base in
  let rec find k =
    if k >= n then ()
    else if addr >= tbl.tbl_base.(k) && addr < tbl.tbl_limit.(k) then
      tbl.tbl_slots.(k).(addr - tbl.tbl_base.(k)) <- Some v
    else find (k + 1)
  in
  find 0

let build (process : Process.t) =
  let rec decode_all acc = function
    | [] -> Ok (List.rev acc)
    | (img : Image.t) :: rest -> (
        match Disasm.image img with
        | Error _ as e -> e
        | Ok decoded -> decode_all ((img, decoded) :: acc) rest)
  in
  match decode_all [] (Process.images process) with
  | Error e -> Error e
  | Ok decoded_images ->
      let count = ref 0 in
      let segments =
        List.filter_map
          (fun ((img : Image.t), (decoded : Disasm.decoded array)) ->
            if Array.length decoded = 0 then None
            else begin
              let lo = ref max_int and hi = ref min_int in
              Array.iter
                (fun (d : Disasm.decoded) ->
                  if d.addr < !lo then lo := d.addr;
                  if d.addr + d.len > !hi then hi := d.addr + d.len)
                decoded;
              let size = !hi - !lo in
              let slots = Array.make size None in
              let blocks = Array.make size None in
              let kernel = Ring.equal img.ring Ring.Kernel in
              Array.iter
                (fun (d : Disasm.decoded) ->
                  let latency = Latency.latency d.instr.mnemonic in
                  let node =
                    {
                      addr = d.addr;
                      instr = d.instr;
                      len = d.len;
                      ring = img.ring;
                      kernel;
                      issue_cost = issue_cost_of d.instr;
                      latency;
                      long_latency = latency >= Latency.long_latency_threshold;
                      fall = None;
                      target = None;
                    }
                  in
                  if slots.(d.addr - !lo) = None then incr count;
                  slots.(d.addr - !lo) <- Some node)
                decoded;
              Some { base = !lo; limit = !hi; slots; blocks }
            end)
          decoded_images
      in
      let t = { segments = Array.of_list segments; count = !count } in
      (* Link direct control-flow edges now that every node exists. *)
      Array.iter
        (fun s ->
          Array.iter
            (function
              | None -> ()
              | Some node -> (
                  node.fall <- node_at t (node.addr + node.len);
                  match Instruction.rel_displacement node.instr with
                  | Some disp when Instruction.is_branch node.instr ->
                      node.target <- node_at t (node.addr + node.len + disp)
                  | Some _ | None -> ()))
            s.slots)
        t.segments;
      Ok t

let build_exn process =
  match build process with
  | Ok t -> t
  | Error e -> failwith (Format.asprintf "%a" Disasm.pp_error e)

let node_count t = t.count
