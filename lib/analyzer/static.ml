open Hbbp_program

type t = {
  process : Process.t;
  images : Image.t array;
  maps : Bb_map.t array;
  offsets : int array;  (* global id of each map's block 0 *)
  total_blocks : int;
  barrier : int array;
      (* per gid: the first gid at or after it, in its image, whose
         terminator is neither a fall-through nor a conditional branch;
         -1 when there is none *)
  image_end : int array;  (* per gid: the last gid of its image *)
  starts : int array;  (* per gid: first instruction address *)
  ends : int array;  (* per gid: one past the last byte *)
  lasts : int array;  (* per gid: last instruction address *)
}

(* Images are sorted by base and each map by address, so global ids are
   in address order: the per-gid address arrays are sorted, and one
   binary search over them finds a block in any image.  All per-gid
   arrays fill in one backward sweep per image. *)
let layout_tables maps offsets total =
  let barrier = Array.make total (-1) and image_end = Array.make total 0 in
  let starts = Array.make total 0 and ends = Array.make total 0 in
  let lasts = Array.make total 0 in
  Array.iteri
    (fun k map ->
      let blocks = Bb_map.blocks map in
      let last = offsets.(k) + Array.length blocks - 1 in
      let next = ref (-1) in
      for i = Array.length blocks - 1 downto 0 do
        let gid = offsets.(k) + i in
        starts.(gid) <- blocks.(i).Basic_block.addr;
        ends.(gid) <- Basic_block.end_addr blocks.(i);
        lasts.(gid) <- Basic_block.last_addr blocks.(i);
        (match blocks.(i).Basic_block.term with
        | Basic_block.Term_cond _ | Basic_block.Term_fallthrough -> ()
        | Basic_block.Term_jump _ | Basic_block.Term_indirect_jump
        | Basic_block.Term_call _ | Basic_block.Term_ret
        | Basic_block.Term_syscall | Basic_block.Term_sysret
        | Basic_block.Term_halt ->
            next := gid);
        barrier.(gid) <- !next;
        image_end.(gid) <- last
      done)
    maps;
  (barrier, image_end, starts, ends, lasts)

let create process =
  let images = Array.of_list (Process.images process) in
  let rec build k acc =
    if k = Array.length images then Ok (List.rev acc)
    else
      match Bb_map.of_image images.(k) with
      | Ok map -> build (k + 1) (map :: acc)
      | Error e -> Error e
  in
  match build 0 [] with
  | Error e -> Error e
  | Ok maps ->
      let maps = Array.of_list maps in
      let offsets = Array.make (Array.length maps) 0 in
      let total = ref 0 in
      Array.iteri
        (fun k map ->
          offsets.(k) <- !total;
          total := !total + Bb_map.block_count map)
        maps;
      let barrier, image_end, starts, ends, lasts =
        layout_tables maps offsets !total
      in
      Ok
        {
          process;
          images;
          maps;
          offsets;
          total_blocks = !total;
          barrier;
          image_end;
          starts;
          ends;
          lasts;
        }

let create_exn process =
  match create process with
  | Ok t -> t
  | Error e -> failwith (Format.asprintf "%a" Disasm.pp_error e)

let process t = t.process
let total_blocks t = t.total_blocks

(* The last gid whose block starts at or before [addr], or -1.  This
   and the [gid_*] lookups below return -1 rather than an option so
   that the per-stream paths allocate nothing. *)
let floor_gid t addr =
  let lo = ref 0 and hi = ref (t.total_blocks - 1) and res = ref (-1) in
  while !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    if t.starts.(mid) <= addr then begin
      res := mid;
      lo := mid + 1
    end
    else hi := mid - 1
  done;
  !res

let gid_at t addr =
  let g = floor_gid t addr in
  if g >= 0 && addr < t.ends.(g) then g else -1

let gid_starting_at t addr =
  let g = floor_gid t addr in
  if g >= 0 && t.starts.(g) = addr then g else -1

let gid_ending_at t addr =
  let g = floor_gid t addr in
  if g >= 0 && t.lasts.(g) = addr then g else -1

let option_of_gid gid = if gid < 0 then None else Some gid
let find t addr = option_of_gid (gid_at t addr)
let find_starting t addr = option_of_gid (gid_starting_at t addr)
let barrier t gid = t.barrier.(gid)
let image_end t gid = t.image_end.(gid)

let owner t gid =
  let rec scan k =
    if k = Array.length t.maps - 1 then k
    else if gid < t.offsets.(k + 1) then k
    else scan (k + 1)
  in
  if gid < 0 || gid >= t.total_blocks then
    invalid_arg "Static: global id out of range";
  scan 0

let block t gid =
  let k = owner t gid in
  (t.images.(k), t.maps.(k), Bb_map.block t.maps.(k) (gid - t.offsets.(k)))

let next_in_layout t gid =
  if gid < 0 || gid >= t.total_blocks then
    invalid_arg "Static: global id out of range";
  if gid < t.image_end.(gid) then Some (gid + 1) else None

let global_id t map (b : Basic_block.t) =
  let rec scan k =
    if k = Array.length t.maps then None
    else if t.maps.(k) == map then Some (t.offsets.(k) + b.id)
    else scan (k + 1)
  in
  scan 0

let iter f t =
  Array.iteri
    (fun k map ->
      Array.iter
        (fun (b : Basic_block.t) -> f (t.offsets.(k) + b.id) t.images.(k) b)
        (Bb_map.blocks map))
    t.maps

let map_of_image t name =
  let rec scan k =
    if k = Array.length t.images then None
    else if String.equal t.images.(k).Image.name name then Some t.maps.(k)
    else scan (k + 1)
  in
  scan 0
