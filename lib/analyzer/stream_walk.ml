type span = { mutable first : int; mutable last : int }
type result = Interval | Inconsistent | Bad

let max_walk = 512
let span () = { first = 0; last = 0 }

(* Block ids are dense in layout order within an image, so a walk that
   succeeds covers exactly [first, last].  Straight-line flow from
   [first] can reach no further than the first always-taken terminator
   (the barrier) or, if there is none, the end of the image; the block
   holding [src] must lie within that limit, and within [max_walk]
   steps of [first]. *)
let walk static span ~target ~src =
  if src < target then Bad
  else
    let first = Static.gid_starting_at static target in
    if first < 0 then Bad
    else
      let barrier = Static.barrier static first in
      let limit = if barrier < 0 then Static.image_end static first else barrier in
      let last = Static.gid_at static src in
      if first <= last && last <= limit then
        if last - first > max_walk then Bad
        else begin
          span.first <- first;
          span.last <- last;
          Interval
        end
      else if barrier >= 0 && barrier - first <= max_walk then Inconsistent
      else Bad

(* Whether a stream walks, and which blocks it covers, depends on the
   static code alone, and LBR samples repeat a small set of streams: a
   registry pass walks 841,260 streams over 7,701 distinct pairs.  The
   table maps (target, src) to the packed outcome of the one walk per
   pair, in one flat int array of three ints per slot (target, src,
   outcome), probed linearly and doubled at half load.  Every outcome is
   nonzero, so outcome 0 marks an empty slot.

   Outcome bits: 0-1 the result (1 Interval, 2 Inconsistent, 3 Bad).
   Interval: bit 2 set when [src] is the last instruction of [last] (the
   only block [Static.gid_ending_at] can then return), bits 3-12
   [last - first] (at most [max_walk] < 1024), bits 13+ [first].
   Inconsistent and Bad: bits 2+ [Static.gid_ending_at src + 1]. *)
module Memo = struct
  type outcome = int

  type t = {
    mutable slots : int array;
    mutable count : int;
    span : span;
  }

  let initial_slots = 64
  let create () = { slots = Array.make (3 * initial_slots) 0; count = 0; span = span () }
  let walks t = t.count
  let kind_bits = 3
  let len_shift = 3
  let first_shift = 13

  let[@inline] result o =
    match o land kind_bits with 1 -> Interval | 2 -> Inconsistent | _ -> Bad

  let[@inline] first o = o lsr first_shift
  let[@inline] last o = (o lsr first_shift) + ((o lsr len_shift) land 1023)

  let[@inline] src_gid o =
    if o land kind_bits = 1 then if o land 4 <> 0 then last o else -1
    else (o asr 2) - 1

  let pack static span ~target ~src =
    let src_gid = Static.gid_ending_at static src in
    match walk static span ~target ~src with
    | Interval ->
        (span.first lsl first_shift)
        lor ((span.last - span.first) lsl len_shift)
        lor (if src_gid >= 0 then 4 else 0)
        lor 1
    | Inconsistent -> ((src_gid + 1) lsl 2) lor 2
    | Bad -> ((src_gid + 1) lsl 2) lor 3

  (* The slot holding (target, src), or the empty slot where it goes. *)
  let[@inline] slot slots ~target ~src =
    let mask = (Array.length slots / 3) - 1 in
    let h = ((target * 0x9E3779B1) + src) * 0x85EBCA77 in
    let i = ref ((h lxor (h lsr 29)) land mask) in
    while
      let o = 3 * !i in
      slots.(o + 2) <> 0 && not (slots.(o) = target && slots.(o + 1) = src)
    do
      i := (!i + 1) land mask
    done;
    3 * !i

  let grow t =
    let old = t.slots in
    let slots = Array.make (2 * Array.length old) 0 in
    for i = 0 to (Array.length old / 3) - 1 do
      let o = 3 * i in
      if old.(o + 2) <> 0 then begin
        let n = slot slots ~target:old.(o) ~src:old.(o + 1) in
        slots.(n) <- old.(o);
        slots.(n + 1) <- old.(o + 1);
        slots.(n + 2) <- old.(o + 2)
      end
    done;
    t.slots <- slots

  let lookup static t ~target ~src =
    let o = slot t.slots ~target ~src in
    let found = t.slots.(o + 2) in
    if found <> 0 then found
    else begin
      let outcome = pack static t.span ~target ~src in
      t.slots.(o) <- target;
      t.slots.(o + 1) <- src;
      t.slots.(o + 2) <- outcome;
      t.count <- t.count + 1;
      if 2 * t.count > Array.length t.slots / 3 then grow t;
      outcome
    end
end
