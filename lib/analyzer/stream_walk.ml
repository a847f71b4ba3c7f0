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
