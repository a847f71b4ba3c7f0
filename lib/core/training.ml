open Hbbp_analyzer
module Trace = Hbbp_telemetry.Trace

type example = { features : float array; label : int; weight : float }

let examples ?(min_exec = 100.0) (p : Pipeline.profile) =
  let out = ref [] in
  Static.iter
    (fun gid _ _ ->
      let truth = Bbec.count p.reference gid in
      if truth >= min_exec then begin
        let ebs_est = Bbec.count p.ebs.Ebs_estimator.bbec gid in
        let lbr_est = Bbec.count p.lbr.Lbr_estimator.bbec gid in
        if ebs_est > 0.0 || lbr_est > 0.0 then begin
          let ebs_err = Float.abs (ebs_est -. truth) in
          let lbr_err = Float.abs (lbr_est -. truth) in
          let label =
            if ebs_err <= lbr_err then Criteria.class_ebs else Criteria.class_lbr
          in
          out :=
            { features = Pipeline.features p gid; label; weight = truth }
            :: !out
        end
      end)
    p.static;
  List.rev !out

let dataset examples =
  let n = List.length examples in
  let features = Array.make n [||] in
  let labels = Array.make n 0 in
  let weights = Array.make n 0.0 in
  List.iteri
    (fun k e ->
      features.(k) <- e.features;
      labels.(k) <- e.label;
      weights.(k) <- e.weight)
    examples;
  Hbbp_mltree.Dataset.create ~feature_names:Feature.names
    ~class_names:Criteria.class_names ~features ~labels ~weights

let train ?params ?min_exec profiles =
  let all =
    Trace.with_span ~cat:"train" "training.examples" (fun () ->
        let all = List.concat_map (fun p -> examples ?min_exec p) profiles in
        Trace.annotate (fun () ->
            [ Trace.int_arg "training.examples" (List.length all) ]);
        all)
  in
  let d = dataset all in
  let tree =
    Trace.with_span ~cat:"train" "training.cart_train" (fun () ->
        Hbbp_mltree.Cart.train ?params d)
  in
  (tree, d)

let build ?jobs ?params ?min_exec workloads =
  Trace.with_span ~cat:"train" "training.build" @@ fun () ->
  train ?params ?min_exec (Pipeline.run_many ?jobs workloads)

let learned_cutoff tree =
  match Hbbp_mltree.Cart.root_split tree with
  | Some (feature, threshold) when feature = Feature.index_block_length ->
      Some threshold
  | Some _ | None -> None
