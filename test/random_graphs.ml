(* Random tree-shaped multirate CSDF graphs, consistent by construction:
   the random workload of test_integration and test_walk_equiv. *)
type spec = {
  seed : int;
  n_actors : int; (* 2..6 *)
}

let arb_spec =
  QCheck.make
    ~print:(fun s -> Printf.sprintf "seed=%d n=%d" s.seed s.n_actors)
    QCheck.Gen.(
      let* seed = int_bound 100000 in
      let* n_actors = int_range 2 6 in
      return { seed; n_actors })

let build_tree spec =
  let open Tpdf_util in
  let module Csdf = Tpdf_csdf in
  let module Poly = Tpdf_param.Poly in
  let rng = Prng.create spec.seed in
  let g = Csdf.Graph.create () in
  let phases = Array.init spec.n_actors (fun _ -> Prng.int_in rng 1 3) in
  for i = 0 to spec.n_actors - 1 do
    Csdf.Graph.add_actor g (Printf.sprintf "a%d" i) ~phases:phases.(i)
  done;
  for i = 1 to spec.n_actors - 1 do
    let parent = Prng.int rng i in
    let rates k =
      (* at least one strictly positive entry per sequence *)
      let seq = Array.init phases.(k) (fun _ -> Prng.int_in rng 0 3) in
      if Array.for_all (( = ) 0) seq then seq.(0) <- 1 + Prng.int rng 3;
      Array.map Poly.of_int seq
    in
    let init = Prng.int rng 3 in
    let src, dst = if Prng.bool rng then (parent, i) else (i, parent) in
    ignore
      (Csdf.Graph.add_channel g
         ~src:(Printf.sprintf "a%d" src)
         ~dst:(Printf.sprintf "a%d" dst)
         ~prod:(rates src) ~cons:(rates dst) ~init ())
  done;
  g
