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

(* A ring a0 -> a1 -> ... -> a0 of 2-5 CSDF actors, balanced by
   construction: actor i runs r_i cycles per iteration and ring channel
   i carries m * r_i * r_(i+1) tokens per iteration.  The channel back
   into a0 holds 0-29 initial tokens and the others none, so about a
   third of the rings deadlock; a0 has a self-loop, with 0-29 initial
   tokens too, half of the time.  The rings of test_mcr_equiv; those of
   test_walk_equiv are its own copy of this generator. *)
let build_ring seed =
  let module Csdf = Tpdf_csdf in
  let rng = Tpdf_util.Prng.create seed in
  let int_in = Tpdf_util.Prng.int_in rng in
  let n = int_in 2 5 in
  let phases = Array.init n (fun _ -> int_in 1 3) in
  let r = Array.init n (fun _ -> int_in 1 4) in
  let name i = Printf.sprintf "a%d" i in
  let g = Csdf.Graph.create () in
  Array.iteri (fun i t -> Csdf.Graph.add_actor g (name i) ~phases:t) phases;
  (* [total] tokens spread over an actor's phases. *)
  let split total k =
    let cuts = List.sort compare (List.init (k - 1) (fun _ -> int_in 0 total)) in
    let rec go prev = function
      | [] -> [ total - prev ]
      | c :: cs -> (c - prev) :: go c cs
    in
    Csdf.Graph.const_rates (go 0 cuts)
  in
  let channel src dst ~prod ~cons ~init =
    let prod = split prod phases.(src) in
    let cons = split cons phases.(dst) in
    ignore
      (Csdf.Graph.add_channel g ~src:(name src) ~dst:(name dst) ~prod ~cons ~init ())
  in
  for i = 0 to n - 1 do
    let j = (i + 1) mod n and m = int_in 1 3 in
    channel i j ~prod:(m * r.(j)) ~cons:(m * r.(i))
      ~init:(if j = 0 then int_in 0 29 else 0)
  done;
  if Tpdf_util.Prng.bool rng then begin
    let t = int_in 1 4 in
    channel 0 0 ~prod:t ~cons:t ~init:(int_in 0 29)
  end;
  g
