(* Differential suite for the iteration walker (lib/csdf/walk.ml) and for
   Mcr.build on the ADF, against [Reference_walk], a snapshot of the code
   they replaced.  Each case runs both sides and compares their results,
   raised Failure and Invalid_argument messages included, for equality:

   - Schedule.run under all three policies, for 1 and 3 iterations: on
     the full skeleton, under each mode scenario's mask, and on each
     non-trivial SCC's local targets under its internal mask (the runs
     Liveness makes);
   - Bounded.minimize, then Bounded.run at the reference's minimal
     capacities and at each capacity minus one;
   - Sas.find and Sas.is_valid, and Mcr.build's edge set;

   on every shipped graph with every parameter at 1, 2, 3 and 7, on
   random trees, and on random balanced cycles with 0-29 initial tokens
   per channel, where both live and deadlocked cases occur. *)

module Csdf = Tpdf_csdf
module Graph = Tpdf_core.Graph
module Serial = Tpdf_core.Serial
module Valuation = Tpdf_param.Valuation
module Digraph = Tpdf_graph.Digraph
module Mcr = Reference_mcr
module Ref = Reference_walk

let result f =
  match f () with
  | v -> Ok v
  | exception Failure m -> Error ("failure: " ^ m)
  | exception Invalid_argument m -> Error ("invalid: " ^ m)

let same what ours theirs =
  if result ours <> result theirs then
    Alcotest.failf "%s: walker and reference differ" what

let check_schedule what ?targets ?active_channel conc =
  List.iter
    (fun (name, policy) ->
      List.iter
        (fun iterations ->
          same
            (Printf.sprintf "%s: Schedule.run %s x%d" what name iterations)
            (fun () ->
              Csdf.Schedule.run ~policy ~iterations ?targets ?active_channel conc)
            (fun () ->
              Ref.Schedule.run ~policy ~iterations ?targets ?active_channel conc))
        [ 1; 3 ])
    Csdf.Schedule.
      [ ("eager", Eager); ("late", Late_first); ("min-buffer", Min_buffer) ]

(* Each non-trivial SCC's local iteration, as Liveness.check runs it. *)
let local_runs conc =
  let skel = Csdf.Concrete.graph conc in
  List.map
    (fun members ->
      let q_g =
        List.fold_left
          (fun acc a ->
            Tpdf_util.Intmath.gcd acc
              (Csdf.Concrete.q conc a / Csdf.Graph.phases skel a))
          0 members
      in
      let internal =
        List.filter_map
          (fun (e : (string, Csdf.Graph.channel) Digraph.edge) ->
            if List.mem e.src members && List.mem e.dst members then Some e.id
            else None)
          (Csdf.Graph.channels skel)
      in
      ( String.concat "," members,
        List.map (fun a -> (a, Csdf.Concrete.q conc a / q_g)) members,
        fun id -> List.mem id internal ))
    (Digraph.nontrivial_sccs (Csdf.Graph.digraph skel))

let check_conc what ?(masks = []) conc =
  check_schedule what conc;
  List.iteri
    (fun i active_channel ->
      check_schedule (Printf.sprintf "%s, scenario %d" what i) ~active_channel conc)
    masks;
  List.iter
    (fun (members, targets, active_channel) ->
      check_schedule (Printf.sprintf "%s, SCC {%s}" what members) ~targets
        ~active_channel conc)
    (local_runs conc);
  same (what ^ ": Bounded.minimize")
    (fun () -> Csdf.Bounded.minimize conc)
    (fun () -> Ref.Bounded.minimize conc);
  (match Ref.Bounded.minimize conc with
  | exception Failure _ -> ()
  | r ->
      let run_at caps =
        let capacities id = List.assoc id caps in
        same
          (Printf.sprintf "%s: Bounded.run at [%s]" what
             (String.concat "; " (List.map (fun (_, c) -> string_of_int c) caps)))
          (fun () -> Csdf.Bounded.run conc ~capacities)
          (fun () -> Ref.Bounded.run conc ~capacities)
      in
      let caps = r.Ref.Bounded.capacities in
      run_at caps;
      List.iter
        (fun (id, _) ->
          run_at (List.map (fun (i, c) -> if i = id then (i, c - 1) else (i, c)) caps))
        caps);
  same (what ^ ": Sas.find")
    (fun () -> Csdf.Sas.find conc)
    (fun () -> Ref.Sas.find conc);
  (match Ref.Sas.find conc with
  | Some s ->
      List.iter
        (fun s ->
          same (what ^ ": Sas.is_valid")
            (fun () -> Csdf.Sas.is_valid conc s)
            (fun () -> Ref.Sas.is_valid conc s))
        [ s; List.rev s ]
  | None -> ());
  same (what ^ ": Mcr.build edges")
    (fun () -> Mcr.edges (Mcr.build conc))
    (fun () -> Ref.Mcr.edges conc)

(* ------------------------------------------------------------------ *)
(* Shipped graphs                                                      *)
(* ------------------------------------------------------------------ *)

let graphs_dir =
  let d = "../graphs" in
  if Sys.file_exists d then d else "graphs"

let graph_files =
  List.sort compare
    (List.filter
       (fun f -> Filename.check_suffix f ".tpdf")
       (Array.to_list (Sys.readdir graphs_dir)))

let check_file file () =
  match Serial.load (Filename.concat graphs_dir file) with
  | Error m -> Alcotest.fail (file ^ ": " ^ m)
  | Ok g ->
      let masks =
        List.map (Tpdf_core.Buffers.active_channels g)
          (Tpdf_sim.Reconfigure.mode_scenarios g)
      in
      let values = if Graph.parameters g = [] then [ 1 ] else [ 1; 2; 3; 7 ] in
      List.iter
        (fun v ->
          let valuation =
            Valuation.of_list (List.map (fun p -> (p, v)) (Graph.parameters g))
          in
          check_conc
            (Printf.sprintf "%s at %d" file v)
            ~masks
            (Csdf.Concrete.make (Graph.skeleton g) valuation))
        values

(* ------------------------------------------------------------------ *)
(* Random graphs                                                       *)
(* ------------------------------------------------------------------ *)

(* A ring a0 -> a1 -> ... -> a0 of 2-5 CSDF actors, balanced by
   construction: actor i runs r_i cycles per iteration and ring channel
   i carries m * r_i * r_(i+1) tokens per iteration.  The channel back
   into a0 holds 0-29 initial tokens and the others none, so about a
   third of the rings deadlock; a0 has a self-loop, with 0-29 initial
   tokens too, half of the time. *)
let build_cycle seed =
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

let check_csdf what g =
  check_conc what (Csdf.Concrete.make g Valuation.empty);
  true

let prop_trees =
  QCheck.Test.make ~name:"random trees" ~count:300 Random_graphs.arb_spec
    (fun spec ->
      check_csdf
        (Printf.sprintf "tree seed=%d n=%d" spec.Random_graphs.seed
           spec.Random_graphs.n_actors)
        (Random_graphs.build_tree spec))

let prop_cycles =
  QCheck.Test.make ~name:"random balanced cycles" ~count:1000
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      check_csdf (Printf.sprintf "cycle seed=%d" seed) (build_cycle seed))

(* The cycle generator must exercise both verdicts. *)
let test_cycles_cover_both_verdicts () =
  let live =
    List.filter
      (fun seed ->
        match Ref.Schedule.run (Csdf.Concrete.make (build_cycle seed) Valuation.empty) with
        | Ref.Schedule.Complete _ -> true
        | Ref.Schedule.Deadlock _ -> false)
      (List.init 200 Fun.id)
  in
  let n = List.length live in
  if n < 20 || n > 180 then
    Alcotest.failf "%d of 200 cycles live: too few of one verdict" n

let () =
  Alcotest.run "walk_equiv"
    [
      ( "shipped",
        List.map
          (fun f -> Alcotest.test_case f `Quick (check_file f))
          graph_files );
      ( "random",
        Alcotest.test_case "cycles cover both verdicts" `Quick
          test_cycles_cover_both_verdicts
        :: List.map QCheck_alcotest.to_alcotest [ prop_trees; prop_cycles ] );
    ]
