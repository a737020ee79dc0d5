(* Differential suite for the max-plus solver (lib/sched/mcr.ml) against
   [Reference_mcr], the HSDF expansion and bisection it replaced.  Each
   case builds both sides and requires the same liveness verdict and, on
   a live graph, the exact period within 1e-9 * max(1, period) of the
   bisection's, under unit durations and under one non-uniform duration
   function.  The latency must equal the critical path of the canonical
   period (Canonical_period.critical_path_length) exactly: both are the
   longest same-iteration dependency path.  The firing orders of the
   other walk policies must compile to the same two numbers.

   Inputs: every shipped graph with every parameter at 1, 2, 3 and 7,
   random trees of at most 500 firings per iteration, and random
   balanced rings with 0-29 initial tokens and an optional self-loop,
   where both verdicts occur.  Fixed cases pin fig2: a state of 6 keys
   at p = 1 and p = 64, period 2p and latency 2p + 4 exactly, and
   [Mcr.of_firings] refusing orders that are not one iteration. *)

module Csdf = Tpdf_csdf
module Graph = Tpdf_core.Graph
module Serial = Tpdf_core.Serial
module Valuation = Tpdf_param.Valuation
module Mcr = Tpdf_sched.Mcr
module Canonical_period = Tpdf_sched.Canonical_period
module Obs = Tpdf_obs.Obs
module Metrics = Tpdf_obs.Metrics

(* Durations from 0.25 to 6.25 ms that differ between actors and
   between an actor's firings. *)
let uneven (n : Mcr.node) =
  let last = Char.code n.actor.[String.length n.actor - 1] in
  0.25 +. (1.5 *. float_of_int ((last + n.index) mod 5))

let durations = [ ("unit", fun (_ : Mcr.node) -> 1.0); ("uneven", uneven) ]

let check_conc what conc =
  let built build =
    match build conc with t -> Ok t | exception Failure m -> Error m
  in
  match (built (Mcr.build ?obs:None), built Reference_mcr.build) with
  | Error m, Error m' ->
      if m <> m' then Alcotest.failf "%s: %S, reference %S" what m m'
  | Ok t, Ok r ->
      let dag = Canonical_period.build conc in
      (* Admission compiles its Late_first walk: every complete order
         must give the same bound as [build]'s Eager one. *)
      let others =
        List.filter_map
          (fun policy ->
            match Csdf.Schedule.run ~policy conc with
            | Csdf.Schedule.Complete trace ->
                Some (Mcr.of_firings conc trace.Csdf.Schedule.firings)
            | Csdf.Schedule.Deadlock _ -> None)
          Csdf.Schedule.[ Late_first; Min_buffer ]
      in
      List.iter
        (fun (name, durations) ->
          let b = Mcr.solve ~durations t in
          let period = Reference_mcr.iteration_period_ms ~durations r in
          if
            Float.abs (b.Mcr.period_ms -. period)
            > 1e-9 *. Float.max 1.0 period
          then
            Alcotest.failf "%s, %s durations: period %.17g, bisection %.17g"
              what name b.Mcr.period_ms period;
          let cp = Canonical_period.critical_path_length dag ~durations in
          if not (Float.equal b.Mcr.latency_ms cp) then
            Alcotest.failf
              "%s, %s durations: latency %.17g, critical path %.17g" what
              name b.Mcr.latency_ms cp;
          List.iter
            (fun t' ->
              let b' = Mcr.solve ~durations t' in
              if
                not
                  (Float.equal b.Mcr.period_ms b'.Mcr.period_ms
                  && Float.equal b.Mcr.latency_ms b'.Mcr.latency_ms)
              then
                Alcotest.failf "%s, %s durations: another order gives %g, %g"
                  what name b'.Mcr.period_ms b'.Mcr.latency_ms)
            others)
        durations
  | Ok _, Error m -> Alcotest.failf "%s: the reference found it dead: %s" what m
  | Error m, Ok _ -> Alcotest.failf "%s: dead only here: %s" what m

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
      let values = if Graph.parameters g = [] then [ 1 ] else [ 1; 2; 3; 7 ] in
      List.iter
        (fun v ->
          let valuation =
            Valuation.of_list (List.map (fun p -> (p, v)) (Graph.parameters g))
          in
          check_conc
            (Printf.sprintf "%s at %d" file v)
            (Csdf.Concrete.make (Graph.skeleton g) valuation))
        values

(* ------------------------------------------------------------------ *)
(* fig2, exactly                                                       *)
(* ------------------------------------------------------------------ *)

let fig2 p =
  let { Tpdf_core.Examples.graph; _ } = Tpdf_core.Examples.fig2 () in
  Csdf.Concrete.make (Graph.skeleton graph) (Valuation.of_list [ ("p", p) ])

let test_fig2_state () =
  List.iter
    (fun p ->
      let obs = Obs.create () in
      ignore (Mcr.build ~obs (fig2 p));
      Alcotest.(check (option (float 0.0)))
        (Printf.sprintf "mcr.state at p=%d" p)
        (Some 6.0)
        (Metrics.gauge (Obs.metrics obs) "mcr.state"))
    [ 1; 64 ]

let test_fig2_exact () =
  List.iter
    (fun p ->
      let b = Mcr.solve (Mcr.build (fig2 p)) in
      let exactly what want got =
        if not (Float.equal want got) then
          Alcotest.failf "fig2 p=%d: %s %.17g, want %.17g" p what got want
      in
      exactly "period" (float_of_int (2 * p)) b.Mcr.period_ms;
      exactly "latency" (float_of_int ((2 * p) + 4)) b.Mcr.latency_ms)
    [ 1; 8; 64 ]

let test_bad_orders () =
  let conc = fig2 2 in
  let firings =
    match Csdf.Schedule.run conc with
    | Csdf.Schedule.Complete trace -> trace.Csdf.Schedule.firings
    | Csdf.Schedule.Deadlock _ -> Alcotest.fail "fig2 deadlocks"
  in
  List.iter
    (fun (what, order) ->
      match Mcr.of_firings conc order with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "%s order accepted" what)
    [
      ("reversed", List.rev firings);
      ("truncated", List.tl firings);
      ("doubled", firings @ firings);
    ]

(* ------------------------------------------------------------------ *)
(* Random graphs                                                       *)
(* ------------------------------------------------------------------ *)

let check_csdf what g =
  check_conc what (Csdf.Concrete.make g Valuation.empty);
  true

(* About one tree in fourteen fires more than 500 times per iteration,
   where the bisection takes from 50 ms to 10 s (7333 firings); those
   are discarded. *)
let prop_trees =
  QCheck.Test.make ~name:"random trees" ~count:300 Random_graphs.arb_spec
    (fun spec ->
      let g = Random_graphs.build_tree spec in
      let firings =
        List.fold_left
          (fun acc (_, q) -> acc + q)
          0
          (Csdf.Concrete.q_vector (Csdf.Concrete.make g Valuation.empty))
      in
      QCheck.assume (firings <= 500);
      check_csdf
        (Printf.sprintf "tree seed=%d n=%d" spec.Random_graphs.seed
           spec.Random_graphs.n_actors)
        g)

let prop_rings =
  QCheck.Test.make ~name:"random balanced rings" ~count:1000
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      check_csdf (Printf.sprintf "ring seed=%d" seed)
        (Random_graphs.build_ring seed))

let () =
  Alcotest.run "mcr_equiv"
    [
      ( "shipped",
        List.map
          (fun f -> Alcotest.test_case f `Quick (check_file f))
          graph_files );
      ( "fig2",
        [
          Alcotest.test_case "state of 6 keys at every p" `Quick
            test_fig2_state;
          Alcotest.test_case "period 2p, latency 2p+4" `Quick test_fig2_exact;
          Alcotest.test_case "incomplete orders refused" `Quick
            test_bad_orders;
        ] );
      ( "random",
        List.map QCheck_alcotest.to_alcotest [ prop_trees; prop_rings ] );
    ]
