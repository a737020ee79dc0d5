(* The maximum-cycle-ratio solver as it stood before lib/sched/mcr.ml
   became one max-plus pass and a policy iteration: one iteration
   expanded into its homogeneous (HSDF) dependency graph, one node per
   firing, with inter-iteration delays read from the ADF, and the
   maximum cycle ratio

     MCR = max over cycles (sum of firing durations / sum of delays)

   found by Lawler's binary search with a Bellman-Ford positive-cycle
   oracle.  Kept as the oracle of test_mcr_equiv.ml, and [edges] as the
   library side of test_walk_equiv.ml's edge comparison, as
   reference_engine.ml is for the engine.  Do not optimize this file.
   The only edits are the module aliases and this comment. *)
module Canonical_period = Tpdf_sched.Canonical_period
module Adf = Tpdf_sched.Adf
module Csdf = Tpdf_csdf
module Digraph = Tpdf_graph.Digraph
module Obs = Tpdf_obs.Obs
module Metrics = Tpdf_obs.Metrics

type node = Canonical_period.node = { actor : string; index : int }

type edge = { src : node; dst : node; delay : int }

(* The expansion as dense arrays: the Bellman-Ford oracle runs tens of
   times per binary search (each with up to |V| relaxation rounds), so
   node identities are resolved to integers once here. *)
type t = {
  node_arr : node array;
  edge_arr : edge array;
  edge_src : int array; (* index into node_arr *)
  edge_dst : int array;
  edge_delay : int array;
}

let build ?(obs = Obs.disabled) conc =
  Obs.wall_span obs ~cat:"sched" "mcr.build" @@ fun () ->
  let g = Csdf.Concrete.graph conc in
  (match Csdf.Schedule.run conc with
  | Csdf.Schedule.Complete _ -> ()
  | Csdf.Schedule.Deadlock { stuck; _ } ->
      failwith
        (Printf.sprintf "Mcr.build: graph is not live (stuck: %s)"
           (String.concat ", " stuck)));
  let q = Csdf.Concrete.q conc in
  let actors = Csdf.Graph.actors g in
  let edges = ref [] in
  let add src m dst j delay =
    edges :=
      { src = { actor = src; index = m }; dst = { actor = dst; index = j }; delay }
      :: !edges
  in
  (* Sequential self-order with an iteration wrap-around. *)
  List.iter
    (fun a ->
      for i = 1 to q a - 1 do
        add a (i - 1) a i 0
      done;
      add a (q a - 1) a 0 1)
    actors;
  (* Data dependencies, with iteration delays, from the ADF. *)
  List.iter
    (fun (e : (string, Csdf.Graph.channel) Digraph.edge) ->
      for j = 0 to q e.dst - 1 do
        match Adf.producer conc ~channel:e.id ~consumer_index:j with
        | Some (m, delay) -> add e.src m e.dst j delay
        | None -> ()
      done)
    (Csdf.Graph.channels g);
  let node_arr =
    Array.of_list
      (List.concat_map
         (fun a -> List.init (q a) (fun index -> { actor = a; index }))
         actors)
  in
  (* Node [{actor; index}] sits at its actor's offset plus [index]. *)
  let offset = Hashtbl.create 16 in
  Array.iteri
    (fun i n -> if n.index = 0 then Hashtbl.replace offset n.actor i)
    node_arr;
  let slot n = Hashtbl.find offset n.actor + n.index in
  let edge_arr = Array.of_list (List.sort_uniq compare !edges) in
  let t =
    {
      node_arr;
      edge_arr;
      edge_src = Array.map (fun e -> slot e.src) edge_arr;
      edge_dst = Array.map (fun e -> slot e.dst) edge_arr;
      edge_delay = Array.map (fun e -> e.delay) edge_arr;
    }
  in
  if Obs.enabled obs then begin
    let m = Obs.metrics obs in
    Metrics.set_gauge m "mcr.nodes" (float_of_int (Array.length node_arr));
    Metrics.set_gauge m "mcr.edges" (float_of_int (Array.length edge_arr))
  end;
  t

let edges t = Array.to_list t.edge_arr

(* Positive-cycle oracle: is there a cycle with
   sum (dur(src) - lambda * delay) > 0 ?  Bellman-Ford longest-path
   relaxation from an all-zero potential, over the dense arrays compiled
   at [build].  Edge weights are fixed during the relaxation, so they are
   evaluated once up front rather than once per round. *)
let bellman t w =
  let n = Array.length t.node_arr in
  let ne = Array.length t.edge_arr in
  let dist = Array.make n 0.0 in
  let changed = ref true in
  let rounds = ref 0 in
  while !changed && !rounds <= n do
    changed := false;
    incr rounds;
    for i = 0 to ne - 1 do
      let u = Array.unsafe_get t.edge_src i
      and v = Array.unsafe_get t.edge_dst i in
      let cand = Array.unsafe_get dist u +. Array.unsafe_get w i in
      if cand > Array.unsafe_get dist v +. 1e-12 then begin
        Array.unsafe_set dist v cand;
        changed := true
      end
    done
  done;
  !rounds > n

let iteration_period_ms ?(durations = fun _ -> 1.0) ?(obs = Obs.disabled) t =
  Obs.wall_span obs ~cat:"sched" "mcr.solve" @@ fun () ->
  let oracle_calls = ref 0 in
  (* Durations don't depend on lambda: evaluate them once per solve, so
     each oracle call is pure array arithmetic. *)
  let src_dur = Array.map (fun u -> durations t.node_arr.(u)) t.edge_src in
  let delay_f = Array.map float_of_int t.edge_delay in
  let ne = Array.length t.edge_arr in
  let oracle lambda =
    incr oracle_calls;
    bellman t (Array.init ne (fun i -> src_dur.(i) -. (lambda *. delay_f.(i))))
  in
  let hi0 =
    Array.fold_left (fun acc n -> acc +. Float.max 0.0 (durations n)) 1.0 t.node_arr
  in
  let result =
    if not (oracle 0.0) then 0.0
    else begin
      let lo = ref 0.0 and hi = ref hi0 in
      (* Widen until infeasible (cannot happen beyond total duration, but be
         safe about degenerate duration functions). *)
      while oracle !hi do
        hi := !hi *. 2.0
      done;
      for _ = 1 to 60 do
        let mid = 0.5 *. (!lo +. !hi) in
        if oracle mid then lo := mid else hi := mid
      done;
      0.5 *. (!lo +. !hi)
    end
  in
  if Obs.enabled obs then begin
    let m = Obs.metrics obs in
    Metrics.incr ~by:!oracle_calls m "mcr.oracle_calls";
    Metrics.set_gauge m "mcr.period_ms" result
  end;
  result
