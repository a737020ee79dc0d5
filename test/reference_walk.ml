(* Snapshot of the analyses' firing rule as it stood before
   lib/csdf/walk.ml wrote it once: [Schedule.run], [Bounded.run] and
   [Bounded.minimize], [Sas]'s replay and search, and the edge
   derivation of [Mcr.build] with its own copy of the ADF.  Kept as the
   oracle of test_walk_equiv.ml, as reference_engine.ml is for the
   engine.  Do not optimize this file.  The only edits are the module
   aliases, the type re-exports that make both sides' results
   comparable with (=), and [Mcr.edges], which is [Mcr.build] stopped at
   its sorted edge list (its liveness check runs the [Schedule] above). *)
module Csdf = Tpdf_csdf
module Concrete = Tpdf_csdf.Concrete
module Graph = Tpdf_csdf.Graph

module Schedule = struct
  module Digraph = Tpdf_graph.Digraph

  type policy = Csdf.Schedule.policy = Eager | Late_first | Min_buffer

  type firing = Csdf.Schedule.firing = { actor : string; phase : int; index : int }

  type trace = Csdf.Schedule.trace = {
    firings : firing list;
    max_occupancy : (int * int) list;
    returned_to_initial : bool;
  }

  type outcome = Csdf.Schedule.outcome =
    | Complete of trace
    | Deadlock of { fired : firing list; stuck : string list }

  type state = {
    tokens : (int, int) Hashtbl.t; (* channel id -> current tokens *)
    count : (string, int) Hashtbl.t; (* actor -> completed firings *)
    max_occ : (int, int) Hashtbl.t;
  }

  let init_state c =
    let tokens = Hashtbl.create 16 and max_occ = Hashtbl.create 16 in
    List.iter
      (fun (e : (string, Graph.channel) Digraph.edge) ->
        Hashtbl.replace tokens e.id e.label.init;
        Hashtbl.replace max_occ e.id e.label.init)
      (Graph.channels (Concrete.graph c));
    let count = Hashtbl.create 16 in
    List.iter
      (fun a -> Hashtbl.replace count a 0)
      (Graph.actors (Concrete.graph c));
    { tokens; count; max_occ }

  let enabled act c st a =
    let g = Concrete.graph c in
    let n = Hashtbl.find st.count a in
    let phase = n mod Graph.phases g a in
    List.for_all
      (fun (e : (string, Graph.channel) Digraph.edge) ->
        (not (act e.id))
        ||
        let ch = Concrete.chan c e.id in
        Hashtbl.find st.tokens e.id >= ch.cons.(phase))
      (Graph.in_channels g a)

  let fire act c st a =
    let g = Concrete.graph c in
    let n = Hashtbl.find st.count a in
    let phase = n mod Graph.phases g a in
    List.iter
      (fun (e : (string, Graph.channel) Digraph.edge) ->
        if act e.id then
          let ch = Concrete.chan c e.id in
          Hashtbl.replace st.tokens e.id
            (Hashtbl.find st.tokens e.id - ch.cons.(phase)))
      (Graph.in_channels g a);
    List.iter
      (fun (e : (string, Graph.channel) Digraph.edge) ->
        if act e.id then begin
          let ch = Concrete.chan c e.id in
          let t = Hashtbl.find st.tokens e.id + ch.prod.(phase) in
          Hashtbl.replace st.tokens e.id t;
          if t > Hashtbl.find st.max_occ e.id then
            Hashtbl.replace st.max_occ e.id t
        end)
      (Graph.out_channels g a);
    Hashtbl.replace st.count a (n + 1);
    { actor = a; phase; index = n }

  (* Net token delta of firing [a] in its current phase (for Min_buffer). *)
  let firing_delta act c st a =
    let g = Concrete.graph c in
    let n = Hashtbl.find st.count a in
    let phase = n mod Graph.phases g a in
    let rate field acc (e : (string, Graph.channel) Digraph.edge) =
      if act e.id then acc + field (Concrete.chan c e.id) phase else acc
    in
    let consumed =
      List.fold_left (rate (fun ch i -> ch.Concrete.cons.(i))) 0 (Graph.in_channels g a)
    in
    let produced =
      List.fold_left (rate (fun ch i -> ch.Concrete.prod.(i))) 0 (Graph.out_channels g a)
    in
    produced - consumed

  let run ?(policy = Eager) ?(iterations = 1) ?targets
      ?(active_channel = fun _ -> true) c =
    if iterations < 1 then invalid_arg "Schedule.run: iterations must be >= 1";
    let g = Concrete.graph c in
    let actors = Graph.actors g in
    let base_target a =
      match targets with
      | None -> Concrete.q c a
      | Some l -> ( match List.assoc_opt a l with Some n -> n | None -> 0)
    in
    let target a = iterations * base_target a in
    let act = active_channel in
    let st = init_state c in
    let total = List.fold_left (fun acc a -> acc + target a) 0 actors in
    let fired = ref [] in
    let n_fired = ref 0 in
    let stalled = ref false in
    let last = ref None in
    while (not !stalled) && !n_fired < total do
      let candidates =
        List.filter
          (fun a -> Hashtbl.find st.count a < target a && enabled act c st a)
          actors
      in
      let choice =
        match (policy, candidates) with
        | _, [] -> None
        | Eager, a :: _ -> Some a
        | Late_first, _ -> (
            (* Late-schedule heuristic (ref [8] of the paper): keep firing
               the current actor while it can, otherwise switch to the actor
               with the most remaining firings.  Reproduces (a3)^2(a1)^3(a2)^2
               for Fig. 1 and the late schedule (B C C B) for Fig. 4(b). *)
            match !last with
            | Some a when List.mem a candidates -> Some a
            | _ ->
                let remaining a = target a - Hashtbl.find st.count a in
                Some
                  (List.fold_left
                     (fun best a ->
                       if remaining a > remaining best then a else best)
                     (List.hd candidates) (List.tl candidates)))
        | Min_buffer, _ ->
            let delta = firing_delta act c st in
            Some
              (List.fold_left
                 (fun best a -> if delta a < delta best then a else best)
                 (List.hd candidates) (List.tl candidates))
      in
      match choice with
      | None -> stalled := true
      | Some a ->
          fired := fire act c st a :: !fired;
          last := Some a;
          incr n_fired
    done;
    if !stalled then
      Deadlock
        {
          fired = List.rev !fired;
          stuck =
            List.filter (fun a -> Hashtbl.find st.count a < target a) actors;
        }
    else
      let returned =
        List.for_all
          (fun (e : (string, Graph.channel) Digraph.edge) ->
            (not (act e.id)) || Hashtbl.find st.tokens e.id = e.label.init)
          (Graph.channels g)
      in
      Complete
        {
          firings = List.rev !fired;
          max_occupancy =
            List.filter_map
              (fun (e : (string, Graph.channel) Digraph.edge) ->
                if act e.id then Some (e.id, Hashtbl.find st.max_occ e.id)
                else None)
              (Graph.channels g);
          returned_to_initial = returned;
        }
end

module Bounded = struct
  module Digraph = Tpdf_graph.Digraph

  type outcome = Csdf.Bounded.outcome =
    | Fits of { max_occupancy : (int * int) list }
    | Blocked of { full_channels : int list; stuck : string list }

  let lower_bound conc id =
    let ch = Concrete.chan conc id in
    let amax = Array.fold_left max 0 in
    max ch.Concrete.init (max (amax ch.Concrete.prod) (amax ch.Concrete.cons))

  let run conc ~capacities =
    let g = Concrete.graph conc in
    let actors = Graph.actors g in
    let tokens = Hashtbl.create 16 and max_occ = Hashtbl.create 16 in
    List.iter
      (fun (e : (string, Graph.channel) Digraph.edge) ->
        if capacities e.id < e.label.init then
          invalid_arg
            (Printf.sprintf
               "Bounded.run: capacity %d of e%d below its %d initial tokens"
               (capacities e.id) e.id e.label.init);
        Hashtbl.replace tokens e.id e.label.init;
        Hashtbl.replace max_occ e.id e.label.init)
      (Graph.channels g);
    let count = Hashtbl.create 16 in
    List.iter (fun a -> Hashtbl.replace count a 0) actors;
    let phase a = Hashtbl.find count a mod Graph.phases g a in
    let input_ready a =
      List.for_all
        (fun (e : (string, Graph.channel) Digraph.edge) ->
          Hashtbl.find tokens e.id
          >= (Concrete.chan conc e.id).Concrete.cons.(phase a))
        (Graph.in_channels g a)
    in
    (* Output channels too full for this firing. *)
    let blocking_outputs a =
      List.filter_map
        (fun (e : (string, Graph.channel) Digraph.edge) ->
          let prod = (Concrete.chan conc e.id).Concrete.prod.(phase a) in
          if Hashtbl.find tokens e.id + prod > capacities e.id then Some e.id
          else None)
        (Graph.out_channels g a)
    in
    let fire a =
      let ph = phase a in
      List.iter
        (fun (e : (string, Graph.channel) Digraph.edge) ->
          Hashtbl.replace tokens e.id
            (Hashtbl.find tokens e.id - (Concrete.chan conc e.id).Concrete.cons.(ph)))
        (Graph.in_channels g a);
      List.iter
        (fun (e : (string, Graph.channel) Digraph.edge) ->
          let t = Hashtbl.find tokens e.id + (Concrete.chan conc e.id).Concrete.prod.(ph) in
          Hashtbl.replace tokens e.id t;
          if t > Hashtbl.find max_occ e.id then Hashtbl.replace max_occ e.id t)
        (Graph.out_channels g a);
      Hashtbl.replace count a (Hashtbl.find count a + 1)
    in
    let target a = Concrete.q conc a in
    let total = List.fold_left (fun acc a -> acc + target a) 0 actors in
    let fired = ref 0 and stalled = ref false in
    while (not !stalled) && !fired < total do
      let runnable =
        List.filter
          (fun a ->
            Hashtbl.find count a < target a
            && input_ready a
            && blocking_outputs a = [])
          actors
      in
      match runnable with
      | a :: _ ->
          fire a;
          incr fired
      | [] -> stalled := true
    done;
    if !fired = total then
      Fits
        {
          max_occupancy =
            List.map
              (fun (e : (string, Graph.channel) Digraph.edge) ->
                (e.id, Hashtbl.find max_occ e.id))
              (Graph.channels g);
        }
    else begin
      (* Channels whose fullness blocks an actor that is otherwise ready. *)
      let full =
        List.concat_map
          (fun a ->
            if Hashtbl.find count a < target a && input_ready a then
              blocking_outputs a
            else [])
          actors
      in
      Blocked
        {
          full_channels = List.sort_uniq compare full;
          stuck =
            List.filter (fun a -> Hashtbl.find count a < target a) actors;
        }
    end

  type report = Csdf.Bounded.report = {
    capacities : (int * int) list;
    total : int;
    relaxations : int;
  }

  let minimize ?(max_steps = 10_000) conc =
    (* The graph must be live in the first place. *)
    (match Schedule.run conc with
    | Schedule.Complete _ -> ()
    | Schedule.Deadlock { stuck; _ } ->
        failwith
          (Printf.sprintf "Bounded.minimize: graph deadlocks even unbounded (%s)"
             (String.concat ", " stuck)));
    let g = Concrete.graph conc in
    let caps = Hashtbl.create 16 in
    List.iter
      (fun (e : (string, Graph.channel) Digraph.edge) ->
        Hashtbl.replace caps e.id (lower_bound conc e.id))
      (Graph.channels g);
    let relaxations = ref 0 in
    let rec search steps =
      if steps > max_steps then
        failwith "Bounded.minimize: relaxation budget exhausted";
      match run conc ~capacities:(Hashtbl.find caps) with
      | Fits _ -> ()
      | Blocked { full_channels; _ } ->
          let widen =
            match full_channels with
            | [] ->
                (* Fullness is not the blocker (should not happen for live
                   graphs); widen everything as a safety valve. *)
                List.map
                  (fun (e : (string, Graph.channel) Digraph.edge) -> e.id)
                  (Graph.channels g)
            | l -> l
          in
          List.iter
            (fun id ->
              incr relaxations;
              Hashtbl.replace caps id (Hashtbl.find caps id + 1))
            widen;
          search (steps + 1)
    in
    search 0;
    let capacities =
      List.map
        (fun (e : (string, Graph.channel) Digraph.edge) ->
          (e.id, Hashtbl.find caps e.id))
        (Graph.channels g)
    in
    {
      capacities;
      total = List.fold_left (fun acc (_, c) -> acc + c) 0 capacities;
      relaxations = !relaxations;
    }
end

module Sas = struct
  module Digraph = Tpdf_graph.Digraph

  (* Replay bursts over the token state; None on underflow. *)
  let replay conc bursts =
    let g = Concrete.graph conc in
    let tokens = Hashtbl.create 16 in
    List.iter
      (fun (e : (string, Graph.channel) Digraph.edge) ->
        Hashtbl.replace tokens e.id e.label.init)
      (Graph.channels g);
    let count = Hashtbl.create 16 in
    List.iter (fun a -> Hashtbl.replace count a 0) (Graph.actors g);
    let fire_once a =
      let n = Hashtbl.find count a in
      let phase = n mod Graph.phases g a in
      let ok =
        List.for_all
          (fun (e : (string, Graph.channel) Digraph.edge) ->
            Hashtbl.find tokens e.id
            >= (Concrete.chan conc e.id).Concrete.cons.(phase))
          (Graph.in_channels g a)
      in
      if not ok then false
      else begin
        List.iter
          (fun (e : (string, Graph.channel) Digraph.edge) ->
            Hashtbl.replace tokens e.id
              (Hashtbl.find tokens e.id - (Concrete.chan conc e.id).Concrete.cons.(phase)))
          (Graph.in_channels g a);
        List.iter
          (fun (e : (string, Graph.channel) Digraph.edge) ->
            Hashtbl.replace tokens e.id
              (Hashtbl.find tokens e.id + (Concrete.chan conc e.id).Concrete.prod.(phase)))
          (Graph.out_channels g a);
        Hashtbl.replace count a (n + 1);
        true
      end
    in
    let rec bursts_ok = function
      | [] -> Some count
      | (a, n) :: rest ->
          let rec go i = i >= n || (fire_once a && go (i + 1)) in
          if go 0 then bursts_ok rest else None
    in
    bursts_ok bursts

  let is_valid conc bursts =
    (* every actor exactly once, with its full repetition count *)
    let actors = Graph.actors (Concrete.graph conc) in
    let names = List.map fst bursts in
    List.sort compare names = List.sort compare actors
    && List.for_all (fun (a, n) -> n = Concrete.q conc a) bursts
    && replay conc bursts <> None

  (* Greedy search: repeatedly pick an actor whose whole burst can fire now.
     Complete-burst firing is monotone in the same way single firings are,
     so greedy choice with backtracking-free commitment is safe for
     existence... except it is not in general; we add one level of
     backtracking over the first blocked prefix to stay exact on small
     graphs. *)
  let find conc =
    let g = Concrete.graph conc in
    let actors = Graph.actors g in
    let rec search done_ acc =
      if List.length done_ = List.length actors then Some (List.rev acc)
      else
        let candidates =
          List.filter (fun a -> not (List.mem a done_)) actors
        in
        let try_actor a =
          let bursts = List.rev ((a, Concrete.q conc a) :: acc) in
          if replay conc bursts <> None then
            search (a :: done_) ((a, Concrete.q conc a) :: acc)
          else None
        in
        List.fold_left
          (fun found a -> match found with Some _ -> found | None -> try_actor a)
          None candidates
    in
    search [] []
end

module Mcr = struct
  module Digraph = Tpdf_graph.Digraph

  type node = Tpdf_sched.Mcr.node = { actor : string; index : int }
  type edge = Reference_mcr.edge = { src : node; dst : node; delay : int }

  let fdiv a b = if a >= 0 then a / b else -(((-a) + b - 1) / b)

  let edges conc =
    let g = Csdf.Concrete.graph conc in
    (match Schedule.run conc with
    | Csdf.Schedule.Complete _ -> ()
    | Csdf.Schedule.Deadlock { stuck; _ } ->
        failwith
          (Printf.sprintf "Mcr.build: graph is not live (stuck: %s)"
             (String.concat ", " stuck)));
    let q = Csdf.Concrete.q conc in
    let edges = ref [] in
    (* Sequential self-order with an iteration wrap-around. *)
    List.iter
      (fun a ->
        let n = q a in
        for i = 1 to n - 1 do
          edges :=
            { src = { actor = a; index = i - 1 }; dst = { actor = a; index = i }; delay = 0 }
            :: !edges
        done;
        edges :=
          { src = { actor = a; index = n - 1 }; dst = { actor = a; index = 0 }; delay = 1 }
          :: !edges)
      (Csdf.Graph.actors g);
    (* Data dependencies, with iteration delays. *)
    List.iter
      (fun (e : (string, Csdf.Graph.channel) Digraph.edge) ->
        let ch = Csdf.Concrete.chan conc e.id in
        let q_prod = q e.src and q_cons = q e.dst in
        let per_iter = Csdf.Concrete.cumulative ch.Csdf.Concrete.prod q_prod in
        if per_iter > 0 then
          for j = 0 to q_cons - 1 do
            let base =
              Csdf.Concrete.cumulative ch.Csdf.Concrete.cons (j + 1)
              - ch.Csdf.Concrete.init
            in
            (* Smallest iteration k0 >= 0 at which this firing's needs are not
               covered by initial tokens alone. *)
            let k0 =
              if base > 0 then 0
              else 1 + (fdiv (-base) per_iter)
            in
            let needed = base + (k0 * per_iter) in
            if needed > 0 then begin
              let n0 = Csdf.Concrete.firings_needed ch.Csdf.Concrete.prod needed in
              (* absolute producer firing index relative to the consumer's
                 iteration: P(k) = k*q_prod + c *)
              let c = n0 - 1 - (k0 * q_prod) in
              let m = c - (fdiv c q_prod * q_prod) in
              let delay = -fdiv c q_prod in
              if delay >= 0 then
                edges :=
                  {
                    src = { actor = e.src; index = m };
                    dst = { actor = e.dst; index = j };
                    delay;
                  }
                  :: !edges
            end
          done)
      (Csdf.Graph.channels g);
    List.sort_uniq compare !edges
end
