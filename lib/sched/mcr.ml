module Csdf = Tpdf_csdf
module Digraph = Tpdf_graph.Digraph
module Obs = Tpdf_obs.Obs
module Metrics = Tpdf_obs.Metrics

type node = Canonical_period.node = { actor : string; index : int }

(* Firings are numbered by their position in the compiled order, and
   state keys by first appearance.  The keys are also the ratio graph's
   nodes: a key stands for its firing, so a firing read at two delays is
   two nodes with the same in-edges, which changes no cycle's ratio. *)
type t = {
  firings : node array;
  preds : int array array; (* same-iteration producers, by position *)
  delayed : int array array; (* keys of the delayed producers *)
  last_use : int array;
      (* the last position that reads a firing's vector; [max_int] for
         the keys' firings, whose vectors the solve reads *)
  key_pos : int array; (* the position of a key's firing *)
  key_delay : int array;
}

let compile obs conc (order : Csdf.Schedule.firing list) =
  let bad fmt = Printf.ksprintf invalid_arg ("Mcr.of_firings: " ^^ fmt) in
  let g = Csdf.Concrete.graph conc in
  let actors = Array.of_list (Csdf.Graph.actors g) in
  let actor_ix = Hashtbl.create 16 in
  Array.iteri (fun i a -> Hashtbl.replace actor_ix a i) actors;
  let q = Array.map (Csdf.Concrete.q conc) actors in
  (* Each actor's input channels, with their producing actor. *)
  let inputs =
    Array.map
      (fun a ->
        List.map
          (fun (e : (string, Csdf.Graph.channel) Digraph.edge) ->
            (e.id, Hashtbl.find actor_ix e.src))
          (Csdf.Graph.in_channels g a))
      actors
  in
  let order = Array.of_list order in
  let n = Array.length order in
  if n <> Array.fold_left ( + ) 0 q then
    bad "%d firings for an iteration of %d" n (Array.fold_left ( + ) 0 q);
  (* pos.(a).(i): the position of actor a's firing i. *)
  let pos = Array.map (fun qa -> Array.make qa (-1)) q in
  let actor_at =
    Array.mapi
      (fun p (f : Csdf.Schedule.firing) ->
        match Hashtbl.find_opt actor_ix f.actor with
        | Some a
          when f.index >= 0 && f.index < q.(a) && pos.(a).(f.index) < 0 ->
            pos.(a).(f.index) <- p;
            a
        | _ -> bad "unexpected firing %s[%d]" f.actor f.index)
      order
  in
  let keys = Hashtbl.create 16 and rev_keys = ref [] in
  let key a m d =
    match Hashtbl.find_opt keys (a, m, d) with
    | Some k -> k
    | None ->
        let k = Hashtbl.length keys in
        Hashtbl.add keys (a, m, d) k;
        rev_keys := (a, m, d) :: !rev_keys;
        k
  in
  let last_use = Array.make n (-1) in
  (* A firing's producers: its actor's previous firing, or the last one
     across the wrap-around, and the ADF's on each input channel. *)
  let producers p a =
    let i = order.(p).index in
    let same = ref [] and delayed = ref [] in
    if i = 0 then delayed := [ key a (q.(a) - 1) 1 ]
    else same := [ pos.(a).(i - 1) ];
    List.iter
      (fun (channel, b) ->
        match Adf.producer conc ~channel ~consumer_index:i with
        | Some (m, 0) -> same := pos.(b).(m) :: !same
        | Some (m, d) -> delayed := key b m d :: !delayed
        | None -> ())
      inputs.(a);
    List.iter
      (fun p' ->
        if p' >= p then
          bad "%s[%d] fires before its producer %s[%d]" order.(p).actor i
            order.(p').actor order.(p').index;
        last_use.(p') <- Int.max last_use.(p') p)
      !same;
    (Array.of_list !same, Array.of_list !delayed)
  in
  let deps = Array.mapi producers actor_at in
  let keys = Array.of_list (List.rev !rev_keys) in
  let key_pos = Array.map (fun (a, m, _) -> pos.(a).(m)) keys in
  Array.iter (fun p -> last_use.(p) <- max_int) key_pos;
  if Obs.enabled obs then
    Metrics.set_gauge (Obs.metrics obs) "mcr.state"
      (float_of_int (Array.length keys));
  {
    firings =
      Array.map
        (fun (f : Csdf.Schedule.firing) -> { actor = f.actor; index = f.index })
        order;
    preds = Array.map fst deps;
    delayed = Array.map snd deps;
    last_use;
    key_pos;
    key_delay = Array.map (fun (_, _, d) -> d) keys;
  }

let of_firings ?(obs = Obs.disabled) conc order =
  Obs.wall_span obs ~cat:"sched" "mcr.build" @@ fun () -> compile obs conc order

let build ?(obs = Obs.disabled) conc =
  Obs.wall_span obs ~cat:"sched" "mcr.build" @@ fun () ->
  match Csdf.Schedule.run conc with
  | Csdf.Schedule.Complete trace -> compile obs conc trace.Csdf.Schedule.firings
  | Csdf.Schedule.Deadlock { stuck; _ } ->
      failwith
        (Printf.sprintf "Mcr.build: graph is not live (stuck: %s)"
           (String.concat ", " stuck))

(* The pass: each firing's completion time as a max-plus vector over the
   keys, in the compiled order.  A vector holds its finite entries only,
   as parallel key and value arrays, and is dropped after its last
   reader, so memory follows the entries still to be read rather than
   firings x keys (a graph with 1000 initial tokens on one channel has
   1002 keys).  Returns the vectors of the keys' firings and the largest
   entry. *)
let pass t dur =
  let n = Array.length t.firings in
  let vecs = Array.make n ([||], [||]) in
  (* The vector being built, densely, and the keys it has touched. *)
  let acc = Array.make (Array.length t.key_delay) neg_infinity in
  let touched = ref [] in
  let raise_to k x =
    if acc.(k) = neg_infinity then touched := k :: !touched;
    if x > acc.(k) then acc.(k) <- x
  in
  let latency = ref neg_infinity in
  for p = 0 to n - 1 do
    Array.iter
      (fun p' ->
        let ks, xs = vecs.(p') in
        Array.iteri (fun i k -> raise_to k xs.(i)) ks)
      t.preds.(p);
    Array.iter
      (fun p' -> if t.last_use.(p') = p then vecs.(p') <- ([||], [||]))
      t.preds.(p);
    Array.iter (fun k -> raise_to k 0.0) t.delayed.(p);
    let ks = Array.of_list !touched in
    let xs =
      Array.map
        (fun k ->
          let x = acc.(k) +. dur.(p) in
          acc.(k) <- neg_infinity;
          latency := Float.max !latency x;
          x)
        ks
    in
    touched := [];
    vecs.(p) <- (ks, xs)
  done;
  (Array.map (fun p -> vecs.(p)) t.key_pos, !latency)

(* An in-edge of the ratio graph. *)
type edge = { from : int; weight : float; transit : float }

(* Howard policy iteration for the maximum cycle ratio of a graph in
   which every node has an in-edge and every edge a positive transit.
   Each node keeps one in-edge, its policy; the policy graph's cycles
   give every node a ratio [eta] (that of the cycle its policy path
   reaches) and a bias [x].  A node then takes an in-edge from a larger
   ratio or, when none is larger, one of larger bias, until no node can:
   the largest ratio is then the maximum cycle ratio.  Returns it and the
   number of policies evaluated. *)
let howard (ins : edge array array) =
  let n = Array.length ins in
  let eps =
    let wmax =
      Array.fold_left
        (Array.fold_left (fun m e -> Float.max m (Float.abs e.weight)))
        0.0 ins
    in
    1e-12 *. float_of_int n *. (1.0 +. wmax)
  in
  (* Start from each node's heaviest in-edge. *)
  let pi =
    Array.map
      (fun es ->
        let best = ref 0 in
        Array.iteri
          (fun i e -> if e.weight > es.(!best).weight then best := i)
          es;
        !best)
      ins
  in
  let policy v = ins.(v).(pi.(v)) in
  let eta = Array.make n 0.0 and x = Array.make n 0.0 in
  let evaluate () =
    (* -1 unseen, s while on the walk from s, n once valued *)
    let mark = Array.make n (-1) in
    for s = 0 to n - 1 do
      if mark.(s) < 0 then begin
        let path = ref [] and v = ref s in
        while mark.(!v) < 0 do
          mark.(!v) <- s;
          path := !v :: !path;
          v := (policy !v).from
        done;
        if mark.(!v) = s then begin
          (* The walk closed a new cycle through [c]. *)
          let c = !v in
          let rec around u w t =
            let e = policy u in
            let w = w +. e.weight and t = t +. e.transit in
            if e.from = c then w /. t else around e.from w t
          in
          eta.(c) <- around c 0.0 0.0;
          x.(c) <- 0.0;
          mark.(c) <- n
        end;
        (* Value the walk backwards from where it stopped. *)
        List.iter
          (fun u ->
            if mark.(u) <> n then begin
              let e = policy u in
              eta.(u) <- eta.(e.from);
              x.(u) <- e.weight -. (eta.(u) *. e.transit) +. x.(e.from);
              mark.(u) <- n
            end)
          !path
      end
    done
  in
  let improve () =
    let changed = ref false in
    let switch v i =
      if i <> pi.(v) then begin
        pi.(v) <- i;
        changed := true
      end
    in
    for v = 0 to n - 1 do
      let best = ref pi.(v) in
      Array.iteri
        (fun i e ->
          if eta.(e.from) > eta.(ins.(v).(!best).from) +. eps then best := i)
        ins.(v);
      switch v !best
    done;
    if not !changed then
      for v = 0 to n - 1 do
        let best = ref pi.(v) and bias = ref x.(v) in
        Array.iteri
          (fun i e ->
            let b = e.weight -. (eta.(v) *. e.transit) +. x.(e.from) in
            if eta.(e.from) >= eta.(v) -. eps && b > !bias +. eps then begin
              best := i;
              bias := b
            end)
          ins.(v);
        switch v !best
      done;
    !changed
  in
  let rec loop k =
    evaluate ();
    if improve () then loop (k + 1) else k
  in
  let iterations = loop 1 in
  (Array.fold_left Float.max neg_infinity eta, iterations)

type bound = { period_ms : float; latency_ms : float }

let solve ?(durations = fun _ -> 1.0) ?(obs = Obs.disabled) t =
  Obs.wall_span obs ~cat:"sched" "mcr.solve" @@ fun () ->
  let vecs, latency_ms = pass t (Array.map durations t.firings) in
  (* An edge from each entry's key to the key whose firing holds it. *)
  let ins =
    Array.map
      (fun (ks, xs) ->
        Array.mapi
          (fun i k ->
            {
              from = k;
              weight = xs.(i);
              transit = float_of_int t.key_delay.(k);
            })
          ks)
      vecs
  in
  let period_ms, iterations = howard ins in
  if Obs.enabled obs then begin
    let m = Obs.metrics obs in
    Metrics.incr ~by:iterations m "mcr.policy_iterations";
    Metrics.set_gauge m "mcr.period_ms" period_ms
  end;
  { period_ms; latency_ms }

let iteration_period_ms ?durations ?obs t =
  (solve ?durations ?obs t).period_ms
