module Digraph = Tpdf_graph.Digraph

type policy = Eager | Late_first | Min_buffer
type firing = { actor : string; phase : int; index : int }

(* Channels are numbered by their position among the active ones. *)
type t = {
  conc : Concrete.t;
  names : string array; (* actors, in declaration order *)
  index : (string, int) Hashtbl.t;
  phases : int array;
  ins : int array array; (* per actor: its active input channels *)
  outs : int array array;
  ids : int array; (* per channel: its id in the graph *)
  init : int array;
  cons : int array array; (* per channel: rates by consumer phase *)
  prod : int array array; (* per channel: rates by producer phase *)
  cap : int array; (* max_int without capacities *)
  tokens : int array;
  peak : int array;
  count : int array; (* per actor: completed firings *)
}

let create ?(active_channel = fun _ -> true) ?capacities conc =
  let g = Concrete.graph conc in
  let chans =
    Array.of_list
      (List.filter
         (fun (e : (string, Graph.channel) Digraph.edge) -> active_channel e.id)
         (Graph.channels g))
  in
  let slot = Hashtbl.create 16 in
  Array.iteri
    (fun k (e : (string, Graph.channel) Digraph.edge) -> Hashtbl.replace slot e.id k)
    chans;
  let slots es =
    Array.of_list
      (List.filter_map
         (fun (e : (string, Graph.channel) Digraph.edge) -> Hashtbl.find_opt slot e.id)
         es)
  in
  let names = Array.of_list (Graph.actors g) in
  let index = Hashtbl.create 16 in
  Array.iteri (fun i a -> Hashtbl.replace index a i) names;
  let rates =
    Array.map
      (fun (e : (string, Graph.channel) Digraph.edge) -> Concrete.chan conc e.id)
      chans
  in
  let init = Array.map (fun (r : Concrete.chan) -> r.init) rates in
  (* Capacities reach the walker only through Bounded.run. *)
  let cap =
    Array.mapi
      (fun k (e : (string, Graph.channel) Digraph.edge) ->
        match capacities with
        | None -> max_int
        | Some f ->
            let c = f e.id in
            if c < init.(k) then
              invalid_arg
                (Printf.sprintf
                   "Bounded.run: capacity %d of e%d below its %d initial tokens"
                   c e.id init.(k));
            c)
      chans
  in
  {
    conc;
    names;
    index;
    phases = Array.map (Graph.phases g) names;
    ins = Array.map (fun a -> slots (Graph.in_channels g a)) names;
    outs = Array.map (fun a -> slots (Graph.out_channels g a)) names;
    ids = Array.map (fun (e : (string, Graph.channel) Digraph.edge) -> e.id) chans;
    init;
    cons = Array.map (fun (r : Concrete.chan) -> r.cons) rates;
    prod = Array.map (fun (r : Concrete.chan) -> r.prod) rates;
    cap;
    tokens = Array.copy init;
    peak = Array.copy init;
    count = Array.make (Array.length names) 0;
  }

let actor w a = Hashtbl.find w.index a
let phase w i = w.count.(i) mod w.phases.(i)

let inputs_ready w i ph =
  Array.for_all (fun c -> w.tokens.(c) >= w.cons.(c).(ph)) w.ins.(i)

let full w ph c = w.tokens.(c) + w.prod.(c).(ph) > w.cap.(c)

let enabled w i =
  let ph = phase w i in
  inputs_ready w i ph && not (Array.exists (full w ph) w.outs.(i))

let fire w i =
  let ph = phase w i in
  Array.iter (fun c -> w.tokens.(c) <- w.tokens.(c) - w.cons.(c).(ph)) w.ins.(i);
  Array.iter
    (fun c ->
      let t = w.tokens.(c) + w.prod.(c).(ph) in
      w.tokens.(c) <- t;
      if t > w.peak.(c) then w.peak.(c) <- t)
    w.outs.(i);
  let index = w.count.(i) in
  w.count.(i) <- index + 1;
  { actor = w.names.(i); phase = ph; index }

(* Net tokens one firing adds to the active channels (for Min_buffer). *)
let net w i =
  let ph = phase w i in
  Array.fold_left (fun acc c -> acc + w.prod.(c).(ph)) 0 w.outs.(i)
  - Array.fold_left (fun acc c -> acc + w.cons.(c).(ph)) 0 w.ins.(i)

let run ?(policy = Eager) ?(iterations = 1) ?targets w =
  let target =
    Array.map
      (fun a ->
        iterations
        *
        match targets with
        | None -> Concrete.q w.conc a
        | Some l -> Option.value (List.assoc_opt a l) ~default:0)
      w.names
  in
  let n = Array.length w.names in
  let ready i = w.count.(i) < target.(i) && enabled w i in
  let rec first i = if i = n then -1 else if ready i then i else first (i + 1) in
  (* The first ready actor, unless a later one is strictly better. *)
  let best better =
    let b = ref (-1) in
    for i = 0 to n - 1 do
      if ready i && (!b < 0 || better i !b) then b := i
    done;
    !b
  in
  let remaining i = target.(i) - w.count.(i) in
  let choose last =
    match policy with
    | Eager -> first 0
    (* The late schedules of the paper's ref. [8]: (a3)^2 (a1)^3 (a2)^2
       for Fig. 1, B C C B for Fig. 4(b). *)
    | Late_first when last >= 0 && ready last -> last
    | Late_first -> best (fun i b -> remaining i > remaining b)
    | Min_buffer -> best (fun i b -> net w i < net w b)
  in
  let rec go fired left last =
    if left <= 0 then fired
    else
      match choose last with
      | -1 -> fired
      | i -> go (fire w i :: fired) (left - 1) i
  in
  let fired = List.rev (go [] (Array.fold_left ( + ) 0 target) (-1)) in
  (fired, List.filteri (fun i _ -> w.count.(i) < target.(i)) (Array.to_list w.names))

let max_occupancy w = Array.to_list (Array.mapi (fun c id -> (id, w.peak.(c))) w.ids)
let returned_to_initial w = w.tokens = w.init

let full_channels w actors =
  List.sort_uniq compare
    (List.concat_map
       (fun a ->
         let i = actor w a in
         let ph = phase w i in
         if not (inputs_ready w i ph) then []
         else
           List.filter_map
             (fun c -> if full w ph c then Some w.ids.(c) else None)
             (Array.to_list w.outs.(i)))
       actors)
