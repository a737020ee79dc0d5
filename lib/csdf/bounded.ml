module Digraph = Tpdf_graph.Digraph

type outcome =
  | Fits of { max_occupancy : (int * int) list }
  | Blocked of { full_channels : int list; stuck : string list }

let lower_bound conc id =
  let ch = Concrete.chan conc id in
  let amax = Array.fold_left max 0 in
  max ch.Concrete.init (max (amax ch.Concrete.prod) (amax ch.Concrete.cons))

let run conc ~capacities =
  let w = Walk.create ~capacities conc in
  match Walk.run w with
  | _, [] -> Fits { max_occupancy = Walk.max_occupancy w }
  | _, stuck -> Blocked { full_channels = Walk.full_channels w stuck; stuck }

type report = {
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
