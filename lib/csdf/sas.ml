type t = (string * int) list

(* Replay bursts from the initial state; false on underflow. *)
let replay conc bursts =
  let w = Walk.create conc in
  List.for_all
    (fun (a, n) ->
      let i = Walk.actor w a in
      let rec go k =
        k >= n || (Walk.enabled w i && (ignore (Walk.fire w i); go (k + 1)))
      in
      go 0)
    bursts

let is_valid conc bursts =
  (* every actor exactly once, with its full repetition count *)
  let actors = Graph.actors (Concrete.graph conc) in
  let names = List.map fst bursts in
  List.sort compare names = List.sort compare actors
  && List.for_all (fun (a, n) -> n = Concrete.q conc a) bursts
  && replay conc bursts

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
        if replay conc bursts then
          search (a :: done_) ((a, Concrete.q conc a) :: acc)
        else None
      in
      List.fold_left
        (fun found a -> match found with Some _ -> found | None -> try_actor a)
        None candidates
  in
  search [] []

let pp ppf t = Schedule.pp_compressed ppf t
