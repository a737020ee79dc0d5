open Tpdf_param
open Tpdf_util
module Csdf = Tpdf_csdf
module Digraph = Tpdf_graph.Digraph
module Obs = Tpdf_obs.Obs
module Metrics = Tpdf_obs.Metrics

type cycle_report = {
  members : string list;
  local_counts : (string * int) list;
  local_schedule : (string * int) list option;
}

type report = {
  valuation : Valuation.t;
  cycles : cycle_report list;
  live : bool;
  stuck : string list;
}

let default_samples g =
  match Graph.parameters g with
  | [] -> [ Valuation.empty ]
  | params ->
      List.map
        (fun v -> Valuation.of_list (List.map (fun p -> (p, v)) params))
        [ 1; 2; 3; 7 ]

let internal_channels skel members =
  let mem a = List.mem a members in
  List.filter_map
    (fun (e : (string, Csdf.Graph.channel) Digraph.edge) ->
      if mem e.src && mem e.dst then Some e.id else None)
    (Csdf.Graph.channels skel)

let check_cycle conc members =
  let skel = Csdf.Concrete.graph conc in
  let members = List.sort compare members in
  let q_g =
    List.fold_left
      (fun acc a ->
        Intmath.gcd acc (Csdf.Concrete.q conc a / Csdf.Graph.phases skel a))
      0 members
  in
  let local_counts =
    List.map (fun a -> (a, Csdf.Concrete.q conc a / q_g)) members
  in
  let internal = internal_channels skel members in
  let outcome =
    Csdf.Schedule.run ~policy:Csdf.Schedule.Late_first ~targets:local_counts
      ~active_channel:(fun id -> List.mem id internal)
      conc
  in
  let local_schedule =
    match outcome with
    | Csdf.Schedule.Complete t -> Some (Csdf.Schedule.compress t.firings)
    | Csdf.Schedule.Deadlock _ -> None
  in
  { members; local_counts; local_schedule }

let check ?(obs = Obs.disabled) g valuation =
  Obs.wall_span obs "liveness.check" (fun () ->
      let skel = Graph.skeleton g in
      let conc = Csdf.Concrete.make skel valuation in
      let cycles =
        List.map (check_cycle conc)
          (Digraph.nontrivial_sccs (Csdf.Graph.digraph skel))
      in
      (* Whole-graph schedule run as the final word: a maximal data-driven
         execution either completes the iteration or exhibits the deadlock. *)
      let live, stuck, fired =
        match Csdf.Schedule.run ~policy:Csdf.Schedule.Late_first conc with
        | Csdf.Schedule.Complete t -> (true, [], List.length t.Csdf.Schedule.firings)
        | Csdf.Schedule.Deadlock { stuck; fired; _ } ->
            (false, stuck, List.length fired)
      in
      if Obs.enabled obs then begin
        let m = Obs.metrics obs in
        Metrics.incr m "liveness.checks";
        Metrics.incr ~by:(List.length cycles) m "liveness.cycles_checked";
        Metrics.incr ~by:fired m "liveness.schedule_firings";
        if not live then Metrics.incr m "liveness.deadlocks"
      end;
      { valuation; cycles; live; stuck })

let is_live g v = (check g v).live

let fresh_name skel base =
  if not (Csdf.Graph.mem_actor skel base) then base
  else
    let rec go i =
      let name = Printf.sprintf "%s_%d" base i in
      if Csdf.Graph.mem_actor skel name then go (i + 1) else name
    in
    go 1

let cluster_cycle g rep members =
  let skel = Graph.skeleton g in
  let q_g = Symbolic.local_scaling rep members in
  let in_cycle a = List.mem a members in
  let local a =
    Frac.div
      (Frac.of_poly (List.assoc a rep.Csdf.Repetition.q))
      (Frac.of_poly q_g)
  in
  let omega = fresh_name skel "Omega" in
  let clustered = Csdf.Graph.create () in
  List.iter
    (fun a ->
      if not (in_cycle a) then
        Csdf.Graph.add_actor clustered a ~phases:(Csdf.Graph.phases skel a))
    (Csdf.Graph.actors skel);
  Csdf.Graph.add_actor clustered omega ~phases:1;
  let exception Failed of string in
  let adjusted what rates a =
    match Symbolic.cumulative_symbolic rates (local a) with
    | Some f -> (
        match Frac.to_poly f with
        | Some p -> [| p |]
        | None ->
            raise
              (Failed
                 (Format.asprintf
                    "clustered %s rate of %s is not polynomial: %a" what a
                    Frac.pp f)))
    | None ->
        raise
          (Failed
             (Format.asprintf
                "cannot express %s rate of %s over %a firings symbolically"
                what a Frac.pp (local a)))
  in
  match
    List.iter
      (fun (e : (string, Csdf.Graph.channel) Digraph.edge) ->
        let src_in = in_cycle e.src and dst_in = in_cycle e.dst in
        if src_in && dst_in then () (* internal: absorbed by Omega *)
        else
          let src, prod =
            if src_in then (omega, adjusted "production" e.label.prod e.src)
            else (e.src, e.label.prod)
          in
          let dst, cons =
            if dst_in then (omega, adjusted "consumption" e.label.cons e.dst)
            else (e.dst, e.label.cons)
          in
          ignore
            (Csdf.Graph.add_channel clustered ~src ~dst ~prod ~cons
               ~init:e.label.init ()))
      (Csdf.Graph.channels skel)
  with
  | () -> Ok clustered
  | exception Failed msg -> Error msg

let pp_report ppf r =
  Format.fprintf ppf "@[<v>liveness under %a: %s@," Valuation.pp r.valuation
    (if r.live then "live" else "DEADLOCK");
  List.iter
    (fun c ->
      Format.fprintf ppf "  cycle {%s}: "
        (String.concat ", " c.members);
      (match c.local_schedule with
      | Some s ->
          Format.fprintf ppf "local schedule %a@," Csdf.Schedule.pp_compressed s
      | None -> Format.fprintf ppf "locally deadlocked@,"))
    r.cycles;
  if not r.live then
    Format.fprintf ppf "  stuck actors: %s@," (String.concat ", " r.stuck);
  Format.fprintf ppf "@]"
