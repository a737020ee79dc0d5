module Tpdf = Tpdf_core

let controlled graph =
  List.filter
    (fun a -> Tpdf.Graph.control_port graph a <> None)
    (Tpdf.Graph.actors graph)

let default_scenario graph =
  List.filter_map
    (fun k ->
      match List.rev (Tpdf.Graph.modes graph k) with
      | last :: _ -> Some (k, last.Tpdf.Mode.name)
      | [] -> None)
    (controlled graph)

let degraded_scenario graph =
  List.filter_map
    (fun k ->
      match Tpdf.Graph.modes graph k with
      | first :: _ :: _ -> Some (k, first.Tpdf.Mode.name)
      | _ -> None)
    (controlled graph)

let default_fallbacks graph =
  match degraded_scenario graph with
  | [] -> []
  | pins ->
      (* Watch the controlled kernels themselves and every actor the
         degraded scenario suppresses — the latter are exactly the
         ambitious-branch actors (QAM in the OFDM demodulator) whose
         deadline misses should trigger the fallback. *)
      let watches =
        List.map fst pins
        @ Tpdf_sim.Reconfigure.starved_actors graph pins
      in
      List.map (fun watch -> { Policy.watch; pins }) watches

let with_defaults graph policy scenario =
  ( (match policy with
    | Some p -> p
    | None -> { Policy.default with fallbacks = default_fallbacks graph }),
    match scenario with Some s -> s | None -> default_scenario graph )

let run ~graph ~seed ~specs ?backend ?policy ?scenario ?iterations ?obs
    ?behaviors ?pool ?kill_at_ms ?checkpoint_every ?on_checkpoint ?resume
    ~valuation () =
  let policy, scenario = with_defaults graph policy scenario in
  Supervisor.run ~graph ~plan:(Plan.make ~seed specs) ?backend ~policy ?obs
    ?behaviors ~scenario ?iterations ?pool ?kill_at_ms ?checkpoint_every
    ?on_checkpoint ?resume ~encode:string_of_int ~decode:int_of_string
    ~valuation ~default:0 ()

let session ~graph ~seed ~specs ?policy ?resume ~valuation () =
  let policy, scenario = with_defaults graph policy None in
  Supervisor.session ~graph ~plan:(Plan.make ~seed specs) ~policy ~scenario
    ?resume ~encode:string_of_int ~decode:int_of_string ~valuation ~default:0
    ()

let recovered (s : Supervisor.summary) = s.unrecovered = None
