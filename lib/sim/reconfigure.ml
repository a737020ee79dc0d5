module Tpdf = Tpdf_core
module Csdf = Tpdf_csdf
module Digraph = Tpdf_graph.Digraph
module Obs = Tpdf_obs.Obs
module Ev = Tpdf_obs.Event
module Metrics = Tpdf_obs.Metrics

type iteration_stats = {
  valuation : Tpdf_param.Valuation.t;
  stats : Engine.stats;
}

type abort = { abort_index : int; abort_what : string; abort_reason : string }

type report = {
  iterations : iteration_stats list;
  total_end_ms : float;
  max_occupancy : (int * int) list;
  aborts : abort list;
}

let merge_occupancy iterations =
  match iterations with
  | [] -> []
  | first :: rest ->
      List.fold_left
        (fun acc it ->
          List.map
            (fun (ch, occ) ->
              match List.assoc_opt ch it.stats.Engine.max_occupancy with
              | Some occ' -> (ch, max occ occ')
              | None -> (ch, occ))
            acc)
        first.stats.Engine.max_occupancy rest

let reconfigure_instant obs ~offset ~what detail =
  if Obs.enabled obs then begin
    Obs.instant obs ~cat:"reconfig" ~track:"engine" ~name:"reconfigure"
      ~ts_ms:offset
      ~args:[ (what, Ev.Str detail) ]
      ();
    Metrics.incr (Obs.metrics obs) "engine.reconfigurations"
  end

(* ------------------------------------------------------------------ *)
(* Transactional validate-then-commit                                  *)
(* ------------------------------------------------------------------ *)

let txn_instant obs ~offset ~name args =
  if Obs.enabled obs then
    Obs.instant obs ~cat:"txn" ~track:"engine" ~name ~ts_ms:offset
      ~args:(List.map (fun (k, v) -> (k, Ev.Str v)) args)
      ()

(* Static admission check for a new valuation: every parameter bound,
   rate safety, boundedness (Theorem 2) with the valuation as the
   liveness sample — so a bounded verdict has already proved this exact
   valuation live.  Runs without [obs] — a rejected transaction must
   leave no trace beyond its [txn.abort]. *)
let validate_valuation graph valuation =
  let missing =
    List.filter
      (fun p -> not (Tpdf_param.Valuation.mem valuation p))
      (Tpdf.Graph.parameters graph)
  in
  if missing <> [] then
    Error ("unbound parameter(s): " ^ String.concat ", " missing)
  else
    match Tpdf.Analysis.rate_safety graph with
    | Error (v :: _) ->
        Error
          (Printf.sprintf "rate safety violated at %s/channel %d: %s"
             v.Tpdf.Analysis.control v.Tpdf.Analysis.channel
             v.Tpdf.Analysis.reason)
    | Error [] -> Error "rate safety violated"
    | Ok () ->
        let b = Tpdf.Analysis.check_boundedness graph ~samples:[ valuation ] in
        if b.Tpdf.Analysis.bounded then Ok ()
        else
          Error
            ("not bounded under this valuation: "
            ^ String.concat "; " b.Tpdf.Analysis.notes)

type staged =
  | St_committed of Engine.stats
  | St_aborted of string  (** reason; every effect rolled back *)

(* Run one iteration with its instrumentation staged in a capture:
   committed (spliced) only when the run completes back at the iteration
   boundary, discarded wholesale otherwise.  [run ()] must create its
   engine(s) under [obs]-derived collectors so their emissions land in
   the capture. *)
let staged_iteration obs ~run : staged =
  let cap = Obs.capture_begin obs in
  let result =
    match run () with
    | Engine.Completed stats, eng ->
        if Engine.at_boundary eng then St_committed stats
        else St_aborted "completed away from the iteration boundary"
    | Engine.Stalled (stall, _), _ ->
        St_aborted
          (Format.asprintf "stalled at %g ms (%a)" stall.Engine.at_ms
             Engine.pp_stall stall)
    | Engine.Budget_exceeded { steps; at_ms; _ }, _ ->
        St_aborted
          (Printf.sprintf "event budget exhausted (%d steps, at %g ms)" steps
             at_ms)
    | exception Engine.Error e -> St_aborted (Engine.error_message e)
  in
  Obs.capture_end obs cap;
  (match result with
  | St_committed _ -> Obs.splice obs cap
  | St_aborted _ -> (* dropping the buffer rolls everything back *) ());
  result

let record_abort obs ~offset ~index ~what reason =
  txn_instant obs ~offset:!offset ~name:"txn.abort"
    [ ("what", what); ("reason", reason) ];
  if Obs.enabled obs then
    Metrics.incr (Obs.metrics obs) "reconfigure.aborts";
  { abort_index = index; abort_what = what; abort_reason = reason }

(* The loop [run_sequence] and [run_scenarios] share: one iteration per
   item — a valuation or a scenario, named [noun] — on one virtual
   timeline.  [start item obs] builds the item's engine under [obs], the
   collector shifted to the current offset, and returns it with the
   run's firing targets.  The plain and the transactional path run the
   same iteration body — reconfigure instant, [start], the run — and
   differ only in how the run is taken: [Engine.run], or
   [Engine.run_outcome] staged by [staged_iteration]. *)
let sequence obs ~fn ~noun ~describe ~validate ~valuation_of ~start ?backend
    ~iterations ~txn items =
  let offset = ref 0.0 in
  let aborts = ref [] in
  let committed = ref None in
  let iteration item ~run =
    reconfigure_instant obs ~offset:!offset ~what:noun (describe item);
    let eng, targets = start item (Obs.shift obs !offset) in
    run ?targets eng
  in
  let finish item stats =
    offset := !offset +. stats.Engine.end_ms;
    { valuation = valuation_of item; stats }
  in
  let plain item =
    finish item
      (iteration item ~run:(fun ?targets eng ->
           Engine.run ?backend ~iterations ?targets eng))
  in
  let runs =
    List.mapi
      (fun index item ->
        if not txn then plain item
        else begin
          let what = describe item in
          txn_instant obs ~offset:!offset ~name:"txn.begin" [ (noun, what) ];
          let staged =
            match validate item with
            | Error reason -> St_aborted reason
            | Ok () ->
                staged_iteration obs ~run:(fun () ->
                    iteration item ~run:(fun ?targets eng ->
                        (Engine.run_outcome ?backend ~iterations ?targets eng,
                         eng)))
          in
          match staged with
          | St_committed stats ->
              let it = finish item stats in
              txn_instant obs ~offset:!offset ~name:"txn.commit"
                [ (noun, what) ];
              committed := Some item;
              it
          | St_aborted reason -> (
              aborts := record_abort obs ~offset ~index ~what reason :: !aborts;
              match !committed with
              | Some prev -> plain prev
              | None ->
                  failwith
                    (Printf.sprintf
                       "Reconfigure.%s: initial %s rejected (%s) and no \
                        previous %s to roll back to"
                       fn noun reason noun))
        end)
      items
  in
  {
    iterations = runs;
    total_end_ms =
      List.fold_left (fun acc it -> acc +. it.stats.Engine.end_ms) 0.0 runs;
    max_occupancy = merge_occupancy runs;
    aborts = List.rev !aborts;
  }

let run_sequence ~graph ?backend ?(obs = Obs.disabled) ?(behaviors = [])
    ?targets ?(txn = false) ~default valuations =
  if valuations = [] then
    invalid_arg "Reconfigure.run_sequence: empty valuation sequence";
  sequence obs ~fn:"run_sequence" ~noun:"valuation"
    ~describe:(Format.asprintf "%a" Tpdf_param.Valuation.pp)
    ~validate:(validate_valuation graph) ~valuation_of:Fun.id
    ~start:(fun valuation obs ->
      let eng = Engine.create ~graph ~valuation ~behaviors ~obs ~default () in
      (eng, Option.map (fun f -> f valuation) targets))
    ?backend ~iterations:1 ~txn valuations

(* ------------------------------------------------------------------ *)
(* Mode-scenario sweeps                                                *)
(* ------------------------------------------------------------------ *)

type scenario = (string * string) list

let mode_scenarios graph =
  let controlled =
    List.filter
      (fun a -> Tpdf.Graph.control_port graph a <> None)
      (Tpdf.Graph.actors graph)
  in
  if controlled = [] then [ [] ]
  else
    let runs =
      List.fold_left
        (fun acc k -> max acc (List.length (Tpdf.Graph.modes graph k)))
        1 controlled
    in
    List.init runs (fun i ->
        List.map
          (fun k ->
            let modes = Tpdf.Graph.modes graph k in
            let m = List.nth modes (i mod List.length modes) in
            (k, m.Tpdf.Mode.name))
          controlled)

let validate_scenario graph scenario =
  List.iter
    (fun (k, m) ->
      if not (Csdf.Graph.mem_actor (Tpdf.Graph.skeleton graph) k) then
        invalid_arg
          (Printf.sprintf "Reconfigure: scenario names unknown actor %s" k);
      match Tpdf.Graph.find_mode graph k m with
      | (_ : Tpdf.Mode.t) -> ()
      | exception Not_found ->
          invalid_arg
            (Printf.sprintf
               "Reconfigure: scenario pins %s to undeclared mode %S" k m))
    scenario

let pp_scenario scenario =
  if scenario = [] then "default"
  else
    String.concat ","
      (List.map (fun (k, m) -> Printf.sprintf "%s=%s" k m) scenario)

(* Actors that cannot complete any firing under [scenario] because some
   producer upstream keeps a needed input empty.  Fixpoint of "an input
   channel is dead when its source suppresses it (pinned mode) or its
   source is itself starved".  An actor whose pinned mode waits on the
   highest-priority available input only starves when {e all} its data
   inputs are dead; everyone else starves as soon as one needed input is. *)
let starved_actors graph scenario =
  validate_scenario graph scenario;
  let skel = Tpdf.Graph.skeleton graph in
  let pinned a =
    match List.assoc_opt a scenario with
    | Some name -> Some (Tpdf.Graph.find_mode graph a name)
    | None -> None
  in
  let suppressed_by_src (e : (string, Csdf.Graph.channel) Digraph.edge) =
    match pinned e.src with
    | Some m -> not (Tpdf.Mode.output_may_be_active m e.id)
    | None -> false
  in
  let starved = Hashtbl.create 8 in
  let dead (e : (string, Csdf.Graph.channel) Digraph.edge) =
    suppressed_by_src e || Hashtbl.mem starved e.src
  in
  let data_ins a =
    List.filter
      (fun (e : (string, Csdf.Graph.channel) Digraph.edge) ->
        not (Tpdf.Graph.is_control_channel graph e.id))
      (Csdf.Graph.in_channels skel a)
  in
  let ctrl_in a =
    List.filter
      (fun (e : (string, Csdf.Graph.channel) Digraph.edge) ->
        Tpdf.Graph.is_control_channel graph e.id)
      (Csdf.Graph.in_channels skel a)
  in
  let is_starved a =
    Tpdf.Graph.clock_period_ms graph a = None
    && (List.exists dead (ctrl_in a)
       ||
       let ins = data_ins a in
       match pinned a with
       | Some m when m.Tpdf.Mode.inputs = Tpdf.Mode.Highest_priority_available
         ->
           ins <> [] && List.for_all dead ins
       | Some m ->
           List.exists
             (fun (e : (string, Csdf.Graph.channel) Digraph.edge) ->
               dead e && Tpdf.Mode.input_statically_active m e.id)
             ins
       | None -> List.exists dead ins)
  in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun a ->
        if (not (Hashtbl.mem starved a)) && is_starved a then begin
          Hashtbl.replace starved a ();
          changed := true
        end)
      (Tpdf.Graph.actors graph)
  done;
  List.filter (Hashtbl.mem starved) (Tpdf.Graph.actors graph)

let scenario_control_behavior = Behavior.scenario_control

let run_scenarios ~graph ?backend ?(obs = Obs.disabled) ?(behaviors = [])
    ?(iterations = 1) ?(txn = false) ~valuation ~default scenarios =
  if scenarios = [] then
    invalid_arg "Reconfigure.run_scenarios: empty scenario sequence";
  if not txn then List.iter (validate_scenario graph) scenarios;
  sequence obs ~fn:"run_scenarios" ~noun:"scenario" ~describe:pp_scenario
    ~validate:(fun scenario ->
      match validate_scenario graph scenario with
      | () -> Ok ()
      | exception Invalid_argument reason -> Error reason)
    ~valuation_of:(fun _ -> valuation)
    ~start:(fun scenario obs ->
      let ctrl_behaviors =
        List.filter_map
          (fun a ->
            if List.mem_assoc a behaviors then None
            else if Tpdf.Graph.clock_period_ms graph a <> None then None
            else Some (a, scenario_control_behavior graph scenario))
          (Tpdf.Graph.control_actors graph)
      in
      let targets =
        List.map (fun a -> (a, 0)) (starved_actors graph scenario)
      in
      let eng =
        Engine.create ~graph ~valuation
          ~behaviors:(behaviors @ ctrl_behaviors)
          ~obs ~default ()
      in
      (eng, Some targets))
    ?backend ~iterations ~txn scenarios
