(* tpdf_tool — command-line front end for the TPDF analyses.

   Examples:
     tpdf_tool list
     tpdf_tool analyze fig2 -p p=4
     tpdf_tool liveness fig4b -p p=3
     tpdf_tool schedule fig2 -p p=2 --pes 4
     tpdf_tool buffers ofdm-tpdf -p beta=10 -p N=512 -p L=1 -s DUP=qpsk -s TRAN=qpsk
     tpdf_tool export fig2 my_graph.tpdf   # then: tpdf_tool analyze my_graph.tpdf
     tpdf_tool dot fig2 *)

open Cmdliner
open Tpdf_core
open Tpdf_param
module Csdf = Tpdf_csdf
module Sched = Tpdf_sched
module Platform = Tpdf_platform.Platform
module Apps = Tpdf_apps
module Obs = Tpdf_obs.Obs
module Sim = Tpdf_sim

let graphs : (string * (string * (unit -> Graph.t))) list =
  [
    ("fig1", ("CSDF example of Fig. 1", fun () -> Graph.of_csdf (Csdf.Examples.fig1 ())));
    ("fig2", ("TPDF running example of Fig. 2 (parameter p)", fun () -> (Examples.fig2 ()).Examples.graph));
    ("fig3", ("Select-duplicate example of Fig. 3", Examples.fig3));
    ("fig4a", ("live cycle of Fig. 4(a) (parameter p)", Examples.fig4a));
    ("fig4b", ("late-schedule cycle of Fig. 4(b) (parameter p)", Examples.fig4b));
    ("unsafe", ("rate-safety violation example", Examples.unsafe_control));
    ("spdf", ("SPDF-style two-parameter pipeline (p, q)", Examples.spdf_sample_rate));
    ("edge", ("edge-detection application of Fig. 6", fun () -> fst (Apps.Edge_app.graph ())));
    ("ofdm-tpdf", ("OFDM demodulator of Fig. 7 (beta, N, L)", fun () -> fst (Apps.Ofdm_app.tpdf_graph ())));
    ("ofdm-csdf", ("CSDF baseline of the OFDM demodulator", fun () -> fst (Apps.Ofdm_app.csdf_graph ())));
    ("fm", ("FM-radio equalizer (8 bands)", fun () -> Apps.Fm_radio.graph ()));
  ]

let lookup_graph name =
  match List.assoc_opt name graphs with
  | Some (_, mk) -> Ok (mk ())
  | None ->
      if Sys.file_exists name then
        match Serial.load name with
        | Ok g -> Ok g
        | Error msg -> (
            (* Serial diagnoses as "line N: reason"; rehome that on the
               file so the shell sees a clickable file:line: message. *)
            match Scanf.sscanf_opt msg "line %d" (fun n -> n) with
            | Some n -> (
                match String.index_opt msg ':' with
                | Some i ->
                    let rest =
                      String.trim
                        (String.sub msg (i + 1) (String.length msg - i - 1))
                    in
                    Error (Printf.sprintf "%s:%d: %s" name n rest)
                | None -> Error (Printf.sprintf "%s:%d: %s" name n msg))
            | None -> Error (Printf.sprintf "%s: %s" name msg))
      else
        Error
          (Printf.sprintf "unknown graph %S; try a .tpdf file or one of: %s"
             name
             (String.concat ", " (List.map fst graphs)))

let graph_arg =
  let doc = "Built-in graph name (see the $(b,list) command)." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"GRAPH" ~doc)

let param_arg =
  let parse s =
    match String.split_on_char '=' s with
    | [ k; v ] -> (
        match int_of_string_opt v with
        | Some n when n > 0 -> Ok (k, n)
        | _ -> Error (`Msg "parameter values are positive integers"))
    | _ -> Error (`Msg "expected name=value")
  in
  let print ppf (k, v) = Format.fprintf ppf "%s=%d" k v in
  let kv_conv = Arg.conv (parse, print) in
  let doc = "Bind integer parameter $(docv) (repeatable)." in
  Arg.(value & opt_all kv_conv [] & info [ "p"; "param" ] ~docv:"NAME=VALUE" ~doc)

let scenario_arg =
  let parse s =
    match String.split_on_char '=' s with
    | [ k; m ] -> Ok (k, m)
    | _ -> Error (`Msg "expected kernel=mode")
  in
  let print ppf (k, m) = Format.fprintf ppf "%s=%s" k m in
  let km_conv = Arg.conv (parse, print) in
  let doc = "Pin kernel $(docv) to a mode for the buffer analysis (repeatable)." in
  Arg.(value & opt_all km_conv [] & info [ "s"; "scenario" ] ~docv:"KERNEL=MODE" ~doc)

let pes_arg =
  let doc = "Number of processing elements." in
  Arg.(value & opt int 4 & info [ "pes" ] ~docv:"N" ~doc)

let iterations_arg =
  let doc = "Number of graph iterations." in
  Arg.(value & opt int 1 & info [ "iterations"; "i" ] ~docv:"N" ~doc)

let backend_arg =
  let doc =
    "Execute with the compiled static-schedule backend instead of the \
     event interpreter.  Output is byte-identical; the engine falls back \
     to the interpreter transparently when the backend cannot engage \
     (clocked actors, non-uniform firing durations)."
  in
  Term.(
    app
      (const (fun c -> if c then `Compiled else `Event))
      Arg.(value & flag & info [ "compiled" ] ~doc))

let valuation_of params =
  try Ok (Valuation.of_list params) with Invalid_argument m -> Error m

let or_die = function
  | Ok v -> v
  | Error msg ->
      prerr_endline ("tpdf_tool: " ^ msg);
      exit 1

let need_valuation g params =
  let v = or_die (valuation_of params) in
  let missing =
    List.filter (fun p -> not (Valuation.mem v p)) (Graph.parameters g)
  in
  if missing <> [] then
    or_die
      (Error
         (Printf.sprintf "missing parameter(s): %s (bind with -p name=value)"
            (String.concat ", " missing)))
  else v

(* ------------------------------------------------------------------ *)
(* Commands                                                            *)
(* ------------------------------------------------------------------ *)

let cmd_list () =
  List.iter
    (fun (name, (doc, _)) -> Printf.printf "%-10s %s\n" name doc)
    graphs

let cmd_analyze name params =
  let g = or_die (lookup_graph name) in
  Format.printf "%a@." Graph.pp g;
  (match Graph.validate g with
  | Ok () -> Format.printf "structure: ok@."
  | Error msgs ->
      List.iter (fun m -> Format.printf "structure: %s@." m) msgs);
  (match Analysis.repetition g with
  | rep ->
      Format.printf "%a@." Csdf.Repetition.pp rep;
      (match params with
      | [] -> ()
      | _ ->
          let v = or_die (valuation_of params) in
          Format.printf "under %a: %s@." Valuation.pp v
            (String.concat ", "
               (List.map
                  (fun (a, n) -> Printf.sprintf "%s:%d" a n)
                  (Csdf.Repetition.q_int rep v))));
      List.iter
        (fun a -> Format.printf "%a@." Analysis.pp_area a)
        (Analysis.areas g);
      (match Analysis.rate_safety g with
      | Ok () -> Format.printf "rate safety: ok@."
      | Error vs ->
          List.iter
            (fun (viol : Analysis.violation) ->
              Format.printf "rate safety: [%s, e%d] %s@." viol.Analysis.control
                viol.Analysis.channel viol.Analysis.reason)
            vs);
      (* Liveness is judged on the given valuation; without one, on the
         default samples, which the output names. *)
      let samples =
        match params with
        | [] ->
            let samples = Liveness.default_samples g in
            Format.printf "liveness samples: %s@."
              (String.concat " "
                 (List.map (Format.asprintf "%a" Valuation.pp) samples));
            samples
        | _ -> [ need_valuation g params ]
      in
      let b = Analysis.check_boundedness g ~samples in
      Format.printf
        "boundedness: consistent=%b rate_safe=%b live=%b => bounded=%b@."
        b.Analysis.consistent b.Analysis.rate_safe b.Analysis.live
        b.Analysis.bounded
  | exception Csdf.Repetition.Inconsistent msg ->
      Format.printf "INCONSISTENT: %s@." msg
  | exception Csdf.Repetition.Disconnected ->
      Format.printf "DISCONNECTED graph@.")

let cmd_liveness name params =
  let g = or_die (lookup_graph name) in
  let samples =
    match params with
    | [] -> Liveness.default_samples g
    | _ -> [ need_valuation g params ]
  in
  List.iter
    (fun v -> Format.printf "%a@." Liveness.pp_report (Liveness.check g v))
    samples

let cmd_schedule name params pes =
  let g = or_die (lookup_graph name) in
  let v = need_valuation g params in
  let conc = Csdf.Concrete.make (Graph.skeleton g) v in
  let period = Sched.Canonical_period.build conc in
  Format.printf "canonical period: %d firings, %d dependencies@."
    (Sched.Canonical_period.node_count period)
    (List.length (Sched.Canonical_period.deps period));
  let platform = Platform.uniform pes in
  let s = Sched.List_scheduler.run ~graph:g period platform in
  print_string (Sched.Gantt.render platform s)

let cmd_buffers name params scenario minimize =
  let g = or_die (lookup_graph name) in
  let v = need_valuation g params in
  (match Buffers.analyze g v ~scenario with
  | report -> Format.printf "%a@." Csdf.Buffers.pp report
  | exception Invalid_argument m -> or_die (Error m)
  | exception Failure m -> or_die (Error m));
  if minimize then begin
    let conc = Csdf.Concrete.make (Graph.skeleton g) v in
    match Csdf.Bounded.minimize conc with
    | r ->
        Format.printf "back-pressure minimum (all channels active):@.";
        List.iter
          (fun (id, cap) -> Format.printf "  e%d: %d@." id cap)
          r.Csdf.Bounded.capacities;
        Format.printf "  total: %d (%d relaxation(s))@." r.Csdf.Bounded.total
          r.Csdf.Bounded.relaxations
    | exception Failure m -> or_die (Error m)
  end

let cmd_simulate name params iterations trace backend =
  let g = or_die (lookup_graph name) in
  let v = need_valuation g params in
  (* The trace is the obs stream: a full collector only when asked. *)
  let obs = if trace then Obs.create () else Obs.disabled in
  let eng = Tpdf_sim.Engine.create ~graph:g ~valuation:v ~obs ~default:0 () in
  (* The default control behaviours pin each kernel to its first mode;
     actors that scenario starves are not waited for. *)
  let targets =
    List.map
      (fun a -> (a, 0))
      (Sim.Reconfigure.starved_actors g (List.hd (Sim.Reconfigure.mode_scenarios g)))
  in
  match Tpdf_sim.Engine.run ~backend ~iterations ~targets eng with
  | stats ->
      if trace then
        print_string (Tpdf_sim.Trace.gantt_of_events (Obs.events obs));
      Format.printf "completed at %.3f ms@." stats.Tpdf_sim.Engine.end_ms;
      List.iter
        (fun (a, n) -> Format.printf "  %-12s fired %4d time(s)@." a n)
        stats.Tpdf_sim.Engine.firings;
      List.iter
        (fun (ch, n) ->
          if n > 0 then Format.printf "  e%-3d dropped %d rejected token(s)@." ch n)
        stats.Tpdf_sim.Engine.dropped
  | exception Failure m -> or_die (Error m)

let cmd_throughput name params pes =
  let g = or_die (lookup_graph name) in
  let v = need_valuation g params in
  let conc = Csdf.Concrete.make (Graph.skeleton g) v in
  let mcr = Sched.Mcr.iteration_period_ms (Sched.Mcr.build conc) in
  Format.printf "intrinsic bound (max cycle ratio): %.3f ms/iteration@." mcr;
  let platform = Platform.uniform pes in
  let period = Sched.Throughput.iteration_period_ms ~graph:g conc platform in
  Format.printf "list-scheduled on %d PE(s):          %.3f ms/iteration (%.1f it/s)@."
    pes period (1000.0 /. period);
  match Csdf.Sas.find conc with
  | Some s -> Format.printf "single-appearance schedule: %a@." Csdf.Sas.pp s
  | None -> Format.printf "no single-appearance schedule (interleaving required)@."

(* Run everything — analyses, scheduling and a mode-scenario simulation
   sweep — under one collector. *)
let instrumented_run name params pes iterations backend =
  let g = or_die (lookup_graph name) in
  let valuation = need_valuation g params in
  match Apps.Profile.run ~graph:g ~valuation ~pes ~iterations ~backend () with
  | obs -> obs
  | exception Failure m -> or_die (Error m)

let cmd_profile name params pes iterations openmetrics backend =
  let obs = instrumented_run name params pes iterations backend in
  print_string
    (Tpdf_obs.Report.summary ~metrics:(Obs.metrics obs) (Obs.events obs));
  match openmetrics with
  | None -> ()
  | Some path ->
      Tpdf_util.Atomic_file.write path
        (Tpdf_obs.Openmetrics.render (Obs.metrics obs));
      Printf.printf "wrote %s\n" path

let cmd_trace name params pes iterations format output backend =
  let obs = instrumented_run name params pes iterations backend in
  let events = Obs.events obs in
  let text =
    match format with
    | `Chrome -> Tpdf_obs.Chrome.json_of_events events
    | `Csv -> Tpdf_obs.Report.csv_of_events events
    | `Summary ->
        Tpdf_obs.Report.summary ~metrics:(Obs.metrics obs) events
  in
  match output with
  | None -> print_string text
  | Some path -> (
      match open_out path with
      | oc ->
          output_string oc text;
          close_out oc;
          Printf.printf "wrote %s (%d events)\n" path (Obs.event_count obs)
      | exception Sys_error m -> or_die (Error m))

(* ------------------------------------------------------------------ *)
(* Telemetry v2: production collector, live per-actor table, and       *)
(* trace-derived critical-path analysis (tpdf_obs v2).                 *)
(* ------------------------------------------------------------------ *)

module Ring = Tpdf_obs.Ring
module Critpath = Tpdf_obs.Critpath
module Metrics = Tpdf_obs.Metrics

let write_openmetrics obs = function
  | None -> ()
  | Some path ->
      Tpdf_util.Atomic_file.write path
        (Tpdf_obs.Openmetrics.render (Obs.metrics obs));
      Printf.printf "wrote %s\n" path

(* The production collector: no unbounded event list — a sampled engine
   stream feeds a bounded flight-recorder ring, and metrics aggregate
   everything.  [sample <= 1] keeps every span (full fidelity, still
   bounded memory). *)
let production_obs ~sample ~ring_cap =
  let sampling = { Obs.span_every = max 1 sample; occupancy_every = 0 } in
  let obs = Obs.create ~keep_events:false ~sampling () in
  let ring =
    Ring.attach
      ~config:{ Ring.default_config with capacity = max 16 ring_cap }
      obs
  in
  (obs, ring)

let cmd_top name params iterations refresh_ms sample ring_cap limit
    openmetrics =
  let g = or_die (lookup_graph name) in
  let v = need_valuation g params in
  let skel = Graph.skeleton g in
  let obs, ring = production_obs ~sample ~ring_cap in
  let eng = Sim.Engine.create ~graph:g ~valuation:v ~obs ~default:0 () in
  let in_ids =
    List.map
      (fun a ->
        ( a,
          List.map
            (fun (e : (string, Csdf.Graph.channel) Tpdf_graph.Digraph.edge) ->
              e.Tpdf_graph.Digraph.id)
            (Csdf.Graph.in_channels skel a) ))
      (Graph.actors g)
  in
  let is_tty = Unix.isatty Unix.stdout in
  let frame k (stats : Sim.Engine.stats) =
    let m = Obs.metrics obs in
    let end_ms = stats.Sim.Engine.end_ms in
    if is_tty then print_string "\027[2J\027[H";
    Format.printf
      "tpdf top — %s  iteration %d/%d  t=%.3f ms  events %d seen, ring %d/%d@."
      name k iterations end_ms (Ring.seen ring) (Ring.retained ring)
      (Ring.capacity ring);
    Format.printf "%-14s %8s %7s %9s %5s %8s %9s@." "ACTOR" "FIRINGS" "BUSY%"
      "BUSY ms" "OCC" "RETRIES" "DEGRADES";
    let rows =
      List.map
        (fun (a, n) ->
          let busy =
            Option.value ~default:0.0 (Metrics.gauge m ("engine.busy_ms." ^ a))
          in
          let occ =
            List.fold_left
              (fun acc id ->
                match List.assoc_opt id stats.Sim.Engine.max_occupancy with
                | Some o -> max acc o
                | None -> acc)
              0
              (Option.value ~default:[] (List.assoc_opt a in_ids))
          in
          ( a,
            n,
            busy,
            occ,
            Metrics.counter m ("supervisor.retries." ^ a),
            Metrics.counter m ("supervisor.degrades." ^ a) ))
        stats.Sim.Engine.firings
    in
    let rows =
      List.sort
        (fun (a1, _, b1, _, _, _) (a2, _, b2, _, _, _) ->
          match compare b2 b1 with 0 -> compare a1 a2 | c -> c)
        rows
    in
    List.iteri
      (fun i (a, n, busy, occ, retries, degrades) ->
        if i < limit then
          let pct = if end_ms > 0.0 then 100.0 *. busy /. end_ms else 0.0 in
          Format.printf "%-14s %8d %6.1f%% %9.3f %5d %8d %9d@." a n pct busy
            occ retries degrades)
      rows;
    let hidden = List.length rows - limit in
    if hidden > 0 then Format.printf "  … %d more actor(s)@." hidden
  in
  (try
     for k = 1 to iterations do
       (* Cumulative chunked runs on one engine: iteration k resumes where
          k-1 stopped, so each frame shows live totals. *)
       let stats = Sim.Engine.run ~iterations:k eng in
       frame k stats;
       if refresh_ms > 0 && k < iterations then
         Unix.sleepf (float_of_int refresh_ms /. 1000.0)
     done
   with Failure m -> or_die (Error m));
  write_openmetrics obs openmetrics

(* analyze-trace: execute every mode scenario, measure the settled
   observed iteration period from cumulative-run marginals, and diff it
   against the scheduler-side predictions — the proven MCR lower bound
   (observed below it is an analysis bug: exit 2) and the list-schedule
   steady period (deviation beyond tolerance: exit 1).  Clock-driven
   graphs pace the run by wall of the clock, so only the bound check
   applies there. *)
let cmd_analyze_trace name params tolerance max_iters show_path =
  let g = or_die (lookup_graph name) in
  let v = need_valuation g params in
  let actors = Graph.actors g in
  let conc = Csdf.Concrete.make (Graph.skeleton g) v in
  let clocked =
    List.exists (fun a -> Graph.clock_period_ms g a <> None) actors
  in
  let pes = max 2 (List.length actors) in
  let platform = Platform.uniform pes in
  let scenarios = Sim.Reconfigure.mode_scenarios g in
  let mismatches = ref 0 and bound_bugs = ref 0 in
  List.iter
    (fun scenario ->
      Format.printf "@[<v>scenario %s@,"
        (Sim.Reconfigure.pp_scenario scenario);
      let starved = Sim.Reconfigure.starved_actors g scenario in
      let behaviors =
        List.filter_map
          (fun a ->
            if Graph.clock_period_ms g a <> None then None
            else
              Some (a, Sim.Reconfigure.scenario_control_behavior g scenario))
          (Graph.control_actors g)
      in
      let targets = List.map (fun a -> (a, 0)) starved in
      (* A run's firing limits stop actors from racing into iteration k+1,
         so resuming one engine serializes at every boundary and the
         marginal measures latency.  Instead each window k gets a fresh
         engine whose single run pipelines all k iterations; the marginal
         makespan(k) - makespan(k-1) then settles to the steady iteration
         period, exactly like [Throughput.steady_period_ms]. *)
      let obs = ref Obs.disabled in
      let run_window k =
        let o = Obs.create () in
        let eng =
          Sim.Engine.create ~graph:g ~valuation:v ~behaviors ~obs:o ~default:0
            ()
        in
        let stats = Sim.Engine.run ~iterations:k ~targets eng in
        obs := o;
        stats.Sim.Engine.end_ms
      in
      let eps = 1e-6 in
      let ends = Array.make (max_iters + 1) 0.0 in
      let observed = ref Float.nan in
      let failed = ref None in
      (try
         let k = ref 1 in
         while Float.is_nan !observed && !k <= max_iters do
           ends.(!k) <- run_window !k;
           (if !k >= 3 then
              let m1 = ends.(!k) -. ends.(!k - 1)
              and m2 = ends.(!k - 1) -. ends.(!k - 2)
              and m3 = ends.(!k - 2) -. ends.(!k - 3) in
              if Float.abs (m1 -. m2) <= eps && Float.abs (m2 -. m3) <= eps
              then observed := m1);
           incr k
         done;
         if Float.is_nan !observed then
           observed := ends.(max_iters) -. ends.(max_iters - 1)
       with Failure m -> failed := Some m);
      (match !failed with
      | Some m ->
          incr mismatches;
          Format.printf "  run FAILED: %s@," m
      | None ->
          let obs_p = !observed in
          if starved <> [] then
            Format.printf "  starved (target 0): %s@,"
              (String.concat ", " starved);
          Format.printf "  observed period   %8.3f ms/iteration@," obs_p;
          let mcr_durations (nd : Sched.Mcr.node) =
            if List.mem nd.Sched.Mcr.actor starved then 0.0 else 1.0
          in
          (match
             Sched.Mcr.iteration_period_ms ~durations:mcr_durations
               (Sched.Mcr.build conc)
           with
          | proven ->
              Format.printf "  proven bound      %8.3f ms (max cycle ratio)@,"
                proven;
              if obs_p < proven -. eps then begin
                incr bound_bugs;
                Format.printf
                  "  ERROR: observed beats the proven bound by %.3f ms — \
                   analysis bug@,"
                  (proven -. obs_p)
              end
          | exception Failure _ ->
              Format.printf "  proven bound      (unavailable)@,");
          let sched_durations (nd : Sched.Canonical_period.node) =
            if List.mem nd.Sched.Canonical_period.actor starved then 0.0
            else 1.0
          in
          (if clocked then
             Format.printf "  predicted period  (skipped: clock-driven run)@,"
           else
             match
               Sched.Throughput.steady_period_ms ~durations:sched_durations
                 ~include_actor:(fun a -> not (List.mem a starved))
                 ~graph:g conc platform
             with
             | predicted when predicted > 0.0 ->
                 let dev = Float.abs (obs_p -. predicted) /. predicted in
                 Format.printf
                   "  predicted period  %8.3f ms (list schedule, %d PEs), \
                    deviation %.1f%%@,"
                   predicted pes (100.0 *. dev);
                 if dev *. 100.0 > tolerance then begin
                   incr mismatches;
                   Format.printf "  MISMATCH: beyond tolerance %.1f%%@,"
                     tolerance
                 end
             | _ -> ()
             | exception (Failure _ | Invalid_argument _) ->
                 Format.printf "  predicted period  (unavailable)@,");
          (match Critpath.of_events (Obs.events !obs) with
          | None -> Format.printf "  no firing spans recorded@,"
          | Some r ->
              let total_busy =
                List.fold_left
                  (fun acc (_, b) -> acc +. b)
                  0.0 r.Critpath.busy_ms
              in
              Format.printf
                "  critical path     %8.3f ms over %d of %d span(s)%s@,"
                r.Critpath.cp_ms
                (List.length r.Critpath.critical_path)
                r.Critpath.span_count
                (if total_busy > 0.0 then
                   Printf.sprintf " (%.0f%% of %.3f ms busy)"
                     (100.0 *. r.Critpath.cp_ms /. total_busy)
                     total_busy
                 else "");
              if show_path then Format.printf "%a@," Critpath.pp_path r;
              (match Critpath.suspects r with
              | [] -> ()
              | sus ->
                  Format.printf "  cliff suspects:   %s@,"
                    (String.concat ", "
                       (List.map
                          (fun (a, s) ->
                            Printf.sprintf "%s (%.0f%% busy)" a (100.0 *. s))
                          sus)))));
      Format.printf "@]@.")
    scenarios;
  if !bound_bugs > 0 then exit 2
  else if !mismatches > 0 then exit 1
  else
    Format.printf "all %d scenario(s) consistent with the analyses@."
      (List.length scenarios)

module Fault = Tpdf_fault

(* Duration behaviours for the chaos run: the OFDM graphs get the shared
   per-actor cost model (so 16-QAM really is slower than QPSK and deadline
   pressure is meaningful); other graphs keep the 1 ms default. *)
let chaos_behaviors g v =
  if
    Valuation.mem v "beta" && Valuation.mem v "N"
    && List.for_all
         (fun a -> Csdf.Graph.mem_actor (Graph.skeleton g) a)
         [ "FFT"; "DUP"; "TRAN" ]
  then
    let beta = Valuation.find v "beta" and n = Valuation.find v "N" in
    List.filter_map
      (fun a ->
        if Graph.is_control g a then None
        else
          Some
            ( a,
              Sim.Behavior.fill 0
                ~duration_ms:(fun _ -> Apps.Ofdm_app.model_cost_ms ~beta ~n a)
            ))
      (Graph.actors g)
  else []

(* ------------------------------------------------------------------ *)
(* Checkpointed execution: run / chaos / resume                        *)
(* ------------------------------------------------------------------ *)

module Ckpt = Tpdf_ckpt.Ckpt

let meta_or_die file key =
  match Ckpt.meta file key with
  | Some v -> v
  | None ->
      or_die (Error (Printf.sprintf "checkpoint: missing meta key %S" key))

let int_meta file key =
  match int_of_string_opt (meta_or_die file key) with
  | Some n -> n
  | None ->
      or_die
        (Error (Printf.sprintf "checkpoint: meta %S is not an integer" key))

let float_meta file key =
  match float_of_string_opt (meta_or_die file key) with
  | Some f -> f
  | None ->
      or_die (Error (Printf.sprintf "checkpoint: meta %S is not a number" key))

let split_kv what s =
  if s = "" then []
  else
    List.map
      (fun item ->
        match String.index_opt item '=' with
        | Some i ->
            ( String.sub item 0 i,
              String.sub item (i + 1) (String.length item - i - 1) )
        | None ->
            or_die
              (Error (Printf.sprintf "checkpoint: bad %s entry %S" what item)))
      (String.split_on_char ',' s)

let join_kv kvs = String.concat "," (List.map (fun (k, v) -> k ^ "=" ^ v) kvs)

let open_store = function
  | Some dir -> Some (Ckpt.Store.open_dir dir)
  | None -> None

(* Every checkpointed command shares the flag contract: checkpoints and
   kills need somewhere to write. *)
let check_ckpt_flags ~every ~kill_at ~store =
  (match every with
  | Some n when n < 1 -> or_die (Error "--checkpoint-every must be >= 1")
  | _ -> ());
  (match kill_at with
  | Some t when t < 0.0 -> or_die (Error "--kill-at-ms must be >= 0")
  | _ -> ());
  if (every <> None || kill_at <> None) && store = None then
    or_die (Error "--checkpoint-every and --kill-at-ms need --checkpoint-dir")

(* Everything the chaos command needs to reconstruct an identical
   supervised run in a fresh process; persisted as checkpoint metadata. *)
type chaos_cfg = {
  cc_name : string;
  cc_seed : int;
  cc_faults : string;  (** raw spec string; [""] = none *)
  cc_iterations : int;
  cc_retries : int;
  cc_backoff : float;
  cc_degrade_after : int;
  cc_max_restarts : int;
  cc_deadlines : (string * string) list;
  cc_scenario : (string * string) list;
}

(* Supervisor state travels in the same meta list under a "sup." prefix
   so its keys ("retries", ...) cannot collide with the command args. *)
let sup_prefix = "sup."

let chaos_ckpt cfg g v (ck : Fault.Supervisor.checkpoint) =
  {
    Ckpt.kind = "chaos";
    meta =
      [
        ("graph", cfg.cc_name);
        ("seed", string_of_int cfg.cc_seed);
        ("faults", cfg.cc_faults);
        ("iterations", string_of_int cfg.cc_iterations);
        ("retries", string_of_int cfg.cc_retries);
        ("backoff", Printf.sprintf "%h" cfg.cc_backoff);
        ("degrade_after", string_of_int cfg.cc_degrade_after);
        ("max_restarts", string_of_int cfg.cc_max_restarts);
        ("deadlines", join_kv cfg.cc_deadlines);
        ("scenario", join_kv cfg.cc_scenario);
      ]
      @ List.map
          (fun (k, v) -> (sup_prefix ^ k, v))
          (Fault.Supervisor.checkpoint_meta ck);
    graph_src = Serial.to_string g;
    valuation = Valuation.bindings v;
    snapshot = ck.Fault.Supervisor.ck_engine;
  }

let chaos_seq (ck : Fault.Supervisor.checkpoint) =
  ck.Fault.Supervisor.ck_iterations_run
  + match ck.Fault.Supervisor.ck_engine with None -> 0 | Some _ -> 1

let chaos_cfg_of_meta file =
  {
    cc_name = meta_or_die file "graph";
    cc_seed = int_meta file "seed";
    cc_faults = meta_or_die file "faults";
    cc_iterations = int_meta file "iterations";
    cc_retries = int_meta file "retries";
    cc_backoff = float_meta file "backoff";
    cc_degrade_after = int_meta file "degrade_after";
    cc_max_restarts = int_meta file "max_restarts";
    cc_deadlines = split_kv "deadline" (meta_or_die file "deadlines");
    cc_scenario = split_kv "scenario" (meta_or_die file "scenario");
  }

(* The shared chaos driver: fresh runs and resumes print the same thing,
   so a resumed run's output is byte-identical to the uninterrupted
   golden one.  Exit 3 = killed (checkpoint written), 1 = unrecovered. *)
let run_chaos cfg g v ~store ~every ~kill_at ~resume ~trace_out =
  check_ckpt_flags ~every ~kill_at ~store;
  let specs =
    if cfg.cc_faults = "" then []
    else or_die (Fault.Fault.parse_specs cfg.cc_faults)
  in
  let deadlines_ms =
    List.map
      (fun (a, ms) ->
        match float_of_string_opt ms with
        | Some f -> (a, f)
        | None ->
            or_die (Error (Printf.sprintf "bad deadline %S for %s" ms a)))
      cfg.cc_deadlines
  in
  let policy =
    match
      Fault.Policy.make ~max_retries:cfg.cc_retries
        ~retry_backoff_ms:cfg.cc_backoff ~deadlines_ms
        ~degrade_after:cfg.cc_degrade_after
        ~max_restarts:cfg.cc_max_restarts
        ~fallbacks:(Fault.Chaos.default_fallbacks g) ()
    with
    | p -> p
    | exception Invalid_argument m -> or_die (Error m)
  in
  let scenario = match cfg.cc_scenario with [] -> None | s -> Some s in
  let save st ck =
    ignore (Ckpt.Store.save st ~seq:(chaos_seq ck) (chaos_ckpt cfg g v ck))
  in
  let on_checkpoint =
    match (store, every) with
    | Some st, Some _ -> Some (fun ck -> save st ck)
    | _ -> None
  in
  let obs = Obs.create () in
  let summary =
    match
      Fault.Chaos.run ~graph:g ~seed:cfg.cc_seed ~specs ~policy ?scenario
        ~iterations:cfg.cc_iterations ~obs ~valuation:v
        ~behaviors:(chaos_behaviors g v) ?kill_at_ms:kill_at
        ?checkpoint_every:every ?on_checkpoint ?resume ()
    with
    | s -> s
    | exception Invalid_argument m -> or_die (Error m)
  in
  Format.printf "seed %d, faults %s@." cfg.cc_seed
    (if specs = [] then "none" else Fault.Fault.specs_to_string specs);
  Format.printf "%a@." Fault.Supervisor.pp_summary summary;
  (match trace_out with
  | None -> ()
  | Some path -> (
      match open_out path with
      | oc ->
          output_string oc (Tpdf_obs.Chrome.json_of_events (Obs.events obs));
          close_out oc;
          Printf.printf "wrote %s (%d events)\n" path (Obs.event_count obs)
      | exception Sys_error m -> or_die (Error m)));
  match summary.Fault.Supervisor.killed with
  | Some ck ->
      let st = Option.get store in
      save st ck;
      Format.printf "resume with: tpdf_tool resume %s@." (Ckpt.Store.dir st);
      exit 3
  | None -> if not (Fault.Chaos.recovered summary) then exit 1

let cmd_chaos name params seed faults iterations scenario deadlines retries
    backoff degrade_after max_restarts trace_out every dir kill_at =
  let g = or_die (lookup_graph name) in
  let v = need_valuation g params in
  let cfg =
    {
      cc_name = name;
      cc_seed = seed;
      cc_faults = (match faults with None -> "" | Some s -> s);
      cc_iterations = iterations;
      cc_retries = retries;
      cc_backoff = backoff;
      cc_degrade_after = degrade_after;
      cc_max_restarts = max_restarts;
      cc_deadlines = deadlines;
      cc_scenario = scenario;
    }
  in
  run_chaos cfg g v ~store:(open_store dir) ~every ~kill_at ~resume:None
    ~trace_out

let print_run_stats iterations (stats : Sim.Engine.stats) =
  Format.printf "completed %d iteration(s) at %.3f ms@." iterations
    stats.Sim.Engine.end_ms;
  List.iter
    (fun (a, n) -> Format.printf "  %-12s fired %4d time(s)@." a n)
    stats.Sim.Engine.firings;
  List.iter
    (fun (ch, n) ->
      if n > 0 then
        Format.printf "  e%-3d dropped %d rejected token(s)@." ch n)
    stats.Sim.Engine.dropped

(* Drive one engine through the remaining iterations in single-iteration
   chunks: every boundary is then a checkpoint opportunity, and because
   the engine's limits are cumulative over its lifetime (snapshots carry
   the counts), a restored engine picks up exactly where the killed one
   stopped and the final chunk's stats are the whole run's stats. *)
let drive_run ~name ~graph ~valuation ~store ~every ~kill_at ~iterations ~from
    ~backend eng =
  let make_ck ~done_ =
    {
      Ckpt.kind = "run";
      meta =
        [
          ("graph", name);
          ("iterations", string_of_int iterations);
          ("done", string_of_int done_);
        ];
      graph_src = Serial.to_string graph;
      valuation = Valuation.bindings valuation;
      snapshot = Some (Sim.Engine.snapshot ~encode:string_of_int eng);
    }
  in
  let write_ck st ~seq ~done_ =
    ignore (Ckpt.Store.save st ~seq (make_ck ~done_))
  in
  let rec go i =
    match
      Sim.Engine.run_outcome ~backend ~iterations:(i + 1) ?until_ms:kill_at eng
    with
    | Sim.Engine.Completed stats ->
        if i + 1 < iterations then begin
          (match (store, every) with
          | Some st, Some n when (i + 1) mod n = 0 ->
              write_ck st ~seq:(i + 1) ~done_:(i + 1)
          | _ -> ());
          go (i + 1)
        end
        else print_run_stats iterations stats
    | Sim.Engine.Stalled _
      when kill_at <> None && Sim.Engine.pending_events eng > 0 ->
        (* The cap cut the run short mid-iteration: simulate the crash by
           checkpointing the live engine and exiting 3 (resumable). *)
        let st = Option.get store in
        write_ck st ~seq:(i + 1) ~done_:i;
        Format.printf
          "killed at %.3f ms in iteration %d/%d; resume with: tpdf_tool \
           resume %s@."
          (Option.get kill_at) (i + 1) iterations (Ckpt.Store.dir st);
        exit 3
    | Sim.Engine.Stalled (s, _) ->
        or_die (Error (Format.asprintf "stalled: %a" Sim.Engine.pp_stall s))
    | Sim.Engine.Budget_exceeded _ -> or_die (Error "event budget exceeded")
    | exception Sim.Engine.Error e ->
        or_die (Error (Sim.Engine.error_message e))
  in
  if from >= iterations then
    or_die
      (Error
         (Printf.sprintf "checkpoint already covers all %d iteration(s)"
            iterations))
  else go from

let cmd_run name params iterations every dir kill_at backend =
  let g = or_die (lookup_graph name) in
  let v = need_valuation g params in
  if iterations < 1 then or_die (Error "iterations must be >= 1");
  let store = open_store dir in
  check_ckpt_flags ~every ~kill_at ~store;
  let eng = Sim.Engine.create ~graph:g ~valuation:v ~default:0 () in
  drive_run ~name ~graph:g ~valuation:v ~store ~every ~kill_at ~iterations
    ~from:0 ~backend eng

let resume_run file ~store ~every ~kill_at ~backend =
  let g = or_die (Serial.of_string file.Ckpt.graph_src) in
  let v = or_die (valuation_of file.Ckpt.valuation) in
  let name = meta_or_die file "graph" in
  let iterations = int_meta file "iterations" in
  let done_ = int_meta file "done" in
  let snap =
    match file.Ckpt.snapshot with
    | Some s -> s
    | None -> or_die (Error "checkpoint: run checkpoint carries no snapshot")
  in
  let eng =
    match
      Sim.Engine.restore
        (Sim.Engine.compile ~graph:g ~valuation:v)
        ~default:0 ~decode:int_of_string snap
    with
    | eng -> eng
    | exception Invalid_argument m -> or_die (Error ("checkpoint: " ^ m))
  in
  drive_run ~name ~graph:g ~valuation:v ~store ~every ~kill_at ~iterations
    ~from:done_ ~backend eng

let resume_chaos file ~store ~every ~kill_at =
  let g = or_die (Serial.of_string file.Ckpt.graph_src) in
  let v = or_die (valuation_of file.Ckpt.valuation) in
  let cfg = chaos_cfg_of_meta file in
  let sup_meta =
    List.filter_map
      (fun (k, v) ->
        let pl = String.length sup_prefix in
        if String.length k > pl && String.sub k 0 pl = sup_prefix then
          Some (String.sub k pl (String.length k - pl), v)
        else None)
      file.Ckpt.meta
  in
  let ck =
    or_die
      (Fault.Supervisor.checkpoint_of_meta ?snapshot:file.Ckpt.snapshot
         sup_meta)
  in
  run_chaos cfg g v ~store ~every ~kill_at ~resume:(Some ck) ~trace_out:None

let cmd_resume path every dir kill_at backend =
  if not (Sys.file_exists path) then
    or_die (Error (Printf.sprintf "%s: no such file or directory" path));
  let file =
    if Sys.is_directory path then
      match Ckpt.Store.latest (Ckpt.Store.open_dir path) with
      | Ok (Some (_, p, file)) ->
          (* stderr, so stdout stays comparable to the uninterrupted run *)
          Printf.eprintf "resuming from %s\n%!" p;
          file
      | Ok None ->
          or_die (Error (Printf.sprintf "%s: no valid checkpoint found" path))
      | Error e -> or_die (Error e)
    else
      match Ckpt.read path with
      | Ok file -> file
      | Error m -> or_die (Error (Printf.sprintf "%s: %s" path m))
  in
  let store = open_store dir in
  check_ckpt_flags ~every ~kill_at ~store;
  match file.Ckpt.kind with
  | "run" -> resume_run file ~store ~every ~kill_at ~backend
  | "chaos" -> resume_chaos file ~store ~every ~kill_at
  | k -> or_die (Error (Printf.sprintf "checkpoint: unknown kind %S" k))

let cmd_dot name =
  let g = or_die (lookup_graph name) in
  Format.printf "%a@." Graph.pp_dot g

let cmd_export name path =
  let g = or_die (lookup_graph name) in
  match path with
  | None -> print_string (Serial.to_string g)
  | Some p ->
      Serial.save p g;
      Printf.printf "wrote %s\n" p

(* ------------------------------------------------------------------ *)
(* Cmdliner wiring                                                     *)
(* ------------------------------------------------------------------ *)

let list_cmd =
  Cmd.v (Cmd.info "list" ~doc:"List the built-in graphs")
    Term.(const cmd_list $ const ())

let analyze_cmd =
  Cmd.v
    (Cmd.info "analyze" ~doc:"Run the static analyses on a graph")
    Term.(const cmd_analyze $ graph_arg $ param_arg)

let liveness_cmd =
  Cmd.v
    (Cmd.info "liveness" ~doc:"Check liveness (cycles, late schedules)")
    Term.(const cmd_liveness $ graph_arg $ param_arg)

let schedule_cmd =
  Cmd.v
    (Cmd.info "schedule" ~doc:"Expand the canonical period and list-schedule it")
    Term.(const cmd_schedule $ graph_arg $ param_arg $ pes_arg)

let buffers_cmd =
  let minimize_arg =
    let doc = "Also search for minimal back-pressure capacities." in
    Arg.(value & flag & info [ "minimize" ] ~doc)
  in
  Cmd.v
    (Cmd.info "buffers" ~doc:"Minimum buffer sizes under a mode scenario")
    Term.(const cmd_buffers $ graph_arg $ param_arg $ scenario_arg $ minimize_arg)

let simulate_cmd =
  let trace_arg =
    let doc = "Print a Gantt chart of the execution trace." in
    Arg.(value & flag & info [ "trace" ] ~doc)
  in
  Cmd.v
    (Cmd.info "simulate" ~doc:"Execute the graph with default behaviours")
    Term.(
      const cmd_simulate $ graph_arg $ param_arg $ iterations_arg $ trace_arg
      $ backend_arg)

let throughput_cmd =
  Cmd.v
    (Cmd.info "throughput"
       ~doc:"Iteration-period bounds: max cycle ratio vs list scheduling")
    Term.(const cmd_throughput $ graph_arg $ param_arg $ pes_arg)

let openmetrics_arg =
  let doc =
    "Also write the metrics registry to $(docv) in OpenMetrics text format \
     (atomic rename, Prometheus-scrapable)."
  in
  Arg.(
    value & opt (some string) None & info [ "openmetrics" ] ~docv:"FILE" ~doc)

let profile_cmd =
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Run analyses, scheduling and a mode-scenario simulation sweep \
          under the observability collector and print the metrics summary")
    Term.(
      const cmd_profile $ graph_arg $ param_arg $ pes_arg $ iterations_arg
      $ openmetrics_arg $ backend_arg)

let top_cmd =
  let iters_arg =
    let doc = "Total iterations to execute (one table frame per iteration)." in
    Arg.(value & opt int 8 & info [ "i"; "iterations" ] ~docv:"N" ~doc)
  in
  let refresh_arg =
    let doc = "Wall-clock delay between frames, in ms (0 = no delay)." in
    Arg.(value & opt int 0 & info [ "refresh-ms" ] ~docv:"MS" ~doc)
  in
  let sample_arg =
    let doc =
      "Keep one in $(docv) firing spans in the flight recorder (1 = all; \
       counters and instants are never sampled)."
    in
    Arg.(
      value
      & opt int Obs.default_sampling.Obs.span_every
      & info [ "sample" ] ~docv:"K" ~doc)
  in
  let ring_arg =
    let doc = "Flight-recorder capacity, in events." in
    Arg.(value & opt int 8192 & info [ "ring" ] ~docv:"N" ~doc)
  in
  let limit_arg =
    let doc = "Show at most $(docv) actors (busiest first)." in
    Arg.(value & opt int 20 & info [ "limit" ] ~docv:"N" ~doc)
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:
         "Execute the graph under the production telemetry collector \
          (bounded flight-recorder ring, sampled spans) and render a \
          refreshing per-actor table: firings, busy time, queue occupancy, \
          retries and degrades.  $(b,TPDF_METRICS_OUT) additionally \
          exports OpenMetrics snapshots during the run.")
    Term.(
      const cmd_top $ graph_arg $ param_arg $ iters_arg $ refresh_arg
      $ sample_arg $ ring_arg $ limit_arg $ openmetrics_arg)

let analyze_trace_cmd =
  let tolerance_arg =
    let doc =
      "Accepted relative deviation between the observed and the predicted \
       iteration period, in percent."
    in
    Arg.(value & opt float 10.0 & info [ "tolerance" ] ~docv:"PCT" ~doc)
  in
  let iters_arg =
    let doc =
      "Maximum cumulative iterations while waiting for the marginal \
       iteration cost to settle."
    in
    Arg.(value & opt int 16 & info [ "max-iterations" ] ~docv:"N" ~doc)
  in
  let path_arg =
    let doc = "Print every span of the reconstructed critical path." in
    Arg.(value & flag & info [ "show-path" ] ~doc)
  in
  Cmd.v
    (Cmd.info "analyze-trace"
       ~doc:
         "Execute every mode scenario, reconstruct the observed critical \
          path and iteration period from the recorded firing spans, and \
          diff them against the scheduler analyses: exits 2 when the \
          observed period beats the proven MCR bound (an analysis bug) and \
          1 when it deviates from the throughput prediction beyond \
          $(b,--tolerance).")
    Term.(
      const cmd_analyze_trace $ graph_arg $ param_arg $ tolerance_arg
      $ iters_arg $ path_arg)

let trace_cmd =
  let format_arg =
    let doc = "Output format: $(b,chrome) (trace-event JSON for Perfetto / \
               chrome://tracing), $(b,csv) or $(b,summary)." in
    Arg.(
      value
      & opt (enum [ ("chrome", `Chrome); ("csv", `Csv); ("summary", `Summary) ]) `Chrome
      & info [ "format"; "f" ] ~docv:"FORMAT" ~doc)
  in
  let output_arg =
    let doc = "Destination file (stdout when omitted)." in
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE" ~doc)
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Record an instrumented run (analyses + mode-scenario simulation) \
          and export the event stream")
    Term.(
      const cmd_trace $ graph_arg $ param_arg $ pes_arg $ iterations_arg
      $ format_arg $ output_arg $ backend_arg)

let ckpt_every_arg =
  let doc =
    "Write a checkpoint after every $(docv)-th completed iteration \
     (needs $(b,--checkpoint-dir))."
  in
  Arg.(value & opt (some int) None & info [ "checkpoint-every" ] ~docv:"N" ~doc)

let ckpt_dir_arg =
  let doc = "Directory for numbered checkpoint files (created if missing)." in
  Arg.(
    value & opt (some string) None & info [ "checkpoint-dir" ] ~docv:"DIR" ~doc)

let kill_at_arg =
  let doc =
    "Simulate a crash at virtual instant $(docv) ms: write a checkpoint \
     (mid-iteration if needed) and exit 3."
  in
  Arg.(value & opt (some float) None & info [ "kill-at-ms" ] ~docv:"MS" ~doc)

let run_cmd =
  Cmd.v
    (Cmd.info "run"
       ~doc:
         "Execute the graph like $(b,simulate), with crash-consistent \
          checkpoints at iteration boundaries and an optional simulated \
          crash; a killed run exits 3 and continues under $(b,resume) with \
          output byte-identical to the uninterrupted run.")
    Term.(
      const cmd_run $ graph_arg $ param_arg $ iterations_arg $ ckpt_every_arg
      $ ckpt_dir_arg $ kill_at_arg $ backend_arg)

let resume_cmd =
  let path_arg =
    let doc =
      "Checkpoint file, or a checkpoint directory (the newest file that \
       still passes its checksum wins)."
    in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"CKPT" ~doc)
  in
  Cmd.v
    (Cmd.info "resume"
       ~doc:
         "Continue a killed $(b,run) or $(b,chaos) execution from a \
          checkpoint.  The completed output matches the uninterrupted run \
          byte for byte; $(b,--kill-at-ms) may kill it again later.")
    Term.(
      const cmd_resume $ path_arg $ ckpt_every_arg $ ckpt_dir_arg $ kill_at_arg
      $ backend_arg)

let chaos_cmd =
  let seed_arg =
    let doc = "PRNG seed for the deterministic fault plan." in
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc)
  in
  let faults_arg =
    let doc =
      "Fault specs, comma-separated $(b,KIND:TARGET:PROB[:ARG]) items with \
       kinds $(b,fail), $(b,overrun), $(b,jitter), $(b,corrupt), \
       $(b,ctrl-loss); $(b,*) targets every actor.  E.g. \
       $(b,overrun:QAM:0.8:8,fail:FFT:0.2)."
    in
    Arg.(value & opt (some string) None & info [ "faults" ] ~docv:"SPEC" ~doc)
  in
  let deadline_arg =
    let parse s =
      match String.split_on_char '=' s with
      | [ a; ms ] -> Ok (a, ms)
      | _ -> Error (`Msg "expected actor=ms")
    in
    let print ppf (a, ms) = Format.fprintf ppf "%s=%s" a ms in
    let doc = "Per-firing deadline for $(docv) in ms (repeatable)." in
    Arg.(
      value
      & opt_all (Arg.conv (parse, print)) []
      & info [ "deadline" ] ~docv:"ACTOR=MS" ~doc)
  in
  let retries_arg =
    let doc = "Retry budget per firing." in
    Arg.(value & opt int 2 & info [ "retries" ] ~docv:"N" ~doc)
  in
  let backoff_arg =
    let doc = "Virtual-time backoff per retry, in ms." in
    Arg.(value & opt float 0.5 & info [ "backoff" ] ~docv:"MS" ~doc)
  in
  let degrade_arg =
    let doc =
      "Consecutive deadline misses or skips before a kernel is degraded to \
       its fallback mode."
    in
    Arg.(value & opt int 3 & info [ "degrade-after" ] ~docv:"K" ~doc)
  in
  let restarts_arg =
    let doc =
      "Failed-iteration restart budget: roll the iteration back, escalate \
       to every fallback mode and retry, up to $(docv) times."
    in
    Arg.(value & opt int 0 & info [ "max-restarts" ] ~docv:"N" ~doc)
  in
  let trace_arg =
    let doc = "Also write the Chrome trace of the run to $(docv)." in
    Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Seeded fault-injection run under the supervisor: bounded retry, \
          skip-and-substitute, deadline watchdog, mode fallback and \
          restart-from-checkpoint.  Exits 1 when the run does not recover, \
          3 when $(b,--kill-at-ms) cut it short (resumable).")
    Term.(
      const cmd_chaos $ graph_arg $ param_arg $ seed_arg $ faults_arg
      $ iterations_arg $ scenario_arg $ deadline_arg $ retries_arg
      $ backoff_arg $ degrade_arg $ restarts_arg $ trace_arg
      $ ckpt_every_arg $ ckpt_dir_arg $ kill_at_arg)

(* ---------- serve / client ---------- *)

module Serve = Tpdf_serve

let json_line fields = Serve.Json.to_string (Serve.Json.Obj fields)

(* Peer dialing for live migration: each dial is one resilient logical
   request through the same retry/backoff client the CLI uses. *)
let mk_dial () =
  let dial_op = ref 0 in
  fun addr line ->
    match Serve.Server.parse_endpoint addr with
    | Error e -> Error e
    | Ok ep ->
        let tr = Serve.Client.socket_transport ep in
        let op = !dial_op in
        Stdlib.incr dial_op;
        (Serve.Client.call Serve.Client.default_policy tr ~op line)
          .Serve.Client.response

let cmd_serve socket state_dir max_tenants max_resident capacity max_queue
    max_advance checkpoint_every request_timeout_ms retry_after_ms
    quarantine_skips default_budget metrics_out rid_cache crash_at netfault
    netfault_seed max_conns max_line_bytes read_deadline_ms conn_bytes conn_ms
    drain =
  let endpoint = or_die (Serve.Server.parse_endpoint socket) in
  if drain then begin
    (* Graceful drain of the daemon already running on SOCKET: persist
       every tenant, refuse new submissions, stop once in-flight
       requests are answered (nginx -s quit style). *)
    let tr = Serve.Client.socket_transport endpoint in
    let line =
      json_line
        [
          ("op", Serve.Json.String "drain"); ("stop", Serve.Json.Bool true);
        ]
    in
    let out = Serve.Client.call Serve.Client.default_policy tr ~op:0 line in
    print_endline (or_die out.Serve.Client.response)
  end
  else begin
    let netfault =
      match netfault with
      | None -> Serve.Netfault.none
      | Some spec ->
          Serve.Netfault.make ~seed:netfault_seed
            (or_die (Serve.Netfault.parse_specs spec))
    in
    let limits =
      {
        Serve.Server.max_conns;
        max_line_bytes;
        read_deadline_ms;
        conn_bytes;
        conn_ms;
      }
    in
    let cfg =
      {
        Serve.Daemon.state_dir;
        max_tenants;
        max_resident;
        capacity;
        max_queue;
        max_advance;
        checkpoint_every;
        request_timeout_ms;
        retry_after_ms;
        quarantine_skips;
        default_budget;
        metrics_out;
        rid_cache;
        crash_at;
      }
    in
    let daemon = or_die (Serve.Daemon.create ~dial:(mk_dial ()) cfg) in
    Printf.eprintf "tpdf_tool: serving on %s\n%!" socket;
    match Serve.Server.serve ~limits ~netfault daemon endpoint with
    | r -> or_die r
    | exception Serve.Daemon.Injected_crash point ->
        (* Make the injected crash a *real* kill -9: no atexit, no
           flushing, no final persist — exactly what the state
           directory must survive. *)
        Printf.eprintf "tpdf_tool: injected crash at %s\n%!" point;
        Unix.kill (Unix.getpid ()) Sys.sigkill
  end

let cmd_client socket request timeout_ms deadline_ms retries backoff_ms
    backoff_max_ms seed rid drain stop migrate migrate_to resolve =
  let endpoint = or_die (Serve.Server.parse_endpoint socket) in
  let policy =
    { Serve.Client.deadline_ms; retries; backoff_ms; backoff_max_ms; seed }
  in
  let send ~op line =
    let line =
      match rid with
      | Some r -> Serve.Client.ensure_rid line ~rid:r
      | None -> line
    in
    let tr = Serve.Client.socket_transport endpoint in
    let out = Serve.Client.call policy tr ~op line in
    print_endline (or_die out.Serve.Client.response)
  in
  match (drain, migrate, resolve, request) with
  | true, _, _, _ ->
      send ~op:0
        (json_line
           [
             ("op", Serve.Json.String "drain"); ("stop", Serve.Json.Bool stop);
           ])
  | _, Some name, _, _ ->
      let to_addr =
        match migrate_to with
        | Some a -> a
        | None -> or_die (Error "--migrate requires --to ADDR")
      in
      send ~op:0
        (json_line
           [
             ("op", Serve.Json.String "migrate");
             ("name", Serve.Json.String name);
             ("to", Serve.Json.String to_addr);
             ("from", Serve.Json.String socket);
           ])
  | _, _, Some name, _ ->
      send ~op:0
        (json_line
           [
             ("op", Serve.Json.String "resolve");
             ("name", Serve.Json.String name);
           ])
  | _, _, _, Some line -> send ~op:0 line
  | _ ->
      or_die
        (Serve.Server.session endpoint ~connect_timeout_ms:timeout_ms stdin
           stdout)

let socket_arg =
  let doc =
    "Daemon endpoint: a Unix-domain socket path, or $(b,HOST:PORT) for TCP."
  in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"SOCKET" ~doc)

let serve_cmd =
  let dc = Serve.Daemon.default_config in
  let state_dir_arg =
    let doc =
      "State directory for crash-consistent tenant checkpoints and the fleet \
       manifest; without it the daemon is memory-only (no restart recovery, \
       no eviction)."
    in
    Arg.(value & opt (some string) None & info [ "state-dir" ] ~docv:"DIR" ~doc)
  in
  let max_tenants_arg =
    let doc = "Registry size cap; further submissions are shed." in
    Arg.(
      value
      & opt int dc.Serve.Daemon.max_tenants
      & info [ "max-tenants" ] ~docv:"N" ~doc)
  in
  let max_resident_arg =
    let doc =
      "Keep at most $(docv) tenants hot in memory, evicting the coldest to \
       their checkpoints (needs $(b,--state-dir)); 0 keeps everything hot."
    in
    Arg.(
      value
      & opt int dc.Serve.Daemon.max_resident
      & info [ "max-resident" ] ~docv:"N" ~doc)
  in
  let capacity_arg =
    let doc =
      "Fleet capacity in firings per iteration: tenants whose summed \
       per-iteration cost would exceed it are queued; 0 means unlimited."
    in
    Arg.(
      value
      & opt int dc.Serve.Daemon.capacity
      & info [ "capacity" ] ~docv:"FIRINGS" ~doc)
  in
  let max_queue_arg =
    let doc = "Admission queue bound; a full queue sheds with $(b,overloaded)." in
    Arg.(
      value
      & opt int dc.Serve.Daemon.max_queue
      & info [ "max-queue" ] ~docv:"N" ~doc)
  in
  let max_advance_arg =
    let doc = "Largest iteration count accepted in one advance request." in
    Arg.(
      value
      & opt int dc.Serve.Daemon.max_advance
      & info [ "max-advance" ] ~docv:"N" ~doc)
  in
  let checkpoint_every_arg =
    let doc = "Persist a tenant after every $(docv)-th new iteration." in
    Arg.(
      value
      & opt int dc.Serve.Daemon.checkpoint_every
      & info [ "checkpoint-every" ] ~docv:"N" ~doc)
  in
  let timeout_arg =
    let doc =
      "Wall-clock budget per advance request: a longer advance returns \
       partial progress plus a retry hint; 0 disables the cut."
    in
    Arg.(
      value
      & opt float dc.Serve.Daemon.request_timeout_ms
      & info [ "request-timeout-ms" ] ~docv:"MS" ~doc)
  in
  let retry_after_arg =
    let doc = "Backoff hint attached to shed and timeout responses." in
    Arg.(
      value
      & opt int dc.Serve.Daemon.retry_after_ms
      & info [ "retry-after-ms" ] ~docv:"MS" ~doc)
  in
  let quarantine_arg =
    let doc =
      "Quarantine a tenant once its cumulative substituted firings reach \
       $(docv); 0 quarantines only unrecovered runs."
    in
    Arg.(
      value
      & opt int dc.Serve.Daemon.quarantine_skips
      & info [ "quarantine-skips" ] ~docv:"N" ~doc)
  in
  let budget_arg =
    let doc =
      "Default per-tenant admission budget in firings per iteration \
       (overridable per submission)."
    in
    Arg.(
      value & opt (some int) None & info [ "budget" ] ~docv:"FIRINGS" ~doc)
  in
  let metrics_out_arg =
    let doc = "Rewrite an OpenMetrics snapshot of the fleet to $(docv) \
               atomically after every request." in
    Arg.(
      value & opt (some string) None & info [ "metrics-out" ] ~docv:"FILE" ~doc)
  in
  let rid_cache_arg =
    let doc =
      "Idempotency-key cache capacity: responses to requests carrying a \
       $(b,rid) field are replayed byte-identically on retry instead of \
       re-executed; 0 disables."
    in
    Arg.(
      value
      & opt int dc.Serve.Daemon.rid_cache
      & info [ "rid-cache" ] ~docv:"N" ~doc)
  in
  let crash_at_arg =
    let doc =
      "Fault injection for migration tests: SIGKILL this daemon the moment \
       the named migration point (e.g. $(b,src_after_commit), \
       $(b,dst_after_prepare)) is reached."
    in
    Arg.(value & opt (some string) None & info [ "kill-at" ] ~docv:"POINT" ~doc)
  in
  let netfault_arg =
    let doc =
      "Inject seeded wire faults into every accepted connection: \
       comma-separated $(b,KIND:PROB[:ARG]) with kinds $(b,shortread), \
       $(b,shortwrite), $(b,tear), $(b,stall), $(b,disconnect), $(b,delay), \
       $(b,dup).  E.g. $(b,tear:0.01,disconnect:0.005,shortread:0.2:7)."
    in
    Arg.(value & opt (some string) None & info [ "netfault" ] ~docv:"SPEC" ~doc)
  in
  let netfault_seed_arg =
    let doc = "Seed for the $(b,--netfault) plan (bit-reproducible)." in
    Arg.(value & opt int 0 & info [ "netfault-seed" ] ~docv:"N" ~doc)
  in
  let dl = Serve.Server.default_limits in
  let max_conns_arg =
    let doc =
      "Accepted-connection cap; an overflowing connection gets one \
       $(b,overloaded) error line and is closed.  0 means unlimited."
    in
    Arg.(
      value
      & opt int dl.Serve.Server.max_conns
      & info [ "max-conns" ] ~docv:"N" ~doc)
  in
  let max_line_bytes_arg =
    let doc =
      "Longest request line accepted (terminated or not): longer frames get \
       a $(b,too_large) error and the connection is closed, bounding \
       per-connection buffering.  0 means unlimited."
    in
    Arg.(
      value
      & opt int dl.Serve.Server.max_line_bytes
      & info [ "max-line-bytes" ] ~docv:"BYTES" ~doc)
  in
  let read_deadline_arg =
    let doc =
      "Cut a connection that has sent part of a frame and then stalled for \
       $(docv) ms (slow-loris defence); 0 never cuts."
    in
    Arg.(
      value
      & opt float dl.Serve.Server.read_deadline_ms
      & info [ "read-deadline-ms" ] ~docv:"MS" ~doc)
  in
  let conn_bytes_arg =
    let doc =
      "Per-connection lifetime inbound byte budget; 0 means unlimited."
    in
    Arg.(
      value
      & opt int dl.Serve.Server.conn_bytes
      & info [ "conn-bytes" ] ~docv:"BYTES" ~doc)
  in
  let conn_ms_arg =
    let doc = "Per-connection lifetime wall budget in ms; 0 means unlimited." in
    Arg.(
      value
      & opt float dl.Serve.Server.conn_ms
      & info [ "conn-ms" ] ~docv:"MS" ~doc)
  in
  let drain_arg =
    let doc =
      "Do not start a daemon: gracefully drain the one already running on \
       $(i,SOCKET) — persist every tenant, refuse new submissions, stop \
       after in-flight requests are answered."
    in
    Arg.(value & flag & info [ "drain" ] ~doc)
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the multi-tenant streaming daemon: host many TPDF graph \
          instances over newline-delimited JSON on $(i,SOCKET), with \
          admission control (rate-safety, boundedness and MCR checks at \
          submit time), FIFO queueing and load shedding, per-tenant fault \
          isolation with quarantine, and crash-consistent checkpoints — \
          $(b,kill -9) plus a restart on the same $(b,--state-dir) resumes \
          every tenant byte-identically.  Live migration ($(b,tpdf_tool \
          client --migrate)) hands a tenant to a peer daemon through a \
          two-phase checksummed checkpoint transfer that survives \
          $(b,kill -9) of either side.")
    Term.(
      const cmd_serve $ socket_arg $ state_dir_arg $ max_tenants_arg
      $ max_resident_arg $ capacity_arg $ max_queue_arg $ max_advance_arg
      $ checkpoint_every_arg $ timeout_arg $ retry_after_arg $ quarantine_arg
      $ budget_arg $ metrics_out_arg $ rid_cache_arg $ crash_at_arg
      $ netfault_arg $ netfault_seed_arg $ max_conns_arg $ max_line_bytes_arg
      $ read_deadline_arg $ conn_bytes_arg $ conn_ms_arg $ drain_arg)

let client_cmd =
  let request_arg =
    let doc =
      "Send this single JSON request and print the response instead of \
       running a scripted session from stdin."
    in
    Arg.(
      value & opt (some string) None & info [ "e"; "request" ] ~docv:"JSON" ~doc)
  in
  let timeout_arg =
    let doc =
      "Keep retrying the initial connect for up to $(docv) ms, so scripts \
       can race the daemon's startup."
    in
    Arg.(value & opt float 5000.0 & info [ "connect-timeout-ms" ] ~docv:"MS" ~doc)
  in
  let pc = Serve.Client.default_policy in
  let deadline_arg =
    let doc = "Per-attempt response deadline in ms." in
    Arg.(
      value
      & opt float pc.Serve.Client.deadline_ms
      & info [ "deadline-ms" ] ~docv:"MS" ~doc)
  in
  let retries_arg =
    let doc =
      "Re-send a request up to $(docv) times after transport failures \
       (timeouts, resets, torn responses); well-formed error responses are \
       never retried."
    in
    Arg.(
      value
      & opt int pc.Serve.Client.retries
      & info [ "retries" ] ~docv:"N" ~doc)
  in
  let backoff_arg =
    let doc = "Base backoff between attempts in ms (exponential, jittered)." in
    Arg.(
      value
      & opt float pc.Serve.Client.backoff_ms
      & info [ "backoff-ms" ] ~docv:"MS" ~doc)
  in
  let backoff_max_arg =
    let doc = "Backoff cap in ms, before jitter." in
    Arg.(
      value
      & opt float pc.Serve.Client.backoff_max_ms
      & info [ "backoff-max-ms" ] ~docv:"MS" ~doc)
  in
  let seed_arg =
    let doc = "Seed of the deterministic backoff-jitter stream." in
    Arg.(value & opt int pc.Serve.Client.seed & info [ "seed" ] ~docv:"N" ~doc)
  in
  let rid_arg =
    let doc =
      "Attach this idempotency key to the request (a $(b,rid) field): the \
       daemon replays the cached response byte-identically if a retry \
       re-delivers the request."
    in
    Arg.(value & opt (some string) None & info [ "rid" ] ~docv:"ID" ~doc)
  in
  let drain_arg =
    let doc = "Send a $(b,drain) request instead of reading stdin." in
    Arg.(value & flag & info [ "drain" ] ~doc)
  in
  let stop_arg =
    let doc = "With $(b,--drain): also stop the daemon once drained." in
    Arg.(value & flag & info [ "stop" ] ~doc)
  in
  let migrate_arg =
    let doc =
      "Live-migrate tenant $(docv) from the daemon on $(i,SOCKET) to the \
       daemon at $(b,--to): two-phase checkpoint handoff, crash-safe on \
       both sides."
    in
    Arg.(
      value & opt (some string) None & info [ "migrate" ] ~docv:"TENANT" ~doc)
  in
  let to_arg =
    let doc = "Destination daemon endpoint for $(b,--migrate)." in
    Arg.(value & opt (some string) None & info [ "to" ] ~docv:"ADDR" ~doc)
  in
  let resolve_arg =
    let doc =
      "Finish an interrupted migration of tenant $(docv) from whichever \
       side's persisted state survives."
    in
    Arg.(
      value & opt (some string) None & info [ "resolve" ] ~docv:"TENANT" ~doc)
  in
  Cmd.v
    (Cmd.info "client"
       ~doc:
         "Resilient client for $(b,tpdf_tool serve): read JSON request lines \
          from stdin (blank lines and $(b,#) comments skipped), send each to \
          $(i,SOCKET), and print one response line per request.  Single \
          requests ($(b,-e), $(b,--drain), $(b,--migrate), $(b,--resolve)) \
          ride the deadline/retry/backoff transport and may carry an \
          idempotency key.")
    Term.(
      const cmd_client $ socket_arg $ request_arg $ timeout_arg $ deadline_arg
      $ retries_arg $ backoff_arg $ backoff_max_arg $ seed_arg $ rid_arg
      $ drain_arg $ stop_arg $ migrate_arg $ to_arg $ resolve_arg)

let dot_cmd =
  Cmd.v (Cmd.info "dot" ~doc:"Emit Graphviz") Term.(const cmd_dot $ graph_arg)

let export_cmd =
  let file_arg =
    let doc = "Destination file (stdout when omitted)." in
    Arg.(value & pos 1 (some string) None & info [] ~docv:"FILE" ~doc)
  in
  Cmd.v
    (Cmd.info "export" ~doc:"Serialize a graph to the textual .tpdf format")
    Term.(const cmd_export $ graph_arg $ file_arg)

(* The one exit-code contract shared by every subcommand; scripts (and
   ci/check.sh) key off these numbers, so keep the table in sync with
   README.md. *)
let exit_table =
  [
    Cmd.Exit.info 0 ~doc:"on success.";
    Cmd.Exit.info 1
      ~doc:
        "on a runtime failure: invalid input, an analysis that rejects the \
         graph, an observed/predicted mismatch beyond tolerance, or a chaos \
         run that did not recover.";
    Cmd.Exit.info 2
      ~doc:
        "when an observed execution beats a proven analysis bound — an \
         analysis bug, never an input error.";
    Cmd.Exit.info 3
      ~doc:
        "when $(b,--kill-at-ms) cut a checkpointed run short; $(b,tpdf_tool \
         resume) continues it byte-identically.";
    Cmd.Exit.info Cmd.Exit.cli_error ~doc:"on command line parsing errors.";
    Cmd.Exit.info Cmd.Exit.internal_error
      ~doc:"on unexpected internal errors (bugs).";
  ]

let () =
  let info =
    Cmd.info "tpdf_tool" ~version:"1.0.0" ~exits:exit_table
      ~doc:"Transaction Parameterized Dataflow analyses (DATE 2016 reproduction)"
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            list_cmd;
            analyze_cmd;
            liveness_cmd;
            schedule_cmd;
            buffers_cmd;
            simulate_cmd;
            run_cmd;
            resume_cmd;
            throughput_cmd;
            chaos_cmd;
            profile_cmd;
            trace_cmd;
            top_cmd;
            analyze_trace_cmd;
            dot_cmd;
            export_cmd;
            serve_cmd;
            client_cmd;
          ]))
