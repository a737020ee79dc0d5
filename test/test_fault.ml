open Tpdf_core
open Tpdf_param
open Tpdf_fault
module Sim = Tpdf_sim
module Apps = Tpdf_apps
module Obs = Tpdf_obs.Obs
module Metrics = Tpdf_obs.Metrics

let c = Tpdf_csdf.Graph.const_rates

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* ------------------------------------------------------------------ *)
(* Spec language                                                       *)
(* ------------------------------------------------------------------ *)

let test_parse_roundtrip () =
  let s = "fail:FFT:0.2:4,overrun:QAM:0.8:8,jitter:*:0.1:0.5,corrupt:RCP:0.3,ctrl-loss:CON:0.25" in
  match Fault.parse_specs s with
  | Error m -> Alcotest.fail m
  | Ok specs ->
      Alcotest.(check int) "five specs" 5 (List.length specs);
      Alcotest.(check string) "canonical round-trip" s
        (Fault.specs_to_string specs);
      (match specs with
      | { Fault.target = Some "FFT"; prob; kind = Fault.Fail 4 } :: _ ->
          Alcotest.(check (float 1e-9)) "prob" 0.2 prob
      | _ -> Alcotest.fail "first spec mismatch")

let test_parse_errors () =
  List.iter
    (fun s ->
      match Fault.parse_specs s with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail (s ^ ": error expected"))
    [
      "";
      "boom:FFT:0.5";
      "fail:FFT:1.5";
      "fail:FFT:0.5:0";
      "fail:FFT:0.5:1.5";
      "corrupt:FFT:0.5:7";
      "overrun:FFT:abc";
    ]

let test_spec_validation () =
  (match Fault.spec ~prob:2.0 Fault.Corrupt with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "prob out of range accepted");
  match Fault.spec ~prob:0.5 (Fault.Fail 0) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "zero fail count accepted"

(* ------------------------------------------------------------------ *)
(* Plan determinism                                                    *)
(* ------------------------------------------------------------------ *)

let some_specs =
  [
    Fault.spec ~target:"A" ~prob:0.5 (Fault.Fail 1);
    Fault.spec ~prob:0.3 (Fault.Jitter 2.0);
    Fault.spec ~target:"B" ~prob:0.4 Fault.Corrupt;
  ]

let test_plan_deterministic () =
  let p1 = Plan.make ~seed:7 some_specs in
  let p2 = Plan.make ~seed:7 some_specs in
  for i = 0 to 99 do
    List.iter
      (fun actor ->
        Alcotest.(check bool) "same draw" true
          (Plan.draw p1 ~actor ~index:i = Plan.draw p2 ~actor ~index:i))
      [ "A"; "B"; "C" ]
  done

let test_plan_seed_sensitive () =
  let p1 = Plan.make ~seed:7 some_specs in
  let p2 = Plan.make ~seed:8 some_specs in
  let differs = ref false in
  for i = 0 to 99 do
    List.iter
      (fun actor ->
        if Plan.draw p1 ~actor ~index:i <> Plan.draw p2 ~actor ~index:i then
          differs := true)
      [ "A"; "B" ]
  done;
  Alcotest.(check bool) "seeds matter" true !differs

let test_plan_respects_target () =
  let p = Plan.make ~seed:3 [ Fault.spec ~target:"A" ~prob:1.0 Fault.Corrupt ] in
  Alcotest.(check bool) "A always hit" true
    (List.mem Fault.Corrupt (Plan.draw p ~actor:"A" ~index:0));
  Alcotest.(check (list (list string))) "B never hit" []
    (List.map
       (fun k -> [ Format.asprintf "%a" Fault.pp_kind k ])
       (Plan.draw p ~actor:"B" ~index:0));
  Alcotest.(check bool) "empty plan draws nothing" true
    (Plan.draw Plan.none ~actor:"A" ~index:0 = [])

(* ------------------------------------------------------------------ *)
(* Supervisor on a small pipeline                                      *)
(* ------------------------------------------------------------------ *)

let pipeline () =
  let g = Graph.create () in
  Graph.add_kernel g "SRC";
  Graph.add_kernel g "MID";
  Graph.add_kernel g "SNK";
  ignore (Graph.add_channel g ~src:"SRC" ~dst:"MID" ~prod:(c [ 1 ]) ~cons:(c [ 1 ]) ());
  ignore (Graph.add_channel g ~src:"MID" ~dst:"SNK" ~prod:(c [ 1 ]) ~cons:(c [ 1 ]) ());
  g

let test_retry_recovers () =
  let g = pipeline () in
  (* MID fails twice on every firing; budget 2 absorbs it *)
  let plan = Plan.make ~seed:1 [ Fault.spec ~target:"MID" ~prob:1.0 (Fault.Fail 2) ] in
  let policy = Policy.make ~max_retries:2 ~retry_backoff_ms:0.5 () in
  let s =
    Supervisor.run ~graph:g ~plan ~policy ~iterations:3
      ~valuation:Valuation.empty ~default:0 ()
  in
  Alcotest.(check (option string)) "recovered" None s.Supervisor.unrecovered;
  Alcotest.(check int) "3 iterations" 3 s.Supervisor.iterations_run;
  Alcotest.(check int) "2 retries per firing" 6 s.Supervisor.retries;
  Alcotest.(check int) "no skips" 0 s.Supervisor.skips;
  (* backoff extends virtual time beyond the 3 ms of a fault-free run *)
  let clean =
    Supervisor.run ~graph:g ~plan:Plan.none ~policy ~iterations:3
      ~valuation:Valuation.empty ~default:0 ()
  in
  Alcotest.(check bool) "backoff visible in virtual time" true
    (s.Supervisor.total_end_ms > clean.Supervisor.total_end_ms)

let test_skip_substitutes () =
  let g = pipeline () in
  (* MID fails 5 times per firing, budget 1: every firing is substituted,
     yet the declared rates keep the pipeline flowing to completion *)
  let plan = Plan.make ~seed:1 [ Fault.spec ~target:"MID" ~prob:1.0 (Fault.Fail 5) ] in
  let policy = Policy.make ~max_retries:1 () in
  let seen = ref [] in
  let behaviors =
    [
      ("SRC", Sim.Behavior.fill 7);
      ( "SNK",
        Sim.Behavior.sink (fun ctx ->
            List.iter
              (fun (_, toks) ->
                List.iter (fun t -> seen := Sim.Token.data t :: !seen) toks)
              ctx.Sim.Behavior.inputs) );
    ]
  in
  let s =
    Supervisor.run ~graph:g ~plan ~policy ~behaviors ~iterations:2
      ~valuation:Valuation.empty ~default:0 ()
  in
  Alcotest.(check (option string)) "recovered" None s.Supervisor.unrecovered;
  Alcotest.(check int) "every MID firing skipped" 2 s.Supervisor.skips;
  Alcotest.(check (list int)) "SNK saw substituted defaults" [ 0; 0 ]
    !seen;
  List.iter
    (fun (st : Sim.Engine.stats) ->
      Alcotest.(check int) "MID fired" 1 (List.assoc "MID" st.Sim.Engine.firings))
    s.Supervisor.per_iteration

let test_corrupt_and_ctrl_loss_counted () =
  let g = pipeline () in
  let plan =
    Plan.make ~seed:9 [ Fault.spec ~target:"SRC" ~prob:1.0 Fault.Corrupt ]
  in
  let behaviors = [ ("SRC", Sim.Behavior.fill 7) ] in
  let s =
    Supervisor.run ~graph:g ~plan ~behaviors ~iterations:2
      ~valuation:Valuation.empty ~default:0 ~corrupt:(fun v -> v + 100) ()
  in
  Alcotest.(check int) "corruptions counted" 2 s.Supervisor.corrupted;
  Alcotest.(check (option string)) "recovered" None s.Supervisor.unrecovered

let test_deadline_watchdog () =
  let g = pipeline () in
  let plan =
    Plan.make ~seed:2 [ Fault.spec ~target:"MID" ~prob:1.0 (Fault.Overrun 10.0) ]
  in
  let policy = Policy.make ~deadlines_ms:[ ("MID", 2.0) ] () in
  let s =
    Supervisor.run ~graph:g ~plan ~policy ~iterations:4
      ~valuation:Valuation.empty ~default:0 ()
  in
  (* default 1 ms duration, x10 overrun = 10 ms > 2 ms deadline *)
  Alcotest.(check int) "every firing misses" 4 s.Supervisor.deadline_misses;
  Alcotest.(check int) "no hits" 0 s.Supervisor.deadline_hits

let test_policy_validation () =
  let g = pipeline () in
  let bad watch pins =
    let policy =
      Policy.make ~fallbacks:[ { Policy.watch; pins } ] ()
    in
    match Policy.validate g policy with
    | Error _ -> ()
    | Ok () -> Alcotest.fail "invalid fallback accepted"
  in
  bad "NOPE" [];
  bad "MID" [ ("NOPE", "m") ];
  bad "MID" [ ("MID", "m") ] (* MID has no control port *)

let test_unrecovered_stall_reported () =
  let g = Graph.create () in
  Graph.add_kernel g "X";
  Graph.add_kernel g "Y";
  ignore (Graph.add_channel g ~src:"X" ~dst:"Y" ~prod:(c [ 1 ]) ~cons:(c [ 1 ]) ());
  ignore (Graph.add_channel g ~src:"Y" ~dst:"X" ~prod:(c [ 1 ]) ~cons:(c [ 1 ]) ());
  let s =
    Supervisor.run ~graph:g ~plan:Plan.none ~iterations:3
      ~valuation:Valuation.empty ~default:0 ()
  in
  (match s.Supervisor.unrecovered with
  | Some why ->
      Alcotest.(check bool) "mentions stall" true
        (contains why "stalled")
  | None -> Alcotest.fail "stall expected");
  Alcotest.(check int) "stopped at first iteration" 1
    s.Supervisor.iterations_run

(* ------------------------------------------------------------------ *)
(* Reconfigure failure paths                                           *)
(* ------------------------------------------------------------------ *)

let test_reconfigure_failures () =
  let g, _ = Apps.Ofdm_app.tpdf_graph () in
  let v = Apps.Ofdm_app.valuation ~beta:1 ~n:4 ~l:1 in
  (match Sim.Reconfigure.run_scenarios ~graph:g ~valuation:v ~default:0 [] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "empty scenario list accepted");
  (match
     Sim.Reconfigure.run_scenarios ~graph:g ~valuation:v ~default:0
       [ [ ("DUP", "nope") ] ]
   with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "undeclared mode accepted");
  (match Sim.Reconfigure.starved_actors g [ ("NOPE", "qpsk") ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "unknown actor accepted");
  Alcotest.(check (list string)) "QAM starved under qpsk scenario" [ "QAM" ]
    (Sim.Reconfigure.starved_actors g Apps.Ofdm_app.scenario_qpsk);
  Alcotest.(check (list string)) "QPSK starved under qam scenario" [ "QPSK" ]
    (Sim.Reconfigure.starved_actors g Apps.Ofdm_app.scenario_qam)

(* ------------------------------------------------------------------ *)
(* OFDM mode fallback, end to end, bit-for-bit reproducible            *)
(* ------------------------------------------------------------------ *)

let ofdm_chaos () =
  let g, _ = Apps.Ofdm_app.tpdf_graph () in
  let beta = 2 and n = 8 in
  let v = Apps.Ofdm_app.valuation ~beta ~n ~l:1 in
  let behaviors =
    List.filter_map
      (fun a ->
        if Graph.is_control g a then None
        else
          Some
            ( a,
              Sim.Behavior.fill 0
                ~duration_ms:(fun _ ->
                  Apps.Ofdm_app.model_cost_ms ~beta ~n a) ))
      (Graph.actors g)
  in
  let policy =
    Policy.make
      ~deadlines_ms:[ ("QAM", 0.05) ]
      ~degrade_after:2
      ~fallbacks:(Chaos.default_fallbacks g) ()
  in
  let specs = [ Fault.spec ~target:"QAM" ~prob:0.8 (Fault.Overrun 8.0) ] in
  let obs = Obs.create () in
  let s =
    Chaos.run ~graph:g ~seed:42 ~specs ~policy ~iterations:6 ~obs ~behaviors
      ~valuation:v ()
  in
  (s, obs)

let test_ofdm_mode_fallback () =
  let s, obs = ofdm_chaos () in
  Alcotest.(check bool) "recovered" true (Chaos.recovered s);
  Alcotest.(check (list (pair string string))) "DUP and TRAN degraded to qpsk"
    [ ("DUP", "qpsk"); ("TRAN", "qpsk") ]
    (List.sort compare s.Supervisor.degrades);
  Alcotest.(check bool) "misses tripped it" true
    (s.Supervisor.deadline_misses >= 2);
  (* after the degrade the QAM branch is starved: its firings stop *)
  (match List.rev s.Supervisor.per_iteration with
  | last :: _ ->
      Alcotest.(check int) "QAM silent after fallback" 0
        (List.assoc "QAM" last.Sim.Engine.firings);
      Alcotest.(check bool) "QPSK branch active" true
        (List.assoc "QPSK" last.Sim.Engine.firings > 0)
  | [] -> Alcotest.fail "no iterations");
  (* the degrade instants and counters are visible through tpdf_obs *)
  let degrade_events =
    List.filter
      (fun (e : Tpdf_obs.Event.t) ->
        e.cat = "supervisor" && e.name = "degrade")
      (Obs.events obs)
  in
  Alcotest.(check int) "two degrade instants" 2 (List.length degrade_events);
  Alcotest.(check int) "degrade counter" 2
    (Metrics.counter (Obs.metrics obs) "supervisor.degrades");
  let report =
    Tpdf_obs.Report.summary ~metrics:(Obs.metrics obs) (Obs.events obs)
  in
  Alcotest.(check bool) "summary has a resilience section" true
    (contains report "== resilience ==");
  Alcotest.(check bool) "summary lists the degrade" true
    (contains report "mode degrades")

let test_ofdm_chaos_reproducible () =
  let s1, o1 = ofdm_chaos () in
  let s2, o2 = ofdm_chaos () in
  Alcotest.(check bool) "summaries byte-identical" true (s1 = s2);
  Alcotest.(check bool) "per-iteration stats byte-identical" true
    (s1.Supervisor.per_iteration = s2.Supervisor.per_iteration);
  Alcotest.(check bool) "obs event streams byte-identical" true
    (Obs.events o1 = Obs.events o2);
  Alcotest.(check bool) "chrome traces byte-identical" true
    (Tpdf_obs.Chrome.json_of_events (Obs.events o1)
    = Tpdf_obs.Chrome.json_of_events (Obs.events o2))

let test_chaos_defaults () =
  let g, _ = Apps.Ofdm_app.tpdf_graph () in
  Alcotest.(check (list (pair string string))) "start ambitious (last mode)"
    [ ("DUP", "qam"); ("TRAN", "qam") ]
    (List.sort compare (Chaos.default_scenario g));
  let fallbacks = Chaos.default_fallbacks g in
  Alcotest.(check (list string)) "watch set covers the QAM branch"
    [ "DUP"; "QAM"; "TRAN" ]
    (List.sort compare
       (List.map (fun (f : Policy.fallback) -> f.Policy.watch) fallbacks));
  List.iter
    (fun (f : Policy.fallback) ->
      Alcotest.(check (list (pair string string))) "pins fall back to qpsk"
        [ ("DUP", "qpsk"); ("TRAN", "qpsk") ]
        (List.sort compare f.Policy.pins))
    fallbacks

(* ------------------------------------------------------------------ *)
(* Sessions: k steps = one k-iteration run = k resumed single runs     *)
(* ------------------------------------------------------------------ *)

let graphs_dir =
  let d = "../graphs" in
  if Sys.file_exists d then d else "graphs"

let graph_files =
  Sys.readdir graphs_dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".tpdf")
  |> List.sort compare

let fault_sets g =
  let specs s =
    match Fault.parse_specs s with Ok l -> l | Error m -> failwith m
  in
  let deadlines = List.map (fun a -> (a, 2.0)) (Graph.kernels g) in
  let policy ?(deadlines_ms = []) ?(degrade_after = 3) ?(max_restarts = 0)
      () =
    Policy.make ~deadlines_ms ~degrade_after ~max_restarts
      ~fallbacks:(Chaos.default_fallbacks g) ()
  in
  [
    ("none", [], policy ());
    ("fail", specs "fail:*:0.4:3", policy ());
    ("corrupt", specs "corrupt:*:0.5", policy ());
    ("ctrl-loss", specs "ctrl-loss:*:0.5", policy ());
    ( "overrun+deadline",
      specs "overrun:*:0.5:4",
      policy ~deadlines_ms:deadlines ~degrade_after:1 () );
    ( "max_restarts",
      specs "ctrl-loss:*:0.5,overrun:*:0.5:4,fail:*:0.3:4",
      policy ~deadlines_ms:deadlines ~degrade_after:1 ~max_restarts:2 () );
  ]

(* What one driving of a supervised run observed: the boundary
   checkpoints (as persisted), the per-iteration stats, the summary
   ([None] where the driver cannot see one) and the firing log of every
   kernel — the trace of a run without a collector ([[]] where the
   driver logs none). *)
type observed = {
  metas : (string * string) list list;
  stats : Sim.Engine.stats list;
  unrecovered : string option;
  summary : Supervisor.summary option;
  log : Firing_log.entry list;
}

(* The summary a completed session's last boundary checkpoint implies. *)
let summary_of_ck (ck : Supervisor.checkpoint) per_iteration =
  {
    Supervisor.iterations_run = ck.Supervisor.ck_iterations_run;
    total_end_ms = ck.ck_offset_ms;
    retries = ck.ck_retries;
    skips = ck.ck_skips;
    corrupted = ck.ck_corrupted;
    ctrl_lost = ck.ck_ctrl_lost;
    deadline_misses = ck.ck_deadline_misses;
    deadline_hits = ck.ck_deadline_hits;
    restarts = ck.ck_restarts;
    degrades = List.rev ck.ck_degrades;
    unrecovered = None;
    killed = None;
    per_iteration;
  }

let check_session_equivalence file () =
  let g =
    match Serial.load (Filename.concat graphs_dir file) with
    | Ok g -> g
    | Error m -> Alcotest.fail (file ^ ": " ^ m)
  in
  let valuation =
    List.fold_left (fun v p -> Valuation.add p 2 v) Valuation.empty
      (Graph.parameters g)
  in
  let k = 4 and seed = 7 in
  let firings = ref 0 in
  List.iter
    (fun (name, specs, policy) ->
      let label what = Printf.sprintf "%s/%s: %s" file name what in
      (* Steps [s] [k] times, or until it gives up; [log] reads the
         firing log the session's behaviours wrote, if any. *)
      let drive s log =
        let rec go i metas stats last =
          if i = k then
            let stats = List.rev stats in
            {
              metas = List.rev metas;
              stats;
              unrecovered = None;
              summary = Option.map (fun ck -> summary_of_ck ck stats) last;
              log = log ();
            }
          else
            match Supervisor.step s with
            | Supervisor.Stepped (st, ck) ->
                go (i + 1)
                  (Supervisor.checkpoint_meta ck :: metas)
                  (st :: stats) (Some ck)
            | Supervisor.Gave_up (why, partial) ->
                {
                  metas = List.rev metas;
                  stats = List.rev (Option.to_list partial @ stats);
                  unrecovered = Some why;
                  summary = None;
                  log = log ();
                }
            | Supervisor.Killed _ -> Alcotest.fail (label "killed")
        in
        go 0 [] [] None
      in
      let stepped =
        drive
          (Chaos.session ~graph:g ~seed ~specs ~policy ~valuation ())
          (fun () -> [])
      in
      (* [Chaos.session]'s session with the kernels' behaviours logged:
         the same run, now with a witness of what fired when *)
      let logged =
        let log = Firing_log.create () in
        drive
          (Supervisor.session ~graph:g ~plan:(Plan.make ~seed specs) ~policy
             ~scenario:(Chaos.default_scenario g)
             ~behaviors:(Firing_log.wrap_kernels log g ~default:0 [])
             ~encode:string_of_int ~decode:int_of_string ~valuation ~default:0
             ())
          (fun () -> Firing_log.entries log)
      in
      let whole =
        let metas = ref [] in
        let log = Firing_log.create () in
        let s =
          Chaos.run ~graph:g ~seed ~specs ~policy ~iterations:k
            ~behaviors:(Firing_log.wrap_kernels log g ~default:0 [])
            ~checkpoint_every:1
            ~on_checkpoint:(fun ck ->
              metas := Supervisor.checkpoint_meta ck :: !metas)
            ~valuation ()
        in
        {
          metas = List.rev !metas;
          stats = s.Supervisor.per_iteration;
          unrecovered = s.Supervisor.unrecovered;
          summary = Some s;
          log = Firing_log.entries log;
        }
      in
      let resumed =
        (* one log across the resumed runs: their firings concatenate *)
        let log = Firing_log.create () in
        let rec go i resume metas stats =
          let last = ref None in
          let s =
            Chaos.run ~graph:g ~seed ~specs ~policy ~iterations:(i + 1)
              ~behaviors:(Firing_log.wrap_kernels log g ~default:0 [])
              ~checkpoint_every:1
              ~on_checkpoint:(fun ck -> last := Some ck)
              ?resume ~valuation ()
          in
          let metas =
            match !last with
            | Some ck -> Supervisor.checkpoint_meta ck :: metas
            | None -> metas
          in
          let stats = List.rev_append s.Supervisor.per_iteration stats in
          if s.Supervisor.unrecovered <> None || i + 1 = k then
            let stats = List.rev stats in
            {
              metas = List.rev metas;
              stats;
              unrecovered = s.Supervisor.unrecovered;
              summary = Some { s with Supervisor.per_iteration = stats };
              log = Firing_log.entries log;
            }
          else go (i + 1) !last metas stats
        in
        go 0 None [] []
      in
      List.iter
        (fun (what, other) ->
          if stepped.metas <> other.metas then
            Alcotest.fail (label ("checkpoints differ from " ^ what));
          if stepped.stats <> other.stats then
            Alcotest.fail (label ("per-iteration stats differ from " ^ what));
          if stepped.unrecovered <> other.unrecovered then
            Alcotest.fail (label ("diagnosis differs from " ^ what));
          match (stepped.summary, other.summary) with
          | Some a, Some b when a <> b ->
              Alcotest.fail (label ("summary differs from " ^ what))
          | _ -> ())
        [
          ("Supervisor.run", whole);
          ("resumed Chaos.run", resumed);
          ("logged session", logged);
        ];
      if whole.summary <> resumed.summary then
        Alcotest.fail (label "resumed summary differs from Supervisor.run");
      List.iter
        (fun (what, other) ->
          if logged.log <> other.log then
            Alcotest.fail (label ("firing logs differ from " ^ what)))
        [ ("Supervisor.run", whole); ("resumed Chaos.run", resumed) ];
      firings := !firings + List.length logged.log)
    (fault_sets g);
  Alcotest.(check bool) (file ^ ": firings logged") true (!firings > 0)

(* Over all shipped graphs, each fault set reaches the mechanism it is
   there for — otherwise the equivalence above proves less than it
   claims. *)
let test_fault_sets_exercised () =
  let totals = Hashtbl.create 8 in
  List.iter
    (fun file ->
      let g = Result.get_ok (Serial.load (Filename.concat graphs_dir file)) in
      let valuation =
        List.fold_left (fun v p -> Valuation.add p 2 v) Valuation.empty
          (Graph.parameters g)
      in
      List.iter
        (fun (name, specs, policy) ->
          let s =
            Chaos.run ~graph:g ~seed:7 ~specs ~policy ~iterations:4 ~valuation
              ()
          in
          let add key n =
            let k = (name, key) in
            Hashtbl.replace totals k
              (n + Option.value ~default:0 (Hashtbl.find_opt totals k))
          in
          add "retries" s.Supervisor.retries;
          add "skips" s.Supervisor.skips;
          add "corrupted" s.Supervisor.corrupted;
          add "ctrl_lost" s.Supervisor.ctrl_lost;
          add "deadline_misses" s.Supervisor.deadline_misses;
          add "degrades" (List.length s.Supervisor.degrades);
          add "restarts" s.Supervisor.restarts;
          if s.Supervisor.unrecovered <> None then add "unrecovered" 1)
        (fault_sets g))
    graph_files;
  List.iter
    (fun (name, key) ->
      let n = Option.value ~default:0 (Hashtbl.find_opt totals (name, key)) in
      if n = 0 then Alcotest.failf "fault set %s never produced %s" name key)
    [
      ("fail", "retries");
      ("fail", "skips");
      ("corrupt", "corrupted");
      ("ctrl-loss", "ctrl_lost");
      ("overrun+deadline", "deadline_misses");
      ("overrun+deadline", "degrades");
      ("max_restarts", "restarts");
      ("max_restarts", "unrecovered");
    ]

let session_tests =
  Alcotest.test_case "fault sets exercised" `Quick test_fault_sets_exercised
  :: List.map
       (fun f -> Alcotest.test_case f `Quick (check_session_equivalence f))
       graph_files

let () =
  Alcotest.run "fault"
    [
      ( "specs",
        [
          Alcotest.test_case "round-trip" `Quick test_parse_roundtrip;
          Alcotest.test_case "parse errors" `Quick test_parse_errors;
          Alcotest.test_case "constructor validation" `Quick
            test_spec_validation;
        ] );
      ( "plan",
        [
          Alcotest.test_case "deterministic" `Quick test_plan_deterministic;
          Alcotest.test_case "seed sensitive" `Quick test_plan_seed_sensitive;
          Alcotest.test_case "targeting" `Quick test_plan_respects_target;
        ] );
      ( "supervisor",
        [
          Alcotest.test_case "retry recovers" `Quick test_retry_recovers;
          Alcotest.test_case "skip substitutes" `Quick test_skip_substitutes;
          Alcotest.test_case "corruption counted" `Quick
            test_corrupt_and_ctrl_loss_counted;
          Alcotest.test_case "deadline watchdog" `Quick test_deadline_watchdog;
          Alcotest.test_case "policy validation" `Quick test_policy_validation;
          Alcotest.test_case "unrecovered stall" `Quick
            test_unrecovered_stall_reported;
        ] );
      ( "reconfigure",
        [
          Alcotest.test_case "failure paths" `Quick test_reconfigure_failures;
        ] );
      ( "ofdm",
        [
          Alcotest.test_case "mode fallback" `Quick test_ofdm_mode_fallback;
          Alcotest.test_case "bit-for-bit reproducible" `Quick
            test_ofdm_chaos_reproducible;
          Alcotest.test_case "chaos defaults" `Quick test_chaos_defaults;
        ] );
      ("session-equiv", session_tests);
    ]
