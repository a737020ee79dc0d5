open Tpdf_core
open Tpdf_sim
open Tpdf_param
module Csdf = Tpdf_csdf

let c = Csdf.Graph.const_rates

(* ------------------------------------------------------------------ *)
(* Plain pipeline                                                      *)
(* ------------------------------------------------------------------ *)

let pipeline () =
  let g = Graph.create () in
  Graph.add_kernel g "SRC";
  Graph.add_kernel g "MID";
  Graph.add_kernel g "SNK";
  let e1 = Graph.add_channel g ~src:"SRC" ~dst:"MID" ~prod:(c [ 2 ]) ~cons:(c [ 1 ]) () in
  let e2 = Graph.add_channel g ~src:"MID" ~dst:"SNK" ~prod:(c [ 1 ]) ~cons:(c [ 2 ]) () in
  (g, e1, e2)

let test_pipeline_counts () =
  let g, _, _ = pipeline () in
  let eng =
    Engine.create ~graph:g ~valuation:Valuation.empty ~default:0 ()
  in
  let stats = Engine.run ~iterations:3 eng in
  Alcotest.(check (list (pair string int))) "firing counts follow 3*q"
    [ ("SRC", 3); ("MID", 6); ("SNK", 3) ]
    stats.Engine.firings;
  Alcotest.(check bool) "time advanced" true (stats.Engine.end_ms > 0.0)

let test_pipeline_payloads () =
  let g, _, e2 = pipeline () in
  let seen = ref [] in
  let behaviors =
    [
      ( "SRC",
        Behavior.make (fun ctx ->
            List.map
              (fun (ch, rate) ->
                (ch, List.init rate (fun i -> Token.Data ((10 * ctx.Behavior.index) + i))))
              ctx.Behavior.out_rates) );
      ( "MID",
        Behavior.make (fun ctx ->
            let v =
              match ctx.Behavior.inputs with
              | [ (_, [ Token.Data v ]) ] -> v
              | _ -> Alcotest.fail "MID expects one data token"
            in
            List.map
              (fun (ch, rate) ->
                (ch, List.init rate (fun _ -> Token.Data (v + 1))))
              ctx.Behavior.out_rates) );
      ( "SNK",
        Behavior.sink (fun ctx ->
            List.iter
              (fun (_, toks) ->
                List.iter (fun t -> seen := Token.data t :: !seen) toks)
              ctx.Behavior.inputs) );
    ]
  in
  let eng = Engine.create ~graph:g ~valuation:Valuation.empty ~behaviors ~default:0 () in
  let (_ : Engine.stats) = Engine.run eng in
  ignore e2;
  Alcotest.(check (list int)) "SNK saw incremented stream" [ 1; 2 ] (List.rev !seen)

let test_deadlocked_runtime () =
  let g = Graph.create () in
  Graph.add_kernel g "X";
  Graph.add_kernel g "Y";
  ignore (Graph.add_channel g ~src:"X" ~dst:"Y" ~prod:(c [ 1 ]) ~cons:(c [ 1 ]) ());
  ignore (Graph.add_channel g ~src:"Y" ~dst:"X" ~prod:(c [ 1 ]) ~cons:(c [ 1 ]) ());
  let eng = Engine.create ~graph:g ~valuation:Valuation.empty ~default:() () in
  match Engine.run eng with
  | exception Failure msg ->
      Alcotest.(check bool) "mentions stall" true
        (String.length msg > 0)
  | _ -> Alcotest.fail "deadlock expected"

(* ------------------------------------------------------------------ *)
(* Fig. 2 at run time                                                  *)
(* ------------------------------------------------------------------ *)

let test_fig2_runtime () =
  let { Examples.graph = g; e } = Examples.fig2 () in
  let v = Valuation.of_list [ ("p", 2) ] in
  let eng = Engine.create ~graph:g ~valuation:v ~default:0 () in
  let stats = Engine.run eng in
  (* q = [2, 2p, p, p, 2p, 2p] at p=2 *)
  Alcotest.(check (list (pair string int))) "firings = q"
    [ ("A", 2); ("B", 4); ("C", 2); ("D", 2); ("E", 4); ("F", 4) ]
    stats.Engine.firings;
  (* Default control behaviour picks F's first mode (take_e6), so the four
     tokens E pushed on e7 are rejected. *)
  Alcotest.(check int) "e7 tokens dropped" 4
    (List.assoc e.(6) stats.Engine.dropped);
  Alcotest.(check int) "e6 tokens consumed, none dropped" 0
    (List.assoc e.(5) stats.Engine.dropped)

let test_fig2_mode_switch () =
  let { Examples.graph = g; e } = Examples.fig2 () in
  let v = Valuation.of_list [ ("p", 2) ] in
  (* C alternates between F's modes on successive firings. *)
  let behaviors =
    [
      ( "C",
        Behavior.emit_mode (fun ctx ->
            if ctx.Behavior.index mod 2 = 0 then "take_e6" else "take_e7") );
    ]
  in
  let eng = Engine.create ~graph:g ~valuation:v ~behaviors ~default:0 () in
  let stats = Engine.run eng in
  (* Both branches get used and both see some rejection. *)
  let dropped6 = List.assoc e.(5) stats.Engine.dropped in
  let dropped7 = List.assoc e.(6) stats.Engine.dropped in
  Alcotest.(check int) "half of e6 dropped" 2 dropped6;
  Alcotest.(check int) "half of e7 dropped" 2 dropped7

(* ------------------------------------------------------------------ *)
(* Clock + Transaction: highest priority at a deadline                 *)
(* ------------------------------------------------------------------ *)

(* SRC fans out to a fast low-quality kernel and a slow high-quality one;
   a clock fires the Transaction box T, which picks the best result
   available at the deadline — the edge-detection pattern of §IV-A. *)
let deadline_graph ~period =
  let g = Graph.create () in
  Graph.add_kernel g "SRC";
  Graph.add_kernel g "FAST";
  Graph.add_kernel g "SLOW";
  Graph.add_kernel g ~kind:Graph.Transaction "T";
  Graph.add_control g ~clock_period_ms:period "CLK";
  ignore (Graph.add_channel g ~src:"SRC" ~dst:"FAST" ~prod:(c [ 1 ]) ~cons:(c [ 1 ]) ());
  ignore (Graph.add_channel g ~src:"SRC" ~dst:"SLOW" ~prod:(c [ 1 ]) ~cons:(c [ 1 ]) ());
  let ft =
    Graph.add_channel g ~src:"FAST" ~dst:"T" ~prod:(c [ 1 ]) ~cons:(c [ 1 ])
      ~priority:1 ()
  in
  let st =
    Graph.add_channel g ~src:"SLOW" ~dst:"T" ~prod:(c [ 1 ]) ~cons:(c [ 1 ])
      ~priority:2 ()
  in
  ignore
    (Graph.add_control_channel g ~src:"CLK" ~dst:"T" ~prod:(c [ 1 ]) ~cons:(c [ 1 ]) ());
  Graph.set_modes g "T"
    [ Mode.make ~inputs:Mode.Highest_priority_available "deadline" ];
  (g, ft, st)

let run_deadline ?obs ~period () =
  let g, ft, st = deadline_graph ~period in
  let winner = ref None in
  let behaviors =
    [
      ("SRC", Behavior.fill ~duration_ms:(Behavior.const_duration 0.1) 0);
      ("FAST", Behavior.fill ~duration_ms:(Behavior.const_duration 1.0) 1);
      ("SLOW", Behavior.fill ~duration_ms:(Behavior.const_duration 10.0) 2);
      ( "T",
        Behavior.sink (fun ctx ->
            match ctx.Behavior.inputs with
            | [ (ch, [ Token.Data _ ]) ] ->
                winner := Some (if ch = ft then `Fast else if ch = st then `Slow else `Other)
            | _ -> Alcotest.fail "T expects exactly one selected input") );
      ("CLK", Behavior.emit_mode (fun _ -> "deadline"));
    ]
  in
  let eng =
    Engine.create ~graph:g ~valuation:Valuation.empty ~behaviors ?obs
      ~default:0 ()
  in
  let stats = Engine.run eng in
  (!winner, stats)

(* The run's trace: its firing spans and tick instants, from a full
   collector. *)
let traced_deadline ~period =
  let obs = Tpdf_obs.Obs.create () in
  let _, stats = run_deadline ~obs ~period () in
  (stats, Tpdf_obs.Obs.events obs)

let total_firings (stats : Engine.stats) =
  List.fold_left (fun acc (_, n) -> acc + n) 0 stats.Engine.firings

let test_deadline_picks_fast_when_tight () =
  (* Tick at 5 ms: only FAST (done at 1.1) is ready; SLOW finishes at 10.1. *)
  let winner, _ = run_deadline ~period:5.0 () in
  match winner with
  | Some `Fast -> ()
  | _ -> Alcotest.fail "expected the fast result at a tight deadline"

let test_deadline_picks_best_when_loose () =
  (* Tick at 15 ms: both ready; SLOW has the higher priority. *)
  let winner, stats = run_deadline ~period:15.0 () in
  (match winner with
  | Some `Slow -> ()
  | _ -> Alcotest.fail "expected the high-priority result at a loose deadline");
  (* the rejected fast token was discarded *)
  let total_dropped = List.fold_left (fun acc (_, n) -> acc + n) 0 stats.Engine.dropped in
  Alcotest.(check int) "one rejected token" 1 total_dropped

let test_trace_is_ordered () =
  let stats, events = traced_deadline ~period:5.0 in
  let trace = Trace.records_of_events events in
  let rec ordered = function
    | a :: (b :: _ as rest) ->
        a.Engine.start_ms <= b.Engine.start_ms && ordered rest
    | _ -> true
  in
  Alcotest.(check bool) "trace sorted by start" true (ordered trace);
  Alcotest.(check bool) "trace non-empty" true (trace <> []);
  Alcotest.(check int) "one record per firing and tick" (total_firings stats)
    (List.length trace)

let test_determinism () =
  let w1, s1 = run_deadline ~period:5.0 () in
  let w2, s2 = run_deadline ~period:5.0 () in
  Alcotest.(check bool) "same winner" true (w1 = w2);
  Alcotest.(check bool) "same end time" true (s1.Engine.end_ms = s2.Engine.end_ms);
  Alcotest.(check bool) "same firing counts" true
    (s1.Engine.firings = s2.Engine.firings)

(* ------------------------------------------------------------------ *)
(* Behaviour validation                                                *)
(* ------------------------------------------------------------------ *)

let test_bad_behavior_rate () =
  let g, _, _ = pipeline () in
  let behaviors = [ ("SRC", Behavior.make (fun _ -> [])) ] in
  let eng = Engine.create ~graph:g ~valuation:Valuation.empty ~behaviors ~default:0 () in
  match Engine.run eng with
  | exception Failure msg ->
      Alcotest.(check bool) "explains rate mismatch" true
        (String.length msg > 10)
  | _ -> Alcotest.fail "wrong token count accepted"

let test_until_ms_cap () =
  let g, _, _ = pipeline () in
  let behaviors =
    [ ("SRC", Behavior.fill ~duration_ms:(Behavior.const_duration 100.0) 0) ]
  in
  let eng = Engine.create ~graph:g ~valuation:Valuation.empty ~behaviors ~default:0 () in
  match Engine.run ~until_ms:10.0 eng with
  | exception Failure _ -> () (* stalls because SRC never completes in time *)
  | _ -> Alcotest.fail "time cap should cut the run short"

(* ------------------------------------------------------------------ *)
(* Select-duplicate output rejection (Fig. 3 semantics)                *)
(* ------------------------------------------------------------------ *)

let test_select_duplicate_runtime () =
  (* Fig. 3 coordinated run: C steers B's output and F's input together,
     alternating branches per iteration.  Each side branch fires only when
     its path is selected. *)
  let g = Examples.fig3 () in
  (match Graph.validate g with
  | Ok () -> ()
  | Error m -> Alcotest.fail (String.concat "; " m));
  let behaviors =
    [
      ( "C",
        Behavior.emit_mode (fun ctx ->
            (* the emitted name must match the receiving kernel's modes;
               B's and F's mode names differ, so emit per-channel *)
            ignore ctx;
            "unused") );
    ]
  in
  ignore behaviors;
  (* C must emit different mode names to B and F: use a custom work. *)
  let skel = Graph.skeleton g in
  let c_behavior =
    Behavior.make (fun ctx ->
        (* the two control targets use different mode vocabularies *)
        List.map
          (fun (ch, rate) ->
            let e = Csdf.Graph.channel skel ch in
            let name =
              match e.Tpdf_graph.Digraph.dst with
              | "B" -> "to_d"
              | "F" -> "from_d"
              | _ -> Alcotest.fail "unexpected control target"
            in
            (ch, List.init rate (fun _ -> Token.Ctrl name)))
          ctx.Behavior.out_rates)
  in
  let eng =
    Engine.create ~graph:g ~valuation:Valuation.empty
      ~behaviors:[ ("C", c_behavior) ]
      ~default:0 ()
  in
  (* the selected branch D fires every iteration; E never does *)
  let stats = Engine.run ~iterations:3 ~targets:[ ("E", 0) ] eng in
  Alcotest.(check int) "D fired" 3 (List.assoc "D" stats.Engine.firings);
  Alcotest.(check int) "E idle" 0 (List.assoc "E" stats.Engine.firings);
  Alcotest.(check int) "F followed" 3 (List.assoc "F" stats.Engine.firings)

(* Without explicit behaviours, C sends each of B and F a mode of its own
   (B's and F's first): a control actor must not send one target's mode
   name to another target with different modes. *)
let test_fig3_default_behaviors () =
  let eng =
    Engine.create ~graph:(Examples.fig3 ()) ~valuation:Valuation.empty ~default:0 ()
  in
  let stats = Engine.run ~iterations:3 ~targets:[ ("E", 0) ] eng in
  Alcotest.(check int) "D fired" 3 (List.assoc "D" stats.Engine.firings);
  Alcotest.(check int) "E idle" 0 (List.assoc "E" stats.Engine.firings);
  Alcotest.(check int) "F followed" 3 (List.assoc "F" stats.Engine.firings)

let test_output_subset_suppresses_branch () =
  (* SRC --ctrl--> DUP with two output branches; mode selects one: the
     other branch's kernel must never fire and needs no tokens. *)
  let g = Graph.create () in
  Graph.add_kernel g "SRC";
  Graph.add_kernel g ~kind:Graph.Select_duplicate "DUP";
  Graph.add_kernel g "L";
  Graph.add_kernel g "R";
  Graph.add_control g "CTL";
  ignore (Graph.add_channel g ~src:"SRC" ~dst:"DUP" ~prod:(c [ 1 ]) ~cons:(c [ 1 ]) ());
  ignore (Graph.add_channel g ~src:"SRC" ~dst:"CTL" ~prod:(c [ 1 ]) ~cons:(c [ 1 ]) ());
  let dl = Graph.add_channel g ~src:"DUP" ~dst:"L" ~prod:(c [ 1 ]) ~cons:(c [ 1 ]) () in
  let dr = Graph.add_channel g ~src:"DUP" ~dst:"R" ~prod:(c [ 1 ]) ~cons:(c [ 1 ]) () in
  ignore (Graph.add_control_channel g ~src:"CTL" ~dst:"DUP" ~prod:(c [ 1 ]) ~cons:(c [ 1 ]) ());
  Graph.set_modes g "DUP"
    [
      Mode.make ~outputs:(Mode.Output_subset [ dl ]) "left";
      Mode.make ~outputs:(Mode.Output_subset [ dr ]) "right";
    ];
  let eng =
    Engine.create ~graph:g ~valuation:Valuation.empty
      ~behaviors:[ ("CTL", Behavior.emit_mode (fun _ -> "left")) ]
      ~default:0 ()
  in
  let stats = Engine.run ~iterations:3 ~targets:[ ("R", 0) ] eng in
  Alcotest.(check int) "L fired" 3 (List.assoc "L" stats.Engine.firings);
  Alcotest.(check int) "R never fired" 0 (List.assoc "R" stats.Engine.firings);
  (* nothing was ever produced on the right branch *)
  Alcotest.(check int) "right branch empty" 0 (List.assoc dr stats.Engine.max_occupancy)

(* ------------------------------------------------------------------ *)
(* Mode persistence across control-rate-0 phases                       *)
(* ------------------------------------------------------------------ *)

let test_mode_persists_when_control_rate_zero () =
  (* K has two phases; the control port delivers a token only on phase 0,
     so phase 1 must reuse the mode selected for phase 0. *)
  let g = Graph.create () in
  Graph.add_kernel g "S1";
  Graph.add_kernel g "S2";
  Graph.add_kernel g ~phases:2 ~kind:Graph.Transaction "K";
  Graph.add_control g "CTL";
  Graph.add_kernel g "FEED";
  ignore (Graph.add_channel g ~src:"FEED" ~dst:"CTL" ~prod:(c [ 1 ]) ~cons:(c [ 1 ]) ());
  let s1k = Graph.add_channel g ~src:"S1" ~dst:"K" ~prod:(c [ 2 ]) ~cons:(c [ 1; 1 ]) () in
  let s2k = Graph.add_channel g ~src:"S2" ~dst:"K" ~prod:(c [ 2 ]) ~cons:(c [ 1; 1 ]) () in
  ignore
    (Graph.add_control_channel g ~src:"CTL" ~dst:"K" ~prod:(c [ 1 ]) ~cons:(c [ 1; 0 ]) ());
  Graph.set_modes g "K"
    [
      Mode.make ~inputs:(Mode.Input_subset [ s1k ]) "one";
      Mode.make ~inputs:(Mode.Input_subset [ s2k ]) "two";
    ];
  let modes_seen = ref [] in
  let behaviors =
    [
      ("CTL", Behavior.emit_mode (fun _ -> "two"));
      ( "K",
        Behavior.sink (fun ctx -> modes_seen := ctx.Behavior.mode :: !modes_seen) );
    ]
  in
  let eng = Engine.create ~graph:g ~valuation:Valuation.empty ~behaviors ~default:0 () in
  let stats = Engine.run eng in
  Alcotest.(check int) "K fired twice" 2 (List.assoc "K" stats.Engine.firings);
  Alcotest.(check (list string)) "mode persisted on phase 1" [ "two"; "two" ]
    (List.rev !modes_seen);
  (* the unselected S1 tokens were rejected *)
  Alcotest.(check int) "S1 tokens dropped" 2 (List.assoc s1k stats.Engine.dropped)

(* ------------------------------------------------------------------ *)
(* Engine guards                                                       *)
(* ------------------------------------------------------------------ *)

let test_max_events_guard () =
  let g, _, _ = pipeline () in
  let eng = Engine.create ~graph:g ~valuation:Valuation.empty ~default:0 () in
  match Engine.run ~iterations:100 ~max_events:3 eng with
  | exception Failure msg ->
      Alcotest.(check bool) "mentions budget" true (String.length msg > 10)
  | _ -> Alcotest.fail "event budget ignored"

let test_custom_init_tokens () =
  (* channel with initial tokens gets caller-provided payloads *)
  let g = Graph.create () in
  Graph.add_kernel g "SNK2";
  Graph.add_kernel g "SRC2";
  let e =
    Graph.add_channel g ~src:"SRC2" ~dst:"SNK2" ~prod:(c [ 1 ]) ~cons:(c [ 1 ])
      ~init:2 ()
  in
  let seen = ref [] in
  let behaviors =
    [
      ( "SNK2",
        Behavior.sink (fun ctx ->
            List.iter
              (fun (_, toks) -> List.iter (fun t -> seen := Token.data t :: !seen) toks)
              ctx.Behavior.inputs) );
    ]
  in
  let eng =
    Engine.create ~graph:g ~valuation:Valuation.empty ~behaviors
      ~init_token:(fun ch i ->
        Alcotest.(check int) "only channel e" e ch;
        Token.Data (100 + i))
      ~default:0 ()
  in
  (* q = [1,1]: one source firing, one sink firing; the sink's first token
     is the first initial token *)
  let (_ : Engine.stats) = Engine.run eng in
  Alcotest.(check bool) "saw an initial token" true (List.mem 100 !seen)

(* ------------------------------------------------------------------ *)
(* Trace rendering                                                     *)
(* ------------------------------------------------------------------ *)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let test_trace_gantt () =
  let _, events = traced_deadline ~period:5.0 in
  let s = Trace.gantt_of_events events in
  List.iter
    (fun a -> Alcotest.(check bool) (a ^ " row present") true (contains s a))
    [ "SRC"; "FAST"; "SLOW"; "T"; "CLK" ];
  Alcotest.(check bool) "clock tick marked" true (contains s "|");
  Alcotest.(check bool) "busy bars drawn" true (contains s "#")

let test_trace_csv () =
  let stats, events = traced_deadline ~period:5.0 in
  let s = Trace.csv_of_events events in
  let lines = String.split_on_char '\n' (String.trim s) in
  Alcotest.(check string) "header" "actor,index,phase,mode,start_ms,finish_ms"
    (List.hd lines);
  Alcotest.(check int) "one line per firing" (total_firings stats)
    (List.length lines - 1);
  Alcotest.(check bool) "mode recorded" true (contains s ",deadline,")

(* ------------------------------------------------------------------ *)
(* Typed outcomes                                                      *)
(* ------------------------------------------------------------------ *)

let test_outcome_stalled () =
  let g = Graph.create () in
  Graph.add_kernel g "X";
  Graph.add_kernel g "Y";
  ignore (Graph.add_channel g ~src:"X" ~dst:"Y" ~prod:(c [ 1 ]) ~cons:(c [ 1 ]) ());
  ignore (Graph.add_channel g ~src:"Y" ~dst:"X" ~prod:(c [ 1 ]) ~cons:(c [ 1 ]) ());
  let eng = Engine.create ~graph:g ~valuation:Valuation.empty ~default:() () in
  match Engine.run_outcome eng with
  | Engine.Stalled (s, stats) ->
      Alcotest.(check (list (pair string int))) "nothing fired"
        [ ("X", 0); ("Y", 0) ]
        stats.Engine.firings;
      Alcotest.(check int) "both actors diagnosed" 2
        (List.length s.Engine.blocked_actors);
      List.iter
        (fun (_, got, want) ->
          Alcotest.(check int) "0 completed" 0 got;
          Alcotest.(check int) "1 required" 1 want)
        s.Engine.blocked_actors;
      Alcotest.(check bool) "diagnosis renders" true
        (contains (Format.asprintf "%a" Engine.pp_stall s) "stalled")
  | _ -> Alcotest.fail "expected Stalled"

let test_outcome_budget () =
  (* a self-loop with 2 initial tokens consuming/producing 1 never finishes
     within 3 events when asked for many iterations *)
  let g = Graph.create () in
  Graph.add_kernel g "A";
  ignore (Graph.add_channel g ~src:"A" ~dst:"A" ~prod:(c [ 1 ]) ~cons:(c [ 1 ]) ~init:1 ());
  let eng = Engine.create ~graph:g ~valuation:Valuation.empty ~default:0 () in
  match Engine.run_outcome ~iterations:100 ~max_events:3 eng with
  | Engine.Budget_exceeded { steps; partial; _ } ->
      Alcotest.(check bool) "steps beyond budget" true (steps > 3);
      Alcotest.(check bool) "partial progress recorded" true
        (List.assoc "A" partial.Engine.firings > 0)
  | _ -> Alcotest.fail "expected Budget_exceeded"

let test_outcome_completed_matches_run () =
  let g, _, _ = pipeline () in
  let mk () = Engine.create ~graph:g ~valuation:Valuation.empty ~default:0 () in
  let stats = Engine.run ~iterations:2 (mk ()) in
  match Engine.run_outcome ~iterations:2 (mk ()) with
  | Engine.Completed stats' ->
      Alcotest.(check (list (pair string int))) "same firings"
        stats.Engine.firings stats'.Engine.firings
  | _ -> Alcotest.fail "expected Completed"

let test_targets_validated () =
  let g, _, _ = pipeline () in
  let check_invalid name targets =
    let eng = Engine.create ~graph:g ~valuation:Valuation.empty ~default:0 () in
    match Engine.run ~targets eng with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail (name ^ ": Invalid_argument expected")
  in
  check_invalid "unknown actor" [ ("NOPE", 1) ];
  check_invalid "negative count" [ ("MID", -1) ]

(* ------------------------------------------------------------------ *)
(* Allocation                                                          *)
(* ------------------------------------------------------------------ *)

(* Minor words per completed firing of a collector-off 100-actor chain
   run for 20 iterations, on each backend.  [Gc.minor_words] repeats
   exactly for a deterministic run, so each bound is the count measured
   when it was set (45.4 compiled, 138.7 interpreted, OCaml 5.1 on
   x86-64) plus a fixed slack of 2 words: a change that allocates more
   per firing fails here, whatever the host's speed. *)
let test_minor_words_per_firing () =
  let n = 100 and iterations = 20 in
  let g = Graph.create () in
  let name i = Printf.sprintf "K%d" i in
  for i = 0 to n - 1 do
    Graph.add_kernel g (name i)
  done;
  for i = 0 to n - 2 do
    ignore
      (Graph.add_channel g ~src:(name i) ~dst:(name (i + 1)) ~prod:(c [ 1 ])
         ~cons:(c [ 1 ]) ())
  done;
  List.iter
    (fun (backend, what, bound) ->
      let eng = Engine.create ~graph:g ~valuation:Valuation.empty ~default:0 () in
      let w0 = Gc.minor_words () in
      let stats = Engine.run ~backend ~iterations eng in
      let words = Gc.minor_words () -. w0 in
      let firings =
        List.fold_left (fun acc (_, k) -> acc + k) 0 stats.Engine.firings
      in
      Alcotest.(check int) (what ^ ": firings") (n * iterations) firings;
      let per_firing = words /. float_of_int firings in
      if per_firing > bound then
        Alcotest.failf "%s: %.2f minor words per firing, bound %.1f" what
          per_firing bound)
    [ (`Compiled, "compiled", 47.4); (`Event, "interpreter", 140.7) ]

let () =
  Alcotest.run "sim"
    [
      ( "pipeline",
        [
          Alcotest.test_case "firing counts" `Quick test_pipeline_counts;
          Alcotest.test_case "payloads" `Quick test_pipeline_payloads;
          Alcotest.test_case "runtime deadlock" `Quick test_deadlocked_runtime;
        ] );
      ( "fig2",
        [
          Alcotest.test_case "default run" `Quick test_fig2_runtime;
          Alcotest.test_case "mode switch" `Quick test_fig2_mode_switch;
        ] );
      ( "deadline",
        [
          Alcotest.test_case "tight deadline" `Quick test_deadline_picks_fast_when_tight;
          Alcotest.test_case "loose deadline" `Quick test_deadline_picks_best_when_loose;
          Alcotest.test_case "trace ordering" `Quick test_trace_is_ordered;
          Alcotest.test_case "determinism" `Quick test_determinism;
        ] );
      ( "modes",
        [
          Alcotest.test_case "fig3 validation" `Quick test_select_duplicate_runtime;
          Alcotest.test_case "fig3 default behaviours" `Quick test_fig3_default_behaviors;
          Alcotest.test_case "output subset" `Quick test_output_subset_suppresses_branch;
          Alcotest.test_case "mode persistence" `Quick test_mode_persists_when_control_rate_zero;
        ] );
      ( "guards",
        [
          Alcotest.test_case "max events" `Quick test_max_events_guard;
          Alcotest.test_case "custom init tokens" `Quick test_custom_init_tokens;
        ] );
      ( "trace",
        [
          Alcotest.test_case "gantt" `Quick test_trace_gantt;
          Alcotest.test_case "csv" `Quick test_trace_csv;
        ] );
      ( "outcome",
        [
          Alcotest.test_case "stalled diagnosis" `Quick test_outcome_stalled;
          Alcotest.test_case "budget exceeded" `Quick test_outcome_budget;
          Alcotest.test_case "completed matches run" `Quick
            test_outcome_completed_matches_run;
          Alcotest.test_case "targets validated" `Quick test_targets_validated;
        ] );
      ( "validation",
        [
          Alcotest.test_case "bad rate" `Quick test_bad_behavior_rate;
          Alcotest.test_case "until_ms" `Quick test_until_ms_cap;
        ] );
      ( "alloc",
        [
          Alcotest.test_case "minor words per firing" `Quick
            test_minor_words_per_firing;
        ] );
    ]
