(* Equivalence suite for the compiled engine (lib/sim/engine.ml) against
   [Reference_engine], a byte-for-byte snapshot of the seed engine.  The
   optimized engine must be observationally identical: same outcome
   constructor, same stats (firings, occupancy, drops, end time), the same
   trace record-for-record — the reference engine's own trace against the
   one [Trace.records_of_events] rebuilds from the optimized engine's obs
   stream — and the same tpdf_obs event stream, for every shipped graph
   under every mode scenario, and for a seeded chaos run through the
   fault supervisor.  Runs without a collector are witnessed by a
   [Firing_log] of their behaviours instead.  Also property-tests the
   binary event heap against a reference sorted list. *)

module Csdf = Tpdf_csdf
module Graph = Tpdf_core.Graph
module Serial = Tpdf_core.Serial
module Valuation = Tpdf_param.Valuation
module Sim = Tpdf_sim
module Engine = Tpdf_sim.Engine
module Behavior = Tpdf_sim.Behavior
module Heap = Tpdf_sim.Event_heap
module Obs = Tpdf_obs.Obs
module Metrics = Tpdf_obs.Metrics
module Fault = Tpdf_fault

(* ------------------------------------------------------------------ *)
(* Event heap vs reference sorted list                                 *)
(* ------------------------------------------------------------------ *)

(* Reference model: a list kept sorted by (time, seq) with FIFO ties. *)
module Model = struct
  type t = { mutable entries : (float * int * int) list; mutable seq : int }

  let create () = { entries = []; seq = 0 }

  let add m time v =
    let e = (time, m.seq, v) in
    m.seq <- m.seq + 1;
    let rec ins = function
      | [] -> [ e ]
      | ((t', s', _) as hd) :: tl ->
          if time < t' || (time = t' && m.seq - 1 < s') then e :: hd :: tl
          else hd :: ins tl
    in
    m.entries <- ins m.entries

  let pop m =
    match m.entries with
    | [] -> None
    | (t, _, v) :: tl ->
        m.entries <- tl;
        Some (t, v)
end

(* Ops use a coarse time grid so equal timestamps are frequent and the
   FIFO tie-break is actually exercised. *)
let gen_ops =
  QCheck.Gen.(
    list_size (int_range 0 200)
      (frequency
         [ (3, map (fun t -> `Add (float_of_int t /. 2.0)) (int_range 0 6));
           (2, return `Pop) ]))

let arb_ops =
  QCheck.make
    ~print:(fun ops ->
      String.concat ";"
        (List.map
           (function `Add t -> Printf.sprintf "add %.1f" t | `Pop -> "pop")
           ops))
    gen_ops

let prop_heap_matches_model =
  QCheck.Test.make ~name:"heap pops = sorted-list pops" ~count:300 arb_ops
    (fun ops ->
      let h = Heap.create () in
      let m = Model.create () in
      let k = ref 0 in
      List.for_all
        (function
          | `Add t ->
              Heap.add h t !k;
              Model.add m t !k;
              incr k;
              Heap.length h = List.length m.Model.entries
          | `Pop -> Heap.pop h = Model.pop m)
        ops
      && begin
           (* drain both fully: total order must agree to the end *)
           let rec drain () =
             let a = Heap.pop h and b = Model.pop m in
             a = b && (a = None || drain ())
           in
           drain ()
         end)

let prop_heap_fifo_ties =
  QCheck.Test.make ~name:"equal timestamps pop in insertion order" ~count:100
    QCheck.(int_range 1 300)
    (fun n ->
      let h = Heap.create () in
      for i = 0 to n - 1 do
        Heap.add h 1.0 i
      done;
      let rec check i =
        match Heap.pop h with
        | None -> i = n
        | Some (t, v) -> t = 1.0 && v = i && check (i + 1)
      in
      check 0)

(* ------------------------------------------------------------------ *)
(* Outcome comparison helpers                                          *)
(* ------------------------------------------------------------------ *)

(* The two engines declare distinct (structurally identical) record types;
   map both to tuples so polymorphic equality applies. *)
let tup_new (r : Engine.firing_record) =
  (r.Engine.actor, r.Engine.index, r.Engine.phase, r.Engine.mode,
   r.Engine.start_ms, r.Engine.finish_ms)

let tup_ref (r : Reference_engine.firing_record) =
  ( r.Reference_engine.actor,
    r.Reference_engine.index,
    r.Reference_engine.phase,
    r.Reference_engine.mode,
    r.Reference_engine.start_ms,
    r.Reference_engine.finish_ms )

let stats_new (s : Engine.stats) =
  (s.Engine.end_ms, s.Engine.firings, s.Engine.max_occupancy, s.Engine.dropped)

let stats_ref (s : Reference_engine.stats) =
  ( s.Reference_engine.end_ms,
    s.Reference_engine.firings,
    s.Reference_engine.max_occupancy,
    s.Reference_engine.dropped )

type canonical_stats =
  float * (string * int) list * (int * int) list * (int * int) list

type canonical =
  | C_completed of canonical_stats
  | C_stalled of
      (float * (string * int * int) list * (int * int) list) * canonical_stats
  | C_budget of int * float * canonical_stats
  | C_error of string

(* The reference engine's trace, from whichever stats its outcome
   carries. *)
let trace_ref = function
  | Reference_engine.Completed s
  | Reference_engine.Stalled (_, s)
  | Reference_engine.Budget_exceeded { partial = s; _ } ->
      List.map tup_ref s.Reference_engine.trace

(* The optimized engine's trace: rebuilt from its obs stream. *)
let trace_new events = List.map tup_new (Sim.Trace.records_of_events events)

let canon_new = function
  | Engine.Completed s -> C_completed (stats_new s)
  | Engine.Stalled (x, s) ->
      C_stalled
        ( (x.Engine.at_ms, x.Engine.blocked_actors, x.Engine.channel_states),
          stats_new s )
  | Engine.Budget_exceeded { steps; at_ms; partial } ->
      C_budget (steps, at_ms, stats_new partial)

let canon_ref = function
  | Reference_engine.Completed s -> C_completed (stats_ref s)
  | Reference_engine.Stalled (x, s) ->
      C_stalled
        ( ( x.Reference_engine.at_ms,
            x.Reference_engine.blocked_actors,
            x.Reference_engine.channel_states ),
          stats_ref s )
  | Reference_engine.Budget_exceeded { steps; at_ms; partial } ->
      C_budget (steps, at_ms, stats_ref partial)

let describe = function
  | C_completed (e, f, _, _) ->
      Printf.sprintf "Completed end=%.3f firings=%s" e
        (String.concat ","
           (List.map (fun (a, n) -> Printf.sprintf "%s:%d" a n) f))
  | C_stalled ((at, blocked, _), _) ->
      Printf.sprintf "Stalled at=%.3f blocked=%s" at
        (String.concat ","
           (List.map (fun (a, g, w) -> Printf.sprintf "%s:%d/%d" a g w) blocked))
  | C_budget (steps, at, _) -> Printf.sprintf "Budget steps=%d at=%.3f" steps at
  | C_error m -> "Error: " ^ m

(* ------------------------------------------------------------------ *)
(* Every shipped graph x every mode scenario                           *)
(* ------------------------------------------------------------------ *)

let graphs_dir =
  let d = "../graphs" in
  if Sys.file_exists d then d else "graphs"

(* Assign every declared parameter the same small value on both sides;
   the particular value is irrelevant to equivalence. *)
let valuation_for g =
  List.fold_left (fun v p -> Valuation.add p 2 v) Valuation.empty
    (Graph.parameters g)

let run_one_engine ~create ~run_outcome ~canon g v scenario =
  let ctrl = Sim.Reconfigure.scenario_control_behavior g scenario in
  let behaviors =
    List.filter_map
      (fun a -> if Graph.is_control g a then Some (a, ctrl) else None)
      (Graph.actors g)
  in
  let targets =
    List.map (fun a -> (a, 0)) (Sim.Reconfigure.starved_actors g scenario)
  in
  let obs = Obs.create () in
  let outcome =
    match create ~graph:g ~valuation:v ~behaviors ~obs ~default:0 () with
    | e -> (
        match run_outcome ~iterations:2 ~targets ~max_events:20_000 e with
        | o -> canon o
        | exception Engine.Error err -> C_error (Engine.error_message err)
        | exception Reference_engine.Error err ->
            C_error (Reference_engine.error_message err)
        | exception Failure m -> C_error ("failure: " ^ m))
    | exception Invalid_argument m -> C_error ("invalid: " ^ m)
  in
  (outcome, Obs.events obs)

let check_file file () =
  let path = Filename.concat graphs_dir file in
  match Serial.load path with
  | Error m -> Alcotest.fail (file ^ ": " ^ m)
  | Ok g ->
      let v = valuation_for g in
      let scenarios = Sim.Reconfigure.mode_scenarios g in
      List.iteri
        (fun i scenario ->
          let label = Printf.sprintf "%s scenario %d" file i in
          let o_new, ev_new =
            run_one_engine
              ~create:(fun ~graph ~valuation ~behaviors ~obs ~default () ->
                Engine.create ~graph ~valuation ~behaviors ~obs ~default ())
              ~run_outcome:(fun ~iterations ~targets ~max_events e ->
                Engine.run_outcome ~iterations ~targets ~max_events e)
              ~canon:canon_new g v scenario
          in
          let tr_ref = ref None in
          let o_ref, ev_ref =
            run_one_engine
              ~create:(fun ~graph ~valuation ~behaviors ~obs ~default () ->
                Reference_engine.create ~graph ~valuation ~behaviors ~obs
                  ~default ())
              ~run_outcome:(fun ~iterations ~targets ~max_events e ->
                Reference_engine.run_outcome ~iterations ~targets ~max_events e)
              ~canon:(fun o ->
                tr_ref := Some (trace_ref o);
                canon_ref o)
              g v scenario
          in
          if o_new <> o_ref then
            Alcotest.fail
              (Printf.sprintf "%s: outcome diverged\n  new: %s\n  ref: %s"
                 label (describe o_new) (describe o_ref));
          (match !tr_ref with
          | Some tr when trace_new ev_new <> tr ->
              Alcotest.fail
                (Printf.sprintf
                   "%s: trace diverged (%d records from the obs stream, %d \
                    in the reference trace)"
                   label
                   (List.length (trace_new ev_new))
                   (List.length tr))
          | _ -> ());
          Alcotest.(check int)
            (label ^ " obs event count")
            (List.length ev_ref) (List.length ev_new);
          if ev_new <> ev_ref then
            Alcotest.fail (label ^ ": tpdf_obs event streams diverged"))
        scenarios

let graph_files =
  let files = Array.to_list (Sys.readdir graphs_dir) in
  List.sort compare
    (List.filter (fun f -> Filename.check_suffix f ".tpdf") files)

(* ------------------------------------------------------------------ *)
(* Seeded chaos run through the fault supervisor                       *)
(* ------------------------------------------------------------------ *)

(* Golden numbers captured by running this exact construction against the
   seed engine (commit 00dbc53).  The supervisor, retry/skip machinery and
   seeded fault plan all sit on top of the engine, so agreement here pins
   the full stack: scheduling order, deadline arithmetic, obs streams. *)
let test_chaos_golden () =
  let g, _ = Tpdf_apps.Ofdm_app.tpdf_graph () in
  let beta = 2 and n = 8 in
  let v = Tpdf_apps.Ofdm_app.valuation ~beta ~n ~l:1 in
  let behaviors =
    List.filter_map
      (fun a ->
        if Graph.is_control g a then None
        else
          Some
            ( a,
              Behavior.fill 0 ~duration_ms:(fun _ ->
                  Tpdf_apps.Ofdm_app.model_cost_ms ~beta ~n a) ))
      (Graph.actors g)
  in
  let policy =
    Fault.Policy.make
      ~deadlines_ms:[ ("QAM", 0.05) ]
      ~degrade_after:2
      ~fallbacks:(Fault.Chaos.default_fallbacks g) ()
  in
  let specs =
    [
      Fault.Fault.spec ~target:"QAM" ~prob:0.6 (Fault.Fault.Overrun 8.0);
      Fault.Fault.spec ~target:"FFT" ~prob:0.3 (Fault.Fault.Fail 4);
      Fault.Fault.spec ~prob:0.15 (Fault.Fault.Jitter 0.02);
    ]
  in
  let obs = Obs.create () in
  let s =
    Fault.Chaos.run ~graph:g ~seed:42 ~specs ~policy ~iterations:6 ~obs
      ~behaviors ~valuation:v ()
  in
  let open Fault.Supervisor in
  Alcotest.(check int) "iterations_run" 6 s.iterations_run;
  Alcotest.(check bool) "total_end_ms" true
    (Float.abs (s.total_end_ms -. 6.300679) < 1e-5);
  Alcotest.(check int) "retries" 2 s.retries;
  Alcotest.(check int) "skips" 1 s.skips;
  Alcotest.(check int) "corrupted" 0 s.corrupted;
  Alcotest.(check int) "ctrl_lost" 0 s.ctrl_lost;
  Alcotest.(check int) "deadline_misses" 2 s.deadline_misses;
  Alcotest.(check int) "deadline_hits" 2 s.deadline_hits;
  Alcotest.(check (list (pair string string)))
    "degrades"
    [ ("DUP", "qpsk"); ("TRAN", "qpsk") ]
    s.degrades;
  Alcotest.(check (option string)) "unrecovered" None s.unrecovered;
  Alcotest.(check int) "obs events" 248 (Obs.event_count obs)

(* ------------------------------------------------------------------ *)
(* Engines sharded across domains                                      *)
(* ------------------------------------------------------------------ *)

module Pool = Tpdf_par.Pool

(* Separate engine instances may run on different domains at once: the
   serve daemon's [tick] sharding rests on this, and so does the
   supervisor's lock-free bookkeeping.  Each case runs a batch of
   independent jobs as concurrent tasks on a [domains]-domain pool.
   Every job builds its own graph, as every served tenant does, and its
   result must equal that of the same job run on the calling domain. *)
let check_sharded ~domains ~label jobs =
  let seq = List.map (fun job -> job ()) jobs in
  let pool = Pool.create ~domains in
  let par =
    Fun.protect
      ~finally:(fun () -> Pool.shutdown pool)
      (fun () -> Array.to_list (Pool.run pool (Array.of_list jobs)))
  in
  List.iteri
    (fun i (s, p) ->
      if s <> p then
        Alcotest.fail
          (Printf.sprintf "%s: job %d diverged on %d domains" label i domains))
    (List.combine seq par)

(* Every mode scenario of a shipped graph, twice over, so that even a
   one-scenario graph fills a batch. *)
let check_file_par domains file () =
  let path = Filename.concat graphs_dir file in
  let load () =
    match Serial.load path with
    | Ok g -> g
    | Error m -> Alcotest.fail (file ^ ": " ^ m)
  in
  let g = load () in
  let v = valuation_for g in
  let job scenario () =
    run_one_engine
      ~create:(fun ~graph ~valuation ~behaviors ~obs ~default () ->
        Engine.create ~graph ~valuation ~behaviors ~obs ~default ())
      ~run_outcome:(fun ~iterations ~targets ~max_events e ->
        Engine.run_outcome ~iterations ~targets ~max_events e)
      ~canon:canon_new (load ()) v scenario
  in
  check_sharded ~domains ~label:file
    (List.concat_map
       (fun scenario -> [ job scenario; job scenario ])
       (Sim.Reconfigure.mode_scenarios g))

(* Chaos through the supervisor: retries, skips, the deadline watchdog
   and mode fallback, with the wrappers' state unlocked.  Four seeds per
   batch; each summary (including per-iteration stats) and obs stream
   must not move by a byte. *)
let chaos_summary ~seed () =
  let g, _ = Tpdf_apps.Ofdm_app.tpdf_graph () in
  let beta = 2 and n = 8 in
  let v = Tpdf_apps.Ofdm_app.valuation ~beta ~n ~l:1 in
  let behaviors =
    List.filter_map
      (fun a ->
        if Graph.is_control g a then None
        else
          Some
            ( a,
              Behavior.fill 0 ~duration_ms:(fun _ ->
                  Tpdf_apps.Ofdm_app.model_cost_ms ~beta ~n a) ))
      (Graph.actors g)
  in
  let policy =
    Fault.Policy.make
      ~deadlines_ms:[ ("QAM", 0.05) ]
      ~degrade_after:2
      ~fallbacks:(Fault.Chaos.default_fallbacks g) ()
  in
  let specs =
    [
      Fault.Fault.spec ~target:"QAM" ~prob:0.6 (Fault.Fault.Overrun 8.0);
      Fault.Fault.spec ~target:"FFT" ~prob:0.3 (Fault.Fault.Fail 4);
      Fault.Fault.spec ~prob:0.15 (Fault.Fault.Jitter 0.02);
    ]
  in
  let obs = Obs.create () in
  let s =
    Fault.Chaos.run ~graph:g ~seed ~specs ~policy ~iterations:6 ~obs
      ~behaviors ~valuation:v ()
  in
  (s, Obs.events obs)

let test_chaos_par domains () =
  check_sharded ~domains ~label:"chaos"
    (List.map (fun seed -> chaos_summary ~seed) [ 42; 43; 44; 45 ])

let par_equiv_tests =
  List.concat_map
    (fun domains ->
      List.map
        (fun f ->
          Alcotest.test_case
            (Printf.sprintf "%s domains=%d" f domains)
            `Quick (check_file_par domains f))
        graph_files
      @ [
          Alcotest.test_case
            (Printf.sprintf "chaos domains=%d" domains)
            `Quick (test_chaos_par domains);
        ])
    [ 1; 2; 4 ]

(* ------------------------------------------------------------------ *)
(* until_ms: the event at the cap stays queued                         *)
(* ------------------------------------------------------------------ *)

(* The seed engine popped the first event past [until_ms] and threw it
   away (its actor stayed busy forever, its tokens were lost).  The
   compiled engine peeks instead: a capped run can be resumed and still
   complete.  This is the one sanctioned behaviour change of the rewrite. *)
let test_until_ms_keeps_event () =
  let one = Csdf.Graph.const_rates [ 1 ] in
  let g = Graph.create () in
  Graph.add_kernel g "A";
  Graph.add_kernel g "B";
  ignore (Graph.add_channel g ~src:"A" ~dst:"B" ~prod:one ~cons:one ());
  let e = Engine.create ~graph:g ~valuation:Valuation.empty ~default:0 () in
  (match Engine.run_outcome ~iterations:3 ~until_ms:1.5 e with
  | Engine.Stalled (s, partial) ->
      Alcotest.(check bool) "cut at the cap" true (s.Engine.at_ms <= 1.5);
      Alcotest.(check bool) "some progress" true
        (List.assoc "A" partial.Engine.firings >= 1)
  | _ -> Alcotest.fail "expected a Stalled outcome at the cap");
  (* resuming must find the retained events and finish the iteration *)
  match Engine.run_outcome ~iterations:3 e with
  | Engine.Completed stats ->
      Alcotest.(check (list (pair string int)))
        "all firings completed"
        [ ("A", 3); ("B", 3) ]
        stats.Engine.firings
  | o ->
      Alcotest.fail
        ("resumed run did not complete: " ^ describe (canon_new o))

(* ------------------------------------------------------------------ *)
(* Compiled static-schedule backend vs event interpreter               *)
(* ------------------------------------------------------------------ *)

(* The compiled backend replays the event heap's pop order with flat
   round FIFOs; everything observable — outcome constructor, stats,
   traces, obs event streams — must be byte-identical, for every shipped
   graph under every mode scenario (including the clocked ones, where
   the backend declines to engage and must fall through transparently). *)
let check_file_compiled file () =
  let path = Filename.concat graphs_dir file in
  match Serial.load path with
  | Error m -> Alcotest.fail (file ^ ": " ^ m)
  | Ok g ->
      let v = valuation_for g in
      let scenarios = Sim.Reconfigure.mode_scenarios g in
      List.iteri
        (fun i scenario ->
          let label = Printf.sprintf "%s scenario %d (compiled)" file i in
          let run backend =
            run_one_engine
              ~create:(fun ~graph ~valuation ~behaviors ~obs ~default () ->
                Engine.create ~graph ~valuation ~behaviors ~obs ~default ())
              ~run_outcome:(fun ~iterations ~targets ~max_events e ->
                Engine.run_outcome ~backend ~iterations ~targets ~max_events e)
              ~canon:canon_new g v scenario
          in
          let o_evt, ev_evt = run `Event in
          let o_cmp, ev_cmp = run `Compiled in
          if o_cmp <> o_evt then
            Alcotest.fail
              (Printf.sprintf "%s: outcome diverged\n  compiled: %s\n  event: %s"
                 label (describe o_cmp) (describe o_evt));
          Alcotest.(check int)
            (label ^ " obs event count")
            (List.length ev_evt) (List.length ev_cmp);
          if ev_cmp <> ev_evt then
            Alcotest.fail (label ^ ": tpdf_obs event streams diverged"))
        scenarios

(* With observability disabled the compiled backend takes its fused
   static fast path (hand-inlined consume and output check), which
   the obs-enabled variant above never reaches.  Pin the full outcome —
   stats record, and the firing log of every kernel and control actor as
   the trace — along that path too, for every graph under every
   scenario. *)
let check_file_compiled_noobs file () =
  let path = Filename.concat graphs_dir file in
  match Serial.load path with
  | Error m -> Alcotest.fail (file ^ ": " ^ m)
  | Ok g ->
      let v = valuation_for g in
      let scenarios = Sim.Reconfigure.mode_scenarios g in
      List.iteri
        (fun i scenario ->
          let label =
            Printf.sprintf "%s scenario %d (compiled, no obs)" file i
          in
          let run backend =
            let ctrl = Sim.Reconfigure.scenario_control_behavior g scenario in
            let log = Firing_log.create () in
            let behaviors =
              Firing_log.wrap_kernels log g ~default:0
                (List.filter_map
                   (fun a ->
                     if Graph.is_control g a then Some (a, ctrl) else None)
                   (Graph.actors g))
            in
            let targets =
              List.map
                (fun a -> (a, 0))
                (Sim.Reconfigure.starved_actors g scenario)
            in
            match Engine.create ~graph:g ~valuation:v ~behaviors ~default:0 ()
            with
            | e -> (
                match
                  Engine.run_outcome ~backend ~iterations:2 ~targets
                    ~max_events:20_000 e
                with
                | o -> (canon_new o, Firing_log.entries log)
                | exception Engine.Error err ->
                    (C_error (Engine.error_message err), Firing_log.entries log)
                | exception Failure m ->
                    (C_error ("failure: " ^ m), Firing_log.entries log))
            | exception Invalid_argument m -> (C_error ("invalid: " ^ m), [])
          in
          let o_evt, log_evt = run `Event in
          let o_cmp, log_cmp = run `Compiled in
          if o_cmp <> o_evt then
            Alcotest.fail
              (Printf.sprintf "%s: outcome diverged\n  compiled: %s\n  event: %s"
                 label (describe o_cmp) (describe o_evt));
          if log_cmp <> log_evt then
            Alcotest.fail
              (Printf.sprintf "%s: firing logs diverged (%d vs %d firings)"
                 label (List.length log_cmp) (List.length log_evt)))
        scenarios

(* A chain with uniform durations: the backend must actually engage
   (visible through the engine.backend gauges), and the snapshot taken
   after the run — including the heap's seq counter — must equal the
   event engine's image bit for bit, after the same firings. *)
let chain_graph n =
  let one = Csdf.Graph.const_rates [ 1 ] in
  let g = Graph.create () in
  for i = 0 to n - 1 do
    Graph.add_kernel g (Printf.sprintf "a%d" i)
  done;
  for i = 0 to n - 2 do
    ignore
      (Graph.add_channel g
         ~src:(Printf.sprintf "a%d" i)
         ~dst:(Printf.sprintf "a%d" (i + 1))
         ~prod:one ~cons:one ())
  done;
  g

let test_compiled_engages () =
  let backend_gauge backend =
    let g = chain_graph 4 in
    let obs = Obs.create () in
    let e = Engine.create ~graph:g ~valuation:Valuation.empty ~obs ~default:0 () in
    (match Engine.run_outcome ~backend ~iterations:2 e with
    | Engine.Completed _ -> ()
    | o -> Alcotest.fail ("chain did not complete: " ^ describe (canon_new o)));
    Metrics.gauge (Obs.metrics obs) "engine.backend.compiled"
  in
  Alcotest.(check (option (float 0.0)))
    "compiled gauge under `Compiled" (Some 1.0) (backend_gauge `Compiled);
  Alcotest.(check (option (float 0.0)))
    "compiled gauge under `Event" (Some 0.0) (backend_gauge `Event)

let test_compiled_snapshot_identical () =
  let image backend =
    let g = chain_graph 5 in
    let log = Firing_log.create () in
    let behaviors = Firing_log.wrap_kernels log g ~default:0 [] in
    let e =
      Engine.create ~graph:g ~valuation:Valuation.empty ~behaviors ~default:0 ()
    in
    (match Engine.run_outcome ~backend ~iterations:3 e with
    | Engine.Completed _ -> ()
    | o -> Alcotest.fail ("chain did not complete: " ^ describe (canon_new o)));
    (Engine.snapshot ~encode:string_of_int e, Firing_log.entries log)
  in
  let img_cmp, log_cmp = image `Compiled and img_evt, log_evt = image `Event in
  if img_cmp <> img_evt then
    Alcotest.fail "snapshot images diverged between backends";
  Alcotest.(check int) "every firing logged" 15 (List.length log_cmp);
  if log_cmp <> log_evt then
    Alcotest.fail "firing logs diverged between backends"

(* Snapshot under one backend, restore, continue under the other: the
   restored engine carries pending events, so `Compiled declines and the
   continuation is identical either way. *)
let test_compiled_restore_roundtrip () =
  let g = chain_graph 4 in
  let continue_with backend =
    let log = Firing_log.create () in
    let behaviors = Firing_log.wrap_kernels log g ~default:0 [] in
    let e =
      Engine.create ~graph:g ~valuation:Valuation.empty ~behaviors ~default:0 ()
    in
    (match Engine.run_outcome ~backend:`Compiled ~iterations:3 ~until_ms:1.5 e with
    | Engine.Stalled _ -> ()
    | o -> Alcotest.fail ("expected a capped stall: " ^ describe (canon_new o)));
    let snap = Engine.snapshot ~encode:string_of_int e in
    let e' =
      Engine.restore
        (Engine.compile ~graph:g ~valuation:Valuation.empty)
        ~behaviors ~default:0 ~decode:int_of_string snap
    in
    let o = canon_new (Engine.run_outcome ~backend ~iterations:3 e') in
    (o, Firing_log.entries log)
  in
  let ((c, log_c) as cmp) = continue_with `Compiled
  and evt = continue_with `Event in
  Alcotest.(check int) "every firing logged once" 12 (List.length log_c);
  (match c with
  | C_completed (_, firings, _, _) ->
      Alcotest.(check (list (pair string int)))
        "restored run completed all firings"
        [ ("a0", 3); ("a1", 3); ("a2", 3); ("a3", 3) ]
        firings
  | o -> Alcotest.fail ("restored run did not complete: " ^ describe o));
  if cmp <> evt then
    Alcotest.fail "restored continuations diverged across backends"

(* Non-uniform durations: the backend engages, then the uniformity guard
   trips mid-run and hands the pending rounds back to the heap.  The
   deoptimised run must still match the interpreter byte for byte. *)
let test_compiled_deopt_nonuniform () =
  let g = chain_graph 4 in
  let behaviors =
    List.mapi
      (fun i a ->
        (a, Behavior.fill 0 ~duration_ms:(fun _ -> 1.0 +. (0.25 *. float_of_int i))))
      [ "a0"; "a1"; "a2"; "a3" ]
  in
  let run backend =
    let obs = Obs.create () in
    let e =
      Engine.create ~graph:g ~valuation:Valuation.empty ~behaviors ~obs
        ~default:0 ()
    in
    (canon_new (Engine.run_outcome ~backend ~iterations:4 e), Obs.events obs)
  in
  let o_cmp, ev_cmp = run `Compiled and o_evt, ev_evt = run `Event in
  if o_cmp <> o_evt then
    Alcotest.fail
      (Printf.sprintf "deopt run diverged\n  compiled: %s\n  event: %s"
         (describe o_cmp) (describe o_evt));
  if ev_cmp <> ev_evt then Alcotest.fail "deopt obs streams diverged"

(* until_ms under the compiled backend: the entry at the cap is handed
   back to the heap with its original (time, seq), so a later run — on
   either backend — resumes and completes exactly like the interpreter. *)
let test_compiled_until_ms_resumes () =
  let g = chain_graph 2 in
  let e = Engine.create ~graph:g ~valuation:Valuation.empty ~default:0 () in
  (match Engine.run_outcome ~backend:`Compiled ~iterations:3 ~until_ms:1.5 e with
  | Engine.Stalled (s, partial) ->
      Alcotest.(check bool) "cut at the cap" true (s.Engine.at_ms <= 1.5);
      Alcotest.(check bool)
        "some progress" true
        (List.assoc "a0" partial.Engine.firings >= 1);
      Alcotest.(check bool)
        "events retained" true
        (Engine.pending_events e > 0)
  | o -> Alcotest.fail ("expected a capped stall: " ^ describe (canon_new o)));
  match Engine.run_outcome ~backend:`Compiled ~iterations:3 e with
  | Engine.Completed stats ->
      Alcotest.(check (list (pair string int)))
        "all firings completed"
        [ ("a0", 3); ("a1", 3) ]
        stats.Engine.firings
  | o ->
      Alcotest.fail ("resumed run did not complete: " ^ describe (canon_new o))

(* Chaos through the supervisor with backend:`Compiled — restores,
   retries, kills and non-uniform model costs all force fallback paths;
   the summary and obs stream must not move. *)
let test_compiled_chaos () =
  let run backend =
    let g, _ = Tpdf_apps.Ofdm_app.tpdf_graph () in
    let beta = 2 and n = 8 in
    let v = Tpdf_apps.Ofdm_app.valuation ~beta ~n ~l:1 in
    let behaviors =
      List.filter_map
        (fun a ->
          if Graph.is_control g a then None
          else
            Some
              ( a,
                Behavior.fill 0 ~duration_ms:(fun _ ->
                    Tpdf_apps.Ofdm_app.model_cost_ms ~beta ~n a) ))
        (Graph.actors g)
    in
    let policy =
      Fault.Policy.make
        ~deadlines_ms:[ ("QAM", 0.05) ]
        ~degrade_after:2
        ~fallbacks:(Fault.Chaos.default_fallbacks g) ()
    in
    let specs =
      [
        Fault.Fault.spec ~target:"QAM" ~prob:0.6 (Fault.Fault.Overrun 8.0);
        Fault.Fault.spec ~target:"FFT" ~prob:0.3 (Fault.Fault.Fail 4);
        Fault.Fault.spec ~prob:0.15 (Fault.Fault.Jitter 0.02);
      ]
    in
    let obs = Obs.create () in
    let s =
      Fault.Chaos.run ~graph:g ~seed:42 ~specs ~backend ~policy ~iterations:6
        ~obs ~behaviors ~valuation:v ()
    in
    (s, Obs.events obs)
  in
  let s_cmp, ev_cmp = run `Compiled and s_evt, ev_evt = run `Event in
  Alcotest.(check bool) "chaos summaries identical" true (s_cmp = s_evt);
  if ev_cmp <> ev_evt then Alcotest.fail "chaos obs streams diverged"

(* Firing counts of a completed compiled run equal the static plan:
   iterations × repetition vector (Compiled.firing_counts), on a
   multirate chain of random length and random iteration count. *)
let prop_compiled_firing_counts =
  QCheck.Test.make ~name:"compiled firing counts = iterations x q" ~count:50
    QCheck.(pair (int_range 2 6) (int_range 1 4))
    (fun (n, iterations) ->
      let g = Graph.create () in
      for i = 0 to n - 1 do
        Graph.add_kernel g (Printf.sprintf "a%d" i)
      done;
      for i = 0 to n - 2 do
        (* alternate 2:1 and 1:2 so the repetition vector is not flat *)
        let prod = Csdf.Graph.const_rates [ 1 + (i mod 2) ] in
        let cons = Csdf.Graph.const_rates [ 1 + ((i + 1) mod 2) ] in
        ignore
          (Graph.add_channel g
             ~src:(Printf.sprintf "a%d" i)
             ~dst:(Printf.sprintf "a%d" (i + 1))
             ~prod ~cons ())
      done;
      let e = Engine.create ~graph:g ~valuation:Valuation.empty ~default:0 () in
      match Engine.run_outcome ~backend:`Compiled ~iterations e with
      | Engine.Completed stats ->
          let conc =
            Csdf.Concrete.make (Graph.skeleton g) Valuation.empty
          in
          let plan =
            Sim.Compiled.firing_counts conc ~iterations (Graph.actors g)
          in
          List.sort compare stats.Engine.firings = List.sort compare plan
      | _ -> false)

(* ------------------------------------------------------------------ *)
(* Event heap growth and edge paths                                    *)
(* ------------------------------------------------------------------ *)

let test_heap_empty_edges () =
  let h : int Heap.t = Heap.create () in
  Alcotest.(check (option (float 0.0))) "peek_time empty" None (Heap.peek_time h);
  Alcotest.(check bool) "pop empty" true (Heap.pop h = None);
  Alcotest.(check bool) "is_empty" true (Heap.is_empty h);
  Alcotest.(check int) "length empty" 0 (Heap.length h);
  Alcotest.(check int) "next_seq starts at 0" 0 (Heap.next_seq h)

(* Push far past any plausible initial capacity so the backing array
   doubles several times, then verify the full pop order. *)
let test_heap_growth () =
  let h = Heap.create () in
  let n = 10_000 in
  for i = 0 to n - 1 do
    (* decreasing times: every add sifts to the root, worst case *)
    Heap.add h (float_of_int (n - i)) i
  done;
  Alcotest.(check int) "length after growth" n (Heap.length h);
  let rec check k =
    match Heap.pop h with
    | None -> Alcotest.(check int) "popped all" n k
    | Some (t, v) ->
        if t <> float_of_int (k + 1) || v <> n - 1 - k then
          Alcotest.fail
            (Printf.sprintf "pop %d: got (%g, %d), want (%d, %d)" k t v (k + 1)
               (n - 1 - k));
        check (k + 1)
  in
  check 0

let test_heap_load_out_of_order () =
  let h = Heap.create () in
  (* deliberately scrambled: ties on time resolved by seq *)
  Heap.load h ~next_seq:10
    [ (2.0, 7, "d"); (1.0, 3, "b"); (1.0, 1, "a"); (2.0, 4, "c") ];
  Alcotest.(check int) "next_seq taken from load" 10 (Heap.next_seq h);
  let order = ref [] in
  let rec drain () =
    match Heap.pop h with
    | None -> ()
    | Some (_, v) ->
        order := v :: !order;
        drain ()
  in
  drain ();
  Alcotest.(check (list string))
    "pop order is (time, seq)"
    [ "a"; "b"; "c"; "d" ]
    (List.rev !order);
  (* seq validation: an entry at/past next_seq is rejected *)
  (match Heap.load h ~next_seq:5 [ (1.0, 5, "x") ] with
  | () -> Alcotest.fail "load accepted seq >= next_seq"
  | exception Invalid_argument _ -> ());
  (* load with [] is a pure seq sync on an empty heap *)
  Heap.load h ~next_seq:42 [];
  Alcotest.(check int) "seq sync" 42 (Heap.next_seq h);
  Alcotest.(check bool) "still empty" true (Heap.is_empty h)

let compiled_equiv_tests =
  List.map
    (fun f -> Alcotest.test_case (f ^ " compiled") `Quick (check_file_compiled f))
    graph_files
  @ List.map
      (fun f ->
        Alcotest.test_case (f ^ " compiled no-obs") `Quick
          (check_file_compiled_noobs f))
      graph_files
  @ [
      Alcotest.test_case "backend gauge" `Quick test_compiled_engages;
      Alcotest.test_case "snapshot identical" `Quick
        test_compiled_snapshot_identical;
      Alcotest.test_case "restore roundtrip" `Quick
        test_compiled_restore_roundtrip;
      Alcotest.test_case "deopt on non-uniform durations" `Quick
        test_compiled_deopt_nonuniform;
      Alcotest.test_case "until_ms resumes" `Quick
        test_compiled_until_ms_resumes;
      Alcotest.test_case "chaos via supervisor" `Quick test_compiled_chaos;
      QCheck_alcotest.to_alcotest prop_compiled_firing_counts;
    ]

let () =
  Alcotest.run "engine_equiv"
    [
      ( "heap",
        [
          QCheck_alcotest.to_alcotest prop_heap_matches_model;
          QCheck_alcotest.to_alcotest prop_heap_fifo_ties;
          Alcotest.test_case "empty edges" `Quick test_heap_empty_edges;
          Alcotest.test_case "growth past capacity" `Quick test_heap_growth;
          Alcotest.test_case "load out of order" `Quick
            test_heap_load_out_of_order;
        ] );
      ( "scenarios",
        List.map
          (fun f -> Alcotest.test_case f `Quick (check_file f))
          graph_files );
      ("chaos", [ Alcotest.test_case "golden summary" `Quick test_chaos_golden ]);
      ("par-equiv", par_equiv_tests);
      ("compiled-equiv", compiled_equiv_tests);
      ( "until_ms",
        [
          Alcotest.test_case "event kept at cap" `Quick
            test_until_ms_keeps_event;
        ] );
    ]
