(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (see DESIGN.md section 2 for the experiment index E1..E17).

   Environment knobs:
     TPDF_BENCH_SIZE   image side for the Fig. 6 table (default 1024)
     TPDF_BENCH_QUOTA  seconds of measurement per Bechamel test (default 2)
     TPDF_BENCH_TRACE  directory: write Chrome trace-event JSON (Perfetto)
                       and metrics summaries for instrumented runs of the
                       example graphs there
     TPDF_BENCH_ONLY   comma-separated experiment ids (e.g. "E17"): run
                       only those experiments
     TPDF_BENCH_SMOKE  when set to 1, E17 runs reduced graph sizes (CI)
     TPDF_BENCH_OUT    output path of the E17 perf JSON
                       (default BENCH_engine.json)
     TPDF_BENCH_PARAM_OUT  output path of the E21 symbolic-kernel JSON
                       (default BENCH_param.json) *)

open Bechamel
open Toolkit
open Tpdf_core
open Tpdf_param
open Tpdf_apps
module Csdf = Tpdf_csdf
module Image = Tpdf_image.Image
module Edge = Tpdf_image.Edge
module Synthetic = Tpdf_image.Synthetic
module Platform = Tpdf_platform.Platform
module Sched = Tpdf_sched
module Engine = Tpdf_sim.Engine

let env_int name default =
  match Sys.getenv_opt name with Some v -> int_of_string v | None -> default

let env_float name default =
  match Sys.getenv_opt name with Some v -> float_of_string v | None -> default

let bench_size = env_int "TPDF_BENCH_SIZE" 1024
let bench_quota = env_float "TPDF_BENCH_QUOTA" 2.0

let bench_smoke =
  match Sys.getenv_opt "TPDF_BENCH_SMOKE" with
  | Some ("1" | "true" | "yes") -> true
  | _ -> false

(* Shared metadata block embedded in every BENCH_*.json so the numbers
   can be interpreted later (compiler, word size, how much parallelism
   the machine actually offers) without anything host-identifying. *)
let fp_metadata oc =
  let fp fmt = Printf.fprintf oc fmt in
  fp "  \"metadata\": {\n";
  fp "    \"ocaml_version\": %S,\n" Sys.ocaml_version;
  fp "    \"os_type\": %S,\n" Sys.os_type;
  fp "    \"word_size\": %d,\n" Sys.word_size;
  fp "    \"cores_detected\": %d,\n" (Tpdf_par.Pool.recommended ());
  fp "    \"tpdf_domains_env\": %s,\n"
    (match Sys.getenv_opt "TPDF_DOMAINS" with
    | Some s -> Printf.sprintf "%S" s
    | None -> "null");
  fp "    \"bench_smoke\": %b\n" bench_smoke;
  fp "  },\n"

let section id title =
  Printf.printf "\n==[ %s ]=== %s ==========================================\n" id title

(* One Bechamel measurement: estimated wall-clock per run, in ms. *)
let measure_ms name f =
  let test = Test.make ~name (Staged.stage f) in
  let cfg =
    Benchmark.cfg ~limit:300 ~quota:(Time.second bench_quota) ~kde:None ()
  in
  let raw = Benchmark.all cfg Instance.[ monotonic_clock ] test in
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  match Hashtbl.fold (fun _ v _ -> Some v) results None with
  | None -> nan
  | Some est -> (
      match Analyze.OLS.estimates est with
      | Some (ns :: _) -> ns /. 1.0e6
      | _ -> nan)

(* ------------------------------------------------------------------ *)
(* E1: Fig. 1 — CSDF example                                           *)
(* ------------------------------------------------------------------ *)

let e1_fig1 () =
  section "E1" "Fig. 1: CSDF repetition vector and schedule";
  let g = Csdf.Examples.fig1 () in
  let rep = Csdf.Repetition.solve g in
  Format.printf "%a@." Csdf.Repetition.pp rep;
  let conc = Csdf.Concrete.make g Valuation.empty in
  (match Csdf.Schedule.run ~policy:Csdf.Schedule.Late_first conc with
  | Csdf.Schedule.Complete t ->
      Format.printf "schedule: %a  (paper: (a3)^2 (a1)^3 (a2)^2)@."
        Csdf.Schedule.pp_compressed
        (Csdf.Schedule.compress t.Csdf.Schedule.firings);
      Format.printf "returns to initial state: %b@." t.Csdf.Schedule.returned_to_initial
  | Csdf.Schedule.Deadlock _ -> print_endline "UNEXPECTED DEADLOCK")

(* ------------------------------------------------------------------ *)
(* E2/E3/E4: Fig. 2 — symbolic analyses                                *)
(* ------------------------------------------------------------------ *)

let e2_fig2 () =
  section "E2-E4" "Fig. 2: parametric repetition vector, areas, rate safety";
  let { Examples.graph = g; _ } = Examples.fig2 () in
  let rep = Analysis.repetition g in
  Format.printf "%a@." Csdf.Repetition.pp rep;
  Format.printf "(paper Eq. 5: r = [2, 2p, p, p, 2p, p], q = [2, 2p, p, p, 2p, 2p])@.";
  List.iter
    (fun area -> Format.printf "%a@." Analysis.pp_area area)
    (Analysis.areas g);
  let area = Analysis.control_area g "C" in
  let qg = Analysis.local_scaling g rep area.Analysis.members in
  Format.printf "qG(Area(C)) = %a@." Poly.pp qg;
  List.iter
    (fun (a, f) -> Format.printf "  q^L(%s) = %a@." a Frac.pp f)
    (Analysis.local_solution g rep area.Analysis.members);
  Format.printf "rate safe: %b   (Definition 5)@." (Analysis.rate_safe g);
  let b = Analysis.check_boundedness g ~samples:(Liveness.default_samples g) in
  Format.printf
    "boundedness (Thm 2): consistent=%b rate_safe=%b live=%b => bounded=%b@."
    b.Analysis.consistent b.Analysis.rate_safe b.Analysis.live b.Analysis.bounded

(* ------------------------------------------------------------------ *)
(* E5: Fig. 4 — liveness by clustering and late schedules              *)
(* ------------------------------------------------------------------ *)

let e5_liveness () =
  section "E5" "Fig. 4: liveness, clustering, late schedules";
  let v = Valuation.of_list [ ("p", 3) ] in
  List.iter
    (fun (name, g) ->
      let r = Liveness.check g v in
      Format.printf "%s: %a@." name Liveness.pp_report r)
    [ ("fig4a", Examples.fig4a ()); ("fig4b", Examples.fig4b ()) ];
  let g = Examples.fig4a () in
  let rep = Analysis.repetition g in
  match Liveness.cluster_cycle g rep [ "B"; "C" ] with
  | Ok clustered ->
      Format.printf "clustered graph (Fig. 4c):@.%a@." Csdf.Graph.pp clustered;
      let rep' = Csdf.Repetition.solve clustered in
      Format.printf "clustered %a  (paper: schedule A^2 Omega^p)@."
        Csdf.Repetition.pp rep'
  | Error msg -> Printf.printf "clustering failed: %s\n" msg

(* ------------------------------------------------------------------ *)
(* E6: Fig. 5 — canonical period and multi-PE schedule                 *)
(* ------------------------------------------------------------------ *)

let e6_fig5 () =
  section "E6" "Fig. 5: canonical period of Fig. 2 at p=1, scheduled";
  let { Examples.graph = g; _ } = Examples.fig2 () in
  let conc = Csdf.Concrete.make (Graph.skeleton g) (Valuation.of_list [ ("p", 1) ]) in
  let period = Sched.Canonical_period.build conc in
  Format.printf "%a@." Sched.Canonical_period.pp period;
  let platform = Platform.uniform 4 in
  let s = Sched.List_scheduler.run ~graph:g period platform in
  print_string (Sched.Gantt.render platform s);
  Printf.printf "(C1 runs on the reserved control PE, as in the paper's Fig. 5)\n"

(* ------------------------------------------------------------------ *)
(* E7: Fig. 6 table — edge detector execution times                    *)
(* ------------------------------------------------------------------ *)

let e7_fig6_table () =
  section "E7"
    (Printf.sprintf "Fig. 6 table: edge-detector times on %dx%d (Bechamel)"
       bench_size bench_size);
  let img = Synthetic.scene ~seed:42 ~width:bench_size ~height:bench_size () in
  Printf.printf "%-12s %12s %18s\n" "detector" "measured ms"
    "paper ms (1024^2, i3)";
  let paper = function
    | Edge.Quick_mask -> "200"
    | Edge.Sobel -> "473"
    | Edge.Prewitt -> "522"
    | Edge.Kirsch -> "-"
    | Edge.Canny -> "1040"
  in
  let rows =
    List.map
      (fun d ->
        let ms = measure_ms (Edge.name d) (fun () -> ignore (Edge.run d img)) in
        Printf.printf "%-12s %12.1f %18s\n%!" (Edge.name d) ms (paper d);
        (d, ms))
      Edge.all
  in
  let find d = List.assoc d rows in
  Printf.printf
    "ordering check: quick < sobel <= prewitt < canny : %b (paper's shape)\n"
    (find Edge.Quick_mask < find Edge.Sobel
    && find Edge.Sobel <= find Edge.Prewitt +. 1e-9
    && find Edge.Prewitt < find Edge.Canny)

(* ------------------------------------------------------------------ *)
(* E8: Fig. 6 application — deadline-driven selection                  *)
(* ------------------------------------------------------------------ *)

let e8_fig6_deadline () =
  section "E8" "Fig. 6 app: Transaction selection vs. clock deadline";
  Printf.printf "deadline sweep at 1024x1024 (model timing):\n";
  List.iter
    (fun deadline ->
      let w = Edge_app.winner_at_deadline ~deadline_ms:deadline ~size:1024 () in
      Printf.printf "  %6.0f ms -> %s\n" deadline (Edge.name w))
    [ 100.0; 250.0; 500.0; 600.0; 1200.0; 2000.0 ];
  Printf.printf "(paper: at 500 ms the best result available is chosen,\n";
  Printf.printf " priority Canny > Prewitt > Sobel > Quick Mask)\n";
  let r = Edge_app.run ~size:256 ~frames:3 ~deadline_ms:75.0 () in
  Printf.printf "simulated run (256x256, 75 ms deadline, 3 frames):\n";
  List.iter
    (fun (f : Edge_app.frame_result) ->
      Printf.printf "  t=%7.1f ms  winner=%-10s edge pixels=%d\n"
        f.Edge_app.at_ms (Edge.name f.Edge_app.winner) f.Edge_app.edge_pixels)
    r.Edge_app.frames

(* ------------------------------------------------------------------ *)
(* E9: Fig. 7 — OFDM demodulator functional run                        *)
(* ------------------------------------------------------------------ *)

let e9_fig7 () =
  section "E9" "Fig. 7: OFDM demodulator (TPDF) end-to-end";
  let show m snr =
    let r = Ofdm_app.run_link ~snr_db:snr ~beta:4 ~n:512 ~l:16 ~m ~iterations:2 () in
    Printf.printf
      "  M=%d (%s)%s: %d bits, BER=%.5f, QPSK fired %d, QAM fired %d\n" m
      (if m = 2 then "QPSK" else "16-QAM")
      (match snr with None -> " noiseless" | Some s -> Printf.sprintf " @%.0fdB" s)
      r.Ofdm_app.sent_bits r.Ofdm_app.ber
      (List.assoc "QPSK" r.Ofdm_app.firings)
      (List.assoc "QAM" r.Ofdm_app.firings)
  in
  show 2 None;
  show 4 None;
  show 2 (Some 20.0);
  show 4 (Some 20.0);
  Printf.printf "(only the branch selected by the control actor CON fires)\n"

(* ------------------------------------------------------------------ *)
(* E10: Fig. 8 — minimum buffer size vs vectorization degree           *)
(* ------------------------------------------------------------------ *)

let e10_fig8 () =
  section "E10" "Fig. 8: minimum buffer size vs beta (TPDF vs CSDF)";
  Printf.printf "%5s %14s %14s %14s %14s\n" "beta" "N=512 TPDF" "N=512 CSDF"
    "N=1024 TPDF" "N=1024 CSDF";
  let betas = [ 10; 20; 30; 40; 50; 60; 70; 80; 90; 100 ] in
  List.iter
    (fun beta ->
      let t512 = (Ofdm_app.tpdf_buffers ~beta ~n:512 ~l:1).Csdf.Buffers.total in
      let c512 = (Ofdm_app.csdf_buffers ~beta ~n:512 ~l:1).Csdf.Buffers.total in
      let t1024 = (Ofdm_app.tpdf_buffers ~beta ~n:1024 ~l:1).Csdf.Buffers.total in
      let c1024 = (Ofdm_app.csdf_buffers ~beta ~n:1024 ~l:1).Csdf.Buffers.total in
      Printf.printf "%5d %14d %14d %14d %14d\n" beta t512 c512 t1024 c1024)
    betas;
  let t = (Ofdm_app.tpdf_buffers ~beta:100 ~n:1024 ~l:1).Csdf.Buffers.total in
  let c = (Ofdm_app.csdf_buffers ~beta:100 ~n:1024 ~l:1).Csdf.Buffers.total in
  Printf.printf
    "formulas: TPDF = 3 + beta*(12N+L), CSDF = beta*(17N+L) — both match the paper\n";
  Printf.printf "improvement at beta=100, N=1024: %.1f%%  (paper: 29%%)\n"
    (100.0 *. float_of_int (c - t) /. float_of_int c)

(* ------------------------------------------------------------------ *)
(* E11: performance improvement vs CSDF (schedule makespan)            *)
(* ------------------------------------------------------------------ *)

let ofdm_costs ~beta ~n (node : Sched.Canonical_period.node) =
  Ofdm_app.model_cost_ms ~beta ~n node.Sched.Canonical_period.actor

let e11_speedup () =
  section "E11" "Schedule makespan: TPDF vs CSDF OFDM on the platform model";
  Printf.printf "%5s %6s %12s %12s %9s\n" "beta" "PEs" "TPDF ms" "CSDF ms" "gain";
  List.iter
    (fun (beta, pes) ->
      let n = 512 in
      let v = Ofdm_app.valuation ~beta ~n ~l:1 in
      let tg, _ = Ofdm_app.tpdf_graph () in
      let cg, _ = Ofdm_app.csdf_graph () in
      let platform = Platform.uniform pes in
      let makespan g ~include_actor =
        let conc = Csdf.Concrete.make (Graph.skeleton g) v in
        (* four iterations in flight so the pipeline can spread over PEs *)
        let period =
          Sched.Canonical_period.build ~include_actor ~iterations:4 conc
        in
        (* no reserved control PE: on 2-4 PE platforms reserving one for
           the single CON firing would serialize every kernel *)
        (Sched.List_scheduler.run ~durations:(ofdm_costs ~beta ~n)
           ~reserve_control_pe:false ~graph:g period platform)
          .Sched.List_scheduler.makespan_ms
      in
      (* TPDF: the control decision (QPSK here) suppresses the QAM branch *)
      let t = makespan tg ~include_actor:(fun a -> a <> "QAM") in
      let c = makespan cg ~include_actor:(fun _ -> true) in
      Printf.printf "%5d %6d %12.2f %12.2f %8.1f%%\n" beta pes t c
        (100.0 *. (c -. t) /. c))
    [ (10, 2); (10, 4); (50, 2); (50, 4); (100, 2); (100, 4); (100, 8) ]

(* ------------------------------------------------------------------ *)
(* E12: FM radio — redundant work avoided by dynamic topology          *)
(* ------------------------------------------------------------------ *)

let e12_fmradio () =
  section "E12" "FM radio (StreamIt-style): TPDF avoids redundant band work";
  List.iter
    (fun profile ->
      let c = Fm_radio.compare_profiles ~bands:8 ~pes:2 profile in
      Printf.printf
        "%-7s bands: TPDF fires %d / CSDF fires %d; makespan %.2f vs %.2f ms; \
         buffers %d vs %d\n"
        (Fm_radio.profile_mode profile)
        c.Fm_radio.tpdf_band_firings c.Fm_radio.csdf_band_firings
        c.Fm_radio.tpdf_makespan_ms c.Fm_radio.csdf_makespan_ms
        c.Fm_radio.tpdf_buffers c.Fm_radio.csdf_buffers)
    [ Fm_radio.Speech; Fm_radio.Music ];
  let r = Fm_radio.run_audio Fm_radio.Speech ~iterations:4 in
  Printf.printf "functional audio run (speech): %d samples, output power %.4f\n"
    r.Fm_radio.samples r.Fm_radio.output_power

(* ------------------------------------------------------------------ *)
(* E14: video encoder — quality threshold under real-time constraints  *)
(* ------------------------------------------------------------------ *)

let e14_video () =
  section "E14" "AVC-style front end: motion-estimation quality vs deadline";
  Printf.printf "per-estimator residual on a synthetic pan (128x128):\n";
  List.iter
    (fun (e, r) ->
      Printf.printf "  %-12s residual %8.2f  (model cost %6.1f ms)\n"
        (Video_app.estimator_name e) r
        (Video_app.model_duration_ms e ~size:128 ~block:16 ~range:7))
    (Video_app.residual_by_estimator ~size:128 ());
  Printf.printf "deadline sweep (Transaction picks best available field):\n";
  List.iter
    (fun deadline ->
      let r = Video_app.run ~frames:1 ~deadline_ms:deadline () in
      match r.Video_app.frames with
      | [ f ] ->
          Printf.printf "  %6.0f ms -> %-12s residual %8.2f\n" deadline
            (Video_app.estimator_name f.Video_app.chosen)
            f.Video_app.residual
      | _ -> Printf.printf "  %6.0f ms -> (no frame)\n" deadline)
    [ 8.0; 20.0; 60.0; 150.0 ];
  Printf.printf
    "(the §V claim: highest quality available within real-time constraints)\n"

(* ------------------------------------------------------------------ *)
(* E15: ablations — scheduling policies and steady-state throughput    *)
(* ------------------------------------------------------------------ *)

let e15_ablation () =
  section "E15" "Ablations: buffer policies and pipelined throughput";
  (* sequential-schedule policy vs buffer total on a multirate graph *)
  let { Examples.graph = fig2b; _ } = Examples.fig2 () in
  let v = Valuation.of_list [ ("p", 8) ] in
  Printf.printf "buffer totals by scheduling policy (fig2, p=8):\n";
  List.iter
    (fun (name, policy) ->
      let r = Buffers.analyze ~policy fig2b v ~scenario:[ ("F", "take_e6") ] in
      Printf.printf "  %-10s %8d tokens\n" name r.Csdf.Buffers.total)
    [
      ("eager", Csdf.Schedule.Eager);
      ("late", Csdf.Schedule.Late_first);
      ("min-buffer", Csdf.Schedule.Min_buffer);
    ];
  (* exact back-pressure minimum vs the occupancy heuristic *)
  Printf.printf "minimum buffers, occupancy heuristic vs back-pressure search:\n";
  List.iter
    (fun (name, conc) ->
      let occ = (Csdf.Buffers.analyze conc).Csdf.Buffers.total in
      let bp = (Csdf.Bounded.minimize conc).Csdf.Bounded.total in
      Printf.printf "  %-18s occupancy %5d   back-pressure %5d\n" name occ bp)
    [
      ("fig1", Csdf.Concrete.make (Csdf.Examples.fig1 ()) Valuation.empty);
      ( "fig2 (p=8)",
        Csdf.Concrete.make
          (Graph.skeleton (Examples.fig2 ()).Examples.graph)
          (Valuation.of_list [ ("p", 8) ]) );
    ];
  (* steady-state iteration period of fig2 vs PE count *)
  let { Examples.graph = fig2; _ } = Examples.fig2 () in
  let conc =
    Csdf.Concrete.make (Graph.skeleton fig2) (Valuation.of_list [ ("p", 4) ])
  in
  Printf.printf "fig2 steady-state iteration period (p=4):\n";
  List.iter
    (fun pes ->
      let period =
        Sched.Throughput.iteration_period_ms ~graph:fig2 conc
          (Platform.uniform pes)
      in
      Printf.printf "  %2d PEs: %6.2f ms/iteration\n" pes period)
    [ 1; 2; 4; 8 ];
  Printf.printf "  intrinsic bound (max cycle ratio): %.2f ms/iteration\n"
    (Sched.Mcr.iteration_period_ms (Sched.Mcr.build conc));
  (* mcr.solve wall time: the tpdf_obs gauge (one instrumented solve)
     next to a Bechamel estimate of the dense-array solver, so the
     instrumentation overhead and the real cost stay comparable. *)
  let mcr_t = Sched.Mcr.build conc in
  let obs = Tpdf_obs.Obs.create () in
  ignore (Sched.Mcr.iteration_period_ms ~obs mcr_t);
  let observed =
    match
      Tpdf_obs.Metrics.histogram (Tpdf_obs.Obs.metrics obs) "mcr.solve_ms"
    with
    | Some h -> h.Tpdf_obs.Metrics.sum
    | None -> nan
  in
  let measured =
    measure_ms "mcr.solve" (fun () ->
        ignore (Sched.Mcr.iteration_period_ms mcr_t))
  in
  Printf.printf
    "  mcr.solve wall time: obs gauge %.4f ms, bechamel %.4f ms (dense arrays)\n"
    observed measured

(* ------------------------------------------------------------------ *)
(* E16: resilience sweep — seeded chaos on the OFDM demodulator        *)
(* ------------------------------------------------------------------ *)

module Fault = Tpdf_fault

let e16_resilience () =
  section "E16"
    "Resilience: seeded fault injection on the OFDM demodulator (lib/fault)";
  let g, _ = Ofdm_app.tpdf_graph () in
  let beta = 2 and n = 8 in
  let v = Ofdm_app.valuation ~beta ~n ~l:1 in
  let behaviors =
    List.filter_map
      (fun a ->
        if Graph.is_control g a then None
        else
          Some
            ( a,
              Tpdf_sim.Behavior.fill 0
                ~duration_ms:(fun _ -> Ofdm_app.model_cost_ms ~beta ~n a) ))
      (Graph.actors g)
  in
  (* QAM (0.0128 ms/firing here) against a 0.05 ms deadline: an x8 overrun
     misses it, two consecutive misses degrade DUP and TRAN to QPSK. *)
  let policy =
    Fault.Policy.make
      ~deadlines_ms:[ ("QAM", 0.05) ]
      ~degrade_after:2
      ~fallbacks:(Fault.Chaos.default_fallbacks g) ()
  in
  Printf.printf "%5s %8s %6s %7s %7s %9s %9s %10s\n" "prob" "retries" "skips"
    "misses" "degr." "hit%" "end ms" "recovered";
  List.iter
    (fun prob ->
      let specs =
        if prob = 0.0 then []
        else
          [
            Fault.Fault.spec ~target:"QAM" ~prob (Fault.Fault.Overrun 8.0);
            Fault.Fault.spec ~target:"FFT" ~prob:(prob /. 2.0)
              (Fault.Fault.Fail 4);
            Fault.Fault.spec ~prob:(prob /. 4.0) (Fault.Fault.Jitter 0.02);
          ]
      in
      let s =
        Fault.Chaos.run ~graph:g ~seed:42 ~specs ~policy ~iterations:8
          ~behaviors ~valuation:v ()
      in
      let open Fault.Supervisor in
      let checks = s.deadline_hits + s.deadline_misses in
      Printf.printf "%5.2f %8d %6d %7d %7d %8.1f%% %9.3f %10s\n" prob
        s.retries s.skips s.deadline_misses
        (List.length s.degrades)
        (if checks = 0 then 100.0
         else 100.0 *. float_of_int s.deadline_hits /. float_of_int checks)
        s.total_end_ms
        (if Fault.Chaos.recovered s then "yes" else "NO"))
    [ 0.0; 0.3; 0.6; 0.9 ]

(* ------------------------------------------------------------------ *)
(* Analysis-cost microbenchmarks (ablation)                            *)
(* ------------------------------------------------------------------ *)

let e13_analysis_cost () =
  section "E13" "Analysis cost: the static checks are cheap (Bechamel)";
  let { Examples.graph = fig2; _ } = Examples.fig2 () in
  let og, _ = Ofdm_app.tpdf_graph () in
  let rows =
    [
      ("fig2 repetition", fun () -> ignore (Analysis.repetition fig2));
      ("fig2 rate-safety", fun () -> ignore (Analysis.rate_safe fig2));
      ( "fig2 liveness p=5",
        fun () ->
          ignore (Liveness.is_live fig2 (Valuation.of_list [ ("p", 5) ])) );
      ("ofdm repetition", fun () -> ignore (Analysis.repetition og));
      ("ofdm rate-safety", fun () -> ignore (Analysis.rate_safe og));
      ( "ofdm buffers b=100",
        fun () -> ignore (Ofdm_app.tpdf_buffers ~beta:100 ~n:1024 ~l:1) );
    ]
  in
  List.iter
    (fun (name, f) ->
      let ms = measure_ms name f in
      Printf.printf "%-22s %10.4f ms\n%!" name ms)
    rows

(* ------------------------------------------------------------------ *)
(* E17: engine hot-path throughput on synthetic graphs                 *)
(* ------------------------------------------------------------------ *)

(* Synthetic topologies exercising the discrete-event engine at scales the
   paper graphs never reach (1e2..1e4 actors, 1e5+ events).  All rates are
   1 so the repetition vector is trivially all-ones and every completion
   costs exactly one engine event. *)

let one = Csdf.Graph.const_rates [ 1 ]

let synth_chain n =
  let g = Graph.create () in
  for i = 0 to n - 1 do
    Graph.add_kernel g (Printf.sprintf "K%d" i)
  done;
  for i = 0 to n - 2 do
    ignore
      (Graph.add_channel g
         ~src:(Printf.sprintf "K%d" i)
         ~dst:(Printf.sprintf "K%d" (i + 1))
         ~prod:one ~cons:one ())
  done;
  g

let synth_fan n =
  (* one source feeding n-1 independent sinks *)
  let g = Graph.create () in
  Graph.add_kernel g "SRC";
  for i = 1 to n - 1 do
    let a = Printf.sprintf "S%d" i in
    Graph.add_kernel g a;
    ignore (Graph.add_channel g ~src:"SRC" ~dst:a ~prod:one ~cons:one ())
  done;
  g

let synth_grid w h =
  (* h layers of w actors; each actor feeds straight-down and down-right
     (wrapping), so interior actors have two inputs and two outputs *)
  let g = Graph.create () in
  let name i j = Printf.sprintf "G%d_%d" i j in
  for i = 0 to h - 1 do
    for j = 0 to w - 1 do
      Graph.add_kernel g (name i j)
    done
  done;
  for i = 0 to h - 2 do
    for j = 0 to w - 1 do
      ignore
        (Graph.add_channel g ~src:(name i j) ~dst:(name (i + 1) j) ~prod:one
           ~cons:one ());
      ignore
        (Graph.add_channel g
           ~src:(name i j)
           ~dst:(name (i + 1) ((j + 1) mod w))
           ~prod:one ~cons:one ())
    done
  done;
  g

type e17_run = {
  graph_name : string;
  actors : int;
  iterations : int;
  events : int;
  wall_ms : float;
  events_per_sec : float;
  peak_heap_words : int;
  compiled_wall_ms : float;
  compiled_events_per_sec : float;
  compiled_vs_interpreted : float;
}

(* One timed run on a fresh engine.  [Gc.compact] first: it returns the
   heap to the live set, so [heap_words] after the run measures only
   this run's growth.  ([top_heap_words] is a process-lifetime high-water
   mark — using it reported the cumulative maximum of all earlier
   benchmarks, identical for every row.) *)
let e17_time_backend ~backend ~iterations g =
  let eng = Engine.create ~graph:g ~valuation:Valuation.empty ~default:0 () in
  Gc.compact ();
  let t0 = Tpdf_obs.Obs.now_wall_ms () in
  let stats = Engine.run ~backend ~iterations ~max_events:10_000_000 eng in
  let wall_ms = Tpdf_obs.Obs.now_wall_ms () -. t0 in
  let peak_heap_words = (Gc.quick_stat ()).Gc.heap_words in
  (stats, wall_ms, peak_heap_words)

(* Interleaved min-of-N: alternating the backends and taking each one's
   best repetition cancels GC-state and warm-up order bias — timing the
   pair back to back once systematically penalised whichever ran second. *)
let e17_reps = 3

let e17_run_one ~graph_name ~iterations g =
  let actors = List.length (Graph.actors g) in
  let stats, wall_ms, peak_heap_words =
    e17_time_backend ~backend:`Event ~iterations g
  in
  let _, compiled_wall_ms, _ =
    e17_time_backend ~backend:`Compiled ~iterations g
  in
  let wall_ms = ref wall_ms and compiled_wall_ms = ref compiled_wall_ms in
  for _ = 2 to e17_reps do
    let _, w, _ = e17_time_backend ~backend:`Event ~iterations g in
    if w < !wall_ms then wall_ms := w;
    let _, w, _ = e17_time_backend ~backend:`Compiled ~iterations g in
    if w < !compiled_wall_ms then compiled_wall_ms := w
  done;
  let wall_ms = !wall_ms and compiled_wall_ms = !compiled_wall_ms in
  let events =
    List.fold_left (fun acc (_, n) -> acc + n) 0 stats.Engine.firings
  in
  let per_sec wall =
    if wall <= 0.0 then 0.0 else 1000.0 *. float_of_int events /. wall
  in
  {
    graph_name;
    actors;
    iterations;
    events;
    wall_ms;
    events_per_sec = per_sec wall_ms;
    peak_heap_words;
    compiled_wall_ms;
    compiled_events_per_sec = per_sec compiled_wall_ms;
    compiled_vs_interpreted =
      (if compiled_wall_ms <= 0.0 then 0.0 else wall_ms /. compiled_wall_ms);
  }

(* Seed-engine throughput on the 1e3-actor chain (commit 00dbc53, same
   workload, same machine class): the pre-PR number every BENCH_engine.json
   reports as [baseline] so the trajectory keeps its origin. *)
let e17_baseline_chain_1e3_events_per_sec = 2544.0

let e17_engine () =
  section "E17" "Engine throughput: synthetic chain / fan / grid graphs";
  let smoke = bench_smoke in
  let configs =
    if smoke then
      [
        ("chain", synth_chain 100, 20);
        ("fan", synth_fan 100, 20);
        ("grid", synth_grid 10 10, 20);
      ]
    else
      [
        ("chain", synth_chain 100, 1000);
        ("chain", synth_chain 1000, 100);
        ("chain", synth_chain 10_000, 10);
        ("fan", synth_fan 1000, 100);
        ("fan", synth_fan 10_000, 10);
        ("fan", synth_fan 100_000, 5);
        ("grid", synth_grid 32 32, 100);
        ("grid", synth_grid 100 100, 10);
        ("grid", synth_grid 100 1000, 5);
      ]
  in
  Printf.printf "%-6s %8s %6s %9s %10s %14s %12s %14s %9s\n" "graph" "actors"
    "iter" "events" "wall ms" "events/sec" "heap words" "compiled e/s"
    "cmp/int";
  let runs =
    List.map
      (fun (graph_name, g, iterations) ->
        let r = e17_run_one ~graph_name ~iterations g in
        Printf.printf "%-6s %8d %6d %9d %10.1f %14.0f %12d %14.0f %8.2fx\n%!"
          r.graph_name r.actors r.iterations r.events r.wall_ms
          r.events_per_sec r.peak_heap_words r.compiled_events_per_sec
          r.compiled_vs_interpreted;
        r)
      configs
  in
  let chain_1e3 =
    List.find_opt (fun r -> r.graph_name = "chain" && r.actors = 1000) runs
  in
  let speedup =
    match chain_1e3 with
    | Some r when e17_baseline_chain_1e3_events_per_sec > 0.0 ->
        r.events_per_sec /. e17_baseline_chain_1e3_events_per_sec
    | _ -> 0.0
  in
  (match chain_1e3 with
  | Some r when e17_baseline_chain_1e3_events_per_sec > 0.0 ->
      Printf.printf "chain-1e3 speedup vs seed engine baseline: %.1fx\n"
        (r.events_per_sec /. e17_baseline_chain_1e3_events_per_sec)
  | _ -> ());
  let out =
    match Sys.getenv_opt "TPDF_BENCH_OUT" with
    | Some p -> p
    | None -> "BENCH_engine.json"
  in
  let oc = open_out out in
  let fp fmt = Printf.fprintf oc fmt in
  fp "{\n";
  fp "  \"experiment\": \"E17\",\n";
  fp "  \"smoke\": %b,\n" smoke;
  fp_metadata oc;
  fp "  \"baseline\": {\n";
  fp "    \"engine\": \"seed (pre-compiled-tables, sorted-list Eq, global rescan)\",\n";
  fp "    \"graph\": \"chain\",\n";
  fp "    \"actors\": 1000,\n";
  fp "    \"events_per_sec\": %.0f\n" e17_baseline_chain_1e3_events_per_sec;
  fp "  },\n";
  fp "  \"speedup_chain_1e3_vs_baseline\": %.2f,\n" speedup;
  fp "  \"runs\": [\n";
  List.iteri
    (fun i r ->
      fp
        "    { \"graph\": %S, \"actors\": %d, \"iterations\": %d, \"events\": \
         %d, \"wall_ms\": %.3f, \"events_per_sec\": %.1f, \
         \"peak_heap_words\": %d, \"compiled_wall_ms\": %.3f, \
         \"compiled_events_per_sec\": %.1f, \"compiled_vs_interpreted\": \
         %.2f }%s\n"
        r.graph_name r.actors r.iterations r.events r.wall_ms r.events_per_sec
        r.peak_heap_words r.compiled_wall_ms r.compiled_events_per_sec
        r.compiled_vs_interpreted
        (if i = List.length runs - 1 then "" else ","))
    runs;
  fp "  ]\n";
  fp "}\n";
  close_out oc;
  Printf.printf "wrote %s\n" out

(* ------------------------------------------------------------------ *)
(* E18: multicore scaling — domain sweep over kernels and engine       *)
(* ------------------------------------------------------------------ *)

module Pool = Tpdf_par.Pool

type e18_edge_run = {
  detector : string;
  side : int;
  e_domains : int;
  e_wall_ms : float;
  mpix_per_sec : float;
}

type e18_engine_run = {
  g_name : string;
  g_actors : int;
  g_domains : int;
  g_events : int;
  g_wall_ms : float;
  g_events_per_sec : float;
}

let e18_time f =
  let t0 = Tpdf_obs.Obs.now_wall_ms () in
  f ();
  Tpdf_obs.Obs.now_wall_ms () -. t0

let e18_par () =
  section "E18" "Multicore scaling: domain sweep over kernels and engine";
  let smoke = bench_smoke in
  let cores = Pool.recommended () in
  let domain_counts = if smoke then [ 1; 2 ] else [ 1; 2; 4; 8 ] in
  Printf.printf "cores detected: %d; sweeping domains in {%s}\n" cores
    (String.concat "," (List.map string_of_int domain_counts));
  (* -- data-parallel kernels: edge detection ----------------------- *)
  let sides = if smoke then [ 256 ] else [ 1024; 2048 ] in
  let detectors = [ Edge.Prewitt; Edge.Canny ] in
  Printf.printf "%-10s %6s %8s %10s %12s %9s\n" "detector" "side" "domains"
    "wall ms" "Mpixel/s" "speedup";
  let edge_runs =
    List.concat_map
      (fun side ->
        let img = Synthetic.scene ~seed:42 ~width:side ~height:side () in
        List.concat_map
          (fun d ->
            let base = ref nan in
            List.map
              (fun domains ->
                let pool = Pool.create ~domains in
                let wall =
                  Fun.protect
                    ~finally:(fun () -> Pool.shutdown pool)
                    (fun () ->
                      e18_time (fun () -> ignore (Edge.run ~pool d img)))
                in
                if domains = 1 then base := wall;
                let mpix =
                  float_of_int (side * side) /. 1.0e6 /. (wall /. 1000.0)
                in
                Printf.printf "%-10s %6d %8d %10.1f %12.2f %8.2fx\n%!"
                  (Edge.name d) side domains wall mpix (!base /. wall);
                {
                  detector = Edge.name d;
                  side;
                  e_domains = domains;
                  e_wall_ms = wall;
                  mpix_per_sec = mpix;
                })
              domain_counts)
          detectors)
      sides
  in
  (* -- engine: parallel ready-set firing on the E17 graphs ---------- *)
  (* The fan graph has the widest same-instant ready sets, so it is the
     topology where parallel firing can pay; the chain bounds the
     orchestration overhead (ready sets of one actor). *)
  let configs =
    if smoke then
      [ ("chain", synth_chain 100, 20); ("fan", synth_fan 100, 20) ]
    else
      [
        ("chain", synth_chain 1000, 100);
        ("fan", synth_fan 1000, 100);
        ("grid", synth_grid 32 32, 100);
      ]
  in
  Printf.printf "%-6s %8s %8s %9s %10s %14s %9s\n" "graph" "actors" "domains"
    "events" "wall ms" "events/sec" "speedup";
  let engine_runs =
    List.concat_map
      (fun (g_name, g, iterations) ->
        let actors = List.length (Graph.actors g) in
        let base = ref nan in
        List.map
          (fun domains ->
            let pool = Pool.create ~domains in
            Fun.protect
              ~finally:(fun () -> Pool.shutdown pool)
              (fun () ->
                let eng =
                  Engine.create ~graph:g ~valuation:Valuation.empty
                    ~pool ~default:0 ()
                in
                let events = ref 0 in
                let wall =
                  e18_time (fun () ->
                      let stats =
                        Engine.run ~iterations ~max_events:10_000_000 eng
                      in
                      events :=
                        List.fold_left
                          (fun acc (_, n) -> acc + n)
                          0 stats.Engine.firings)
                in
                if domains = 1 then base := wall;
                let eps =
                  if wall <= 0.0 then 0.0
                  else 1000.0 *. float_of_int !events /. wall
                in
                Printf.printf "%-6s %8d %8d %9d %10.1f %14.0f %8.2fx\n%!"
                  g_name actors domains !events wall eps (!base /. wall);
                {
                  g_name;
                  g_actors = actors;
                  g_domains = domains;
                  g_events = !events;
                  g_wall_ms = wall;
                  g_events_per_sec = eps;
                }))
          domain_counts)
      configs
  in
  (* -- BENCH_par.json ---------------------------------------------- *)
  let out =
    match Sys.getenv_opt "TPDF_BENCH_PAR_OUT" with
    | Some p -> p
    | None -> "BENCH_par.json"
  in
  let speedup_of ~wall_1 wall = if wall > 0.0 then wall_1 /. wall else 0.0 in
  let oc = open_out out in
  let fp fmt = Printf.fprintf oc fmt in
  fp "{\n";
  fp "  \"experiment\": \"E18\",\n";
  fp "  \"smoke\": %b,\n" smoke;
  fp_metadata oc;
  fp "  \"domain_sweep\": [%s],\n"
    (String.concat ", " (List.map string_of_int domain_counts));
  fp "  \"note\": %S,\n"
    (if cores < 4 then
       Printf.sprintf
         "machine exposes %d core(s): pool domains beyond that time-share \
          one core, so speedup is bounded near 1.0x regardless of domain \
          count; the determinism contract (bit-identical results at any \
          domain count) is what these runs certify here. See EXPERIMENTS.md \
          E18."
         cores
     else
       "speedup is wall_ms at 1 domain divided by wall_ms at d domains, \
        same workload");
  fp "  \"edge\": [\n";
  List.iteri
    (fun i r ->
      let wall_1 =
        (List.find
           (fun r' ->
             r'.detector = r.detector && r'.side = r.side && r'.e_domains = 1)
           edge_runs)
          .e_wall_ms
      in
      fp
        "    { \"detector\": %S, \"side\": %d, \"domains\": %d, \"wall_ms\": \
         %.3f, \"mpix_per_sec\": %.3f, \"speedup_vs_1\": %.3f }%s\n"
        r.detector r.side r.e_domains r.e_wall_ms r.mpix_per_sec
        (speedup_of ~wall_1 r.e_wall_ms)
        (if i = List.length edge_runs - 1 then "" else ","))
    edge_runs;
  fp "  ],\n";
  fp "  \"engine\": [\n";
  List.iteri
    (fun i r ->
      let wall_1 =
        (List.find
           (fun r' -> r'.g_name = r.g_name && r'.g_domains = 1)
           engine_runs)
          .g_wall_ms
      in
      fp
        "    { \"graph\": %S, \"actors\": %d, \"domains\": %d, \"events\": \
         %d, \"wall_ms\": %.3f, \"events_per_sec\": %.1f, \"speedup_vs_1\": \
         %.3f }%s\n"
        r.g_name r.g_actors r.g_domains r.g_events r.g_wall_ms
        r.g_events_per_sec
        (speedup_of ~wall_1 r.g_wall_ms)
        (if i = List.length engine_runs - 1 then "" else ","))
    engine_runs;
  fp "  ]\n";
  fp "}\n";
  close_out oc;
  Printf.printf "wrote %s\n" out

(* ------------------------------------------------------------------ *)
(* E19: checkpoint overhead — period sweep over snapshot + persist     *)
(* ------------------------------------------------------------------ *)

module Ckpt = Tpdf_ckpt.Ckpt

type e19_run = {
  c_graph : string;
  c_period : int; (* 0 = checkpointing off *)
  c_events : int;
  c_wall_ms : float;
  c_events_per_sec : float;
  c_checkpoints : int;
  c_snapshot_bytes : int; (* serialized size of the final checkpoint *)
  c_restore_ms : float; (* read + verify + Engine.restore of that file *)
}

let e19_ckpt () =
  section "E19" "Checkpoint overhead: period sweep (off, 1, 10, 100)";
  let smoke = bench_smoke in
  let iterations = if smoke then 20 else 100 in
  let configs =
    if smoke then [ ("chain", synth_chain 100); ("fan", synth_fan 100) ]
    else [ ("chain", synth_chain 1000); ("fan", synth_fan 1000) ]
  in
  let periods = [ 0; 1; 10; 100 ] in
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "tpdf-e19-%d" (Unix.getpid ()))
  in
  let cleanup () =
    if Sys.file_exists dir then begin
      Array.iter
        (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
        (Sys.readdir dir);
      try Sys.rmdir dir with Sys_error _ -> ()
    end
  in
  Printf.printf "%-6s %8s %9s %10s %14s %6s %9s %11s %11s\n" "graph" "period"
    "events" "wall ms" "events/sec" "ckpts" "bytes" "restore ms" "overhead";
  let make_file g v eng =
    {
      Ckpt.kind = "run";
      meta = [ ("experiment", "E19") ];
      graph_src = Serial.to_string g;
      valuation = Valuation.bindings v;
      snapshot = Some (Engine.snapshot ~encode:string_of_int eng);
    }
  in
  let runs =
    List.concat_map
      (fun (c_graph, g) ->
        let v = Valuation.empty in
        let base = ref nan in
        List.map
          (fun c_period ->
            cleanup ();
            let store = Ckpt.Store.open_dir dir in
            let eng = Engine.create ~graph:g ~valuation:v ~default:0 () in
            let events = ref 0 in
            let ckpts = ref 0 in
            let run_to target =
              match
                Engine.run_outcome ~iterations:target ~max_events:10_000_000
                  eng
              with
              | Engine.Completed stats ->
                  events :=
                    List.fold_left (fun a (_, n) -> a + n) 0 stats.Engine.firings
              | _ -> failwith "E19 workload did not complete"
            in
            let wall =
              e18_time (fun () ->
                  if c_period = 0 then run_to iterations
                  else begin
                    let i = ref 0 in
                    while !i < iterations do
                      i := min iterations (!i + c_period);
                      run_to !i;
                      ignore
                        (Ckpt.Store.save store ~seq:!i (make_file g v eng));
                      incr ckpts
                    done
                  end)
            in
            if c_period = 0 then base := wall;
            (* final checkpoint: size on disk and restore latency *)
            let final = Ckpt.to_string (make_file g v eng) in
            let c_snapshot_bytes = String.length final in
            let path = Ckpt.Store.save store ~seq:(iterations + 1) (make_file g v eng) in
            let t0 = Tpdf_obs.Obs.now_wall_ms () in
            let c_restore_ms =
              match Ckpt.read path with
              | Error m -> failwith ("E19 restore: " ^ m)
              | Ok f -> (
                  match Serial.of_string f.Ckpt.graph_src with
                  | Error m -> failwith ("E19 graph re-parse: " ^ m)
                  | Ok g' ->
                      ignore
                        (Engine.restore ~graph:g'
                           ~valuation:(Valuation.of_list f.Ckpt.valuation)
                           ~default:0 ~decode:int_of_string
                           (Option.get f.Ckpt.snapshot));
                      Tpdf_obs.Obs.now_wall_ms () -. t0)
            in
            let eps =
              if wall <= 0.0 then 0.0
              else 1000.0 *. float_of_int !events /. wall
            in
            Printf.printf "%-6s %8s %9d %10.1f %14.0f %6d %9d %11.2f %10.2fx\n%!"
              c_graph
              (if c_period = 0 then "off" else string_of_int c_period)
              !events wall eps !ckpts c_snapshot_bytes c_restore_ms
              (wall /. !base);
            {
              c_graph;
              c_period;
              c_events = !events;
              c_wall_ms = wall;
              c_events_per_sec = eps;
              c_checkpoints = !ckpts;
              c_snapshot_bytes;
              c_restore_ms;
            })
          periods)
      configs
  in
  cleanup ();
  let out =
    match Sys.getenv_opt "TPDF_BENCH_CKPT_OUT" with
    | Some p -> p
    | None -> "BENCH_ckpt.json"
  in
  let oc = open_out out in
  let fp fmt = Printf.fprintf oc fmt in
  fp "{\n";
  fp "  \"experiment\": \"E19\",\n";
  fp "  \"smoke\": %b,\n" smoke;
  fp_metadata oc;
  fp "  \"iterations\": %d,\n" iterations;
  fp "  \"periods\": [%s],\n"
    (String.concat ", " (List.map string_of_int periods));
  fp "  \"note\": %S,\n"
    "period 0 is checkpointing off; overhead_vs_off is wall_ms divided by \
     the same graph's period-off wall_ms.  Checkpoints are full crash-\
     consistent writes (temp + fsync + rename) of graph source, valuation \
     and engine snapshot.  Chunked driving at small periods also imposes \
     iteration barriers, so the overhead includes lost source run-ahead, \
     not just serialization.";
  fp "  \"runs\": [\n";
  List.iteri
    (fun i r ->
      let wall_off =
        (List.find (fun r' -> r'.c_graph = r.c_graph && r'.c_period = 0) runs)
          .c_wall_ms
      in
      fp
        "    { \"graph\": %S, \"period\": %d, \"events\": %d, \"wall_ms\": \
         %.3f, \"events_per_sec\": %.1f, \"checkpoints\": %d, \
         \"snapshot_bytes\": %d, \"restore_ms\": %.3f, \"overhead_vs_off\": \
         %.3f }%s\n"
        r.c_graph r.c_period r.c_events r.c_wall_ms r.c_events_per_sec
        r.c_checkpoints r.c_snapshot_bytes r.c_restore_ms
        (if wall_off > 0.0 then r.c_wall_ms /. wall_off else 0.0)
        (if i = List.length runs - 1 then "" else ","))
    runs;
  fp "  ]\n";
  fp "}\n";
  close_out oc;
  Printf.printf "wrote %s\n" out

(* ------------------------------------------------------------------ *)
(* E20: telemetry overhead — collector off vs sampled vs full          *)
(* ------------------------------------------------------------------ *)

module Ring = Tpdf_obs.Ring

type e20_run = {
  t_graph : string;
  t_actors : int;
  t_iterations : int;
  t_mode : string; (* "off" | "sampled" | "full" *)
  t_events : int; (* completed firings *)
  t_wall_ms : float; (* best of the repetitions *)
  t_events_per_sec : float;
  t_obs_seen : int; (* events offered to the collector / ring *)
  t_ring_retained : int; (* 0 when no ring is attached *)
}

let e20_sampling = Tpdf_obs.Obs.default_sampling
let e20_ring_capacity = 8192

(* One engine run under the given telemetry mode, repeated [reps] times
   on fresh engines; wall is the best repetition (the others absorb
   warmup noise — the acceptance gate is a 5% ratio, well inside
   run-to-run jitter of a single cold run). *)
let e20_run_one ~reps ~t_graph ~t_mode ?(span_every = e20_sampling.span_every)
    ~iterations g =
  let t_actors = List.length (Graph.actors g) in
  let best = ref infinity in
  let events = ref 0 and seen = ref 0 and retained = ref 0 in
  for _ = 1 to reps do
    let obs, ring =
      match t_mode with
      | "off" -> (Tpdf_obs.Obs.disabled, None)
      | "sampled" ->
          let o =
            Tpdf_obs.Obs.create ~keep_events:false
              ~sampling:{ e20_sampling with span_every }
              ()
          in
          let r =
            Ring.attach
              ~config:
                { Ring.default_config with capacity = e20_ring_capacity }
              o
          in
          (o, Some r)
      | _ -> (Tpdf_obs.Obs.create (), None)
    in
    let eng =
      Engine.create ~graph:g ~valuation:Valuation.empty ~obs ~default:0 ()
    in
    let stats = ref None in
    (* Collect the previous repetition's garbage outside the timed
       section, so mode A's allocation debt is not billed to mode B. *)
    Gc.full_major ();
    let wall =
      e18_time (fun () ->
          stats := Some (Engine.run ~iterations ~max_events:30_000_000 eng))
    in
    let s = Option.get !stats in
    events := List.fold_left (fun a (_, n) -> a + n) 0 s.Engine.firings;
    (match ring with
    | Some r ->
        seen := Ring.seen r;
        retained := Ring.retained r
    | None -> seen := Tpdf_obs.Obs.event_count obs);
    if wall < !best then best := wall
  done;
  {
    t_graph;
    t_actors;
    t_iterations = iterations;
    t_mode;
    t_events = !events;
    t_wall_ms = !best;
    t_events_per_sec =
      (if !best <= 0.0 then 0.0
       else 1000.0 *. float_of_int !events /. !best);
    t_obs_seen = !seen;
    t_ring_retained = !retained;
  }

let e20_obs () =
  section "E20" "Telemetry overhead: collector off vs sampled vs full";
  let smoke = bench_smoke in
  let reps = if smoke then 2 else 3 in
  let configs =
    if smoke then
      [ ("chain", synth_chain 100, 20); ("fan", synth_fan 100, 20) ]
    else
      [
        ("chain", synth_chain 1000, 100);
        ("fan", synth_fan 1000, 100);
        ("grid", synth_grid 32 32, 100);
      ]
  in
  let modes = [ "off"; "sampled"; "full" ] in
  Printf.printf "%-6s %8s %9s %9s %10s %14s %10s %9s %9s\n" "graph" "actors"
    "mode" "events" "wall ms" "events/sec" "obs seen" "ring" "overhead";
  let runs =
    List.concat_map
      (fun (t_graph, g, iterations) ->
        let wall_off = ref nan in
        List.map
          (fun t_mode ->
            let r = e20_run_one ~reps ~t_graph ~t_mode ~iterations g in
            if t_mode = "off" then wall_off := r.t_wall_ms;
            Printf.printf
              "%-6s %8d %9s %9d %10.1f %14.0f %10d %9d %8.2fx\n%!" r.t_graph
              r.t_actors r.t_mode r.t_events r.t_wall_ms r.t_events_per_sec
              r.t_obs_seen r.t_ring_retained
              (if !wall_off > 0.0 then r.t_wall_ms /. !wall_off else 0.0);
            r)
          modes)
      configs
  in
  (* Flight-recorder bounded-memory certificate: a run whose unsampled
     span stream (span_every = 1) far exceeds the ring capacity must
     retain exactly [capacity] events, evicting the rest. *)
  let b_graph, b_g, b_iters =
    if smoke then ("chain", synth_chain 100, 100)
    else ("chain", synth_chain 1000, 1000)
  in
  let bounded =
    e20_run_one ~reps:1 ~t_graph:b_graph ~t_mode:"sampled" ~span_every:1
      ~iterations:b_iters b_g
  in
  let bounded_ok =
    bounded.t_ring_retained <= e20_ring_capacity
    && bounded.t_obs_seen > e20_ring_capacity
  in
  Printf.printf
    "bounded: %s %d actors, %d events offered, ring retained %d/%d -> %s\n"
    bounded.t_graph bounded.t_actors bounded.t_obs_seen
    bounded.t_ring_retained e20_ring_capacity
    (if bounded_ok then "ok" else "FAILED");
  let overhead_of mode =
    (* worst overhead across graphs for [mode] *)
    List.fold_left
      (fun acc r ->
        if r.t_mode <> mode then acc
        else
          let off =
            (List.find
               (fun r' -> r'.t_graph = r.t_graph && r'.t_mode = "off")
               runs)
              .t_wall_ms
          in
          if off > 0.0 then Float.max acc (r.t_wall_ms /. off) else acc)
      0.0 runs
  in
  let out =
    match Sys.getenv_opt "TPDF_BENCH_OBS_OUT" with
    | Some p -> p
    | None -> "BENCH_obs.json"
  in
  let oc = open_out out in
  let fp fmt = Printf.fprintf oc fmt in
  fp "{\n";
  fp "  \"experiment\": \"E20\",\n";
  fp "  \"smoke\": %b,\n" smoke;
  fp_metadata oc;
  fp "  \"sampling\": { \"span_every\": %d, \"ring_capacity\": %d },\n"
    e20_sampling.Tpdf_obs.Obs.span_every e20_ring_capacity;
  fp "  \"note\": %S,\n"
    "overhead_vs_off is wall_ms divided by the same graph's collector-off \
     wall_ms (best of the repetitions each).  'sampled' is the production \
     configuration: metrics always on, one in span_every firing spans into \
     a bounded flight-recorder ring, no unbounded event list.  'full' is the \
     diagnostic full-capture collector.  The bounded block runs an \
     unsampled span stream through the ring to certify eviction.";
  fp "  \"worst_overhead_sampled\": %.3f,\n" (overhead_of "sampled");
  fp "  \"worst_overhead_full\": %.3f,\n" (overhead_of "full");
  fp "  \"runs\": [\n";
  List.iteri
    (fun i r ->
      let off =
        (List.find
           (fun r' -> r'.t_graph = r.t_graph && r'.t_mode = "off")
           runs)
          .t_wall_ms
      in
      fp
        "    { \"graph\": %S, \"actors\": %d, \"iterations\": %d, \"mode\": \
         %S, \"events\": %d, \"wall_ms\": %.3f, \"events_per_sec\": %.1f, \
         \"obs_events_seen\": %d, \"ring_retained\": %d, \
         \"overhead_vs_off\": %.3f }%s\n"
        r.t_graph r.t_actors r.t_iterations r.t_mode r.t_events r.t_wall_ms
        r.t_events_per_sec r.t_obs_seen r.t_ring_retained
        (if off > 0.0 then r.t_wall_ms /. off else 0.0)
        (if i = List.length runs - 1 then "" else ","))
    runs;
  fp "  ],\n";
  fp "  \"bounded\": { \"graph\": %S, \"actors\": %d, \"events_offered\": \
      %d, \"ring_capacity\": %d, \"ring_retained\": %d, \"ok\": %b }\n"
    bounded.t_graph bounded.t_actors bounded.t_obs_seen e20_ring_capacity
    bounded.t_ring_retained bounded_ok;
  fp "}\n";
  close_out oc;
  Printf.printf "wrote %s\n" out

(* ------------------------------------------------------------------ *)
(* E21: symbolic kernel — hash-consed algebra vs the frozen legacy     *)
(* ------------------------------------------------------------------ *)

(* Two workloads, both seeded and deterministic:

   - "chain-rand" (kind=solve): a chain of single-phase actors whose rates
     are random parameter monomials.  The raw repetition vector accumulates
     polynomial denominators with many distinct parameter monomials — the
     workload where the pre-rewrite normalize loop (multiply everything by
     the first surviving denominator, rescan) is quadratic in the actor
     count.  Solved both by the current kernel (Csdf.Repetition.solve) and
     by a faithful port of the pre-rewrite pipeline over the frozen
     Tpdf_param.Legacy modules; outputs are asserted identical and the
     speedup column is gated in CI on the 100-parameter row.

   - "blocks" (kind=rate_safety): Fig. 2 control blocks chained back to
     back, one parameter per block, driving Analysis.repetition +
     Analysis.rate_safety end to end on ~1000 actors with ~100 parameters
     (degree-~170 monomials in the repetition vector). *)

module Legacy = Tpdf_param.Legacy
module Q = Tpdf_util.Q

let e21_pname i = Printf.sprintf "p%02d" i
let e21_aname i = Printf.sprintf "K%04d" i

(* A random monomial rate over [params] parameters: 1-2 distinct factors,
   exponents 1-2, coefficient 1 (integer coefficients would telescope into
   2^actors numeric content on a 1000-edge chain and overflow native
   ints — for both kernels). *)
let e21_rand_spec prng ~params =
  let nfac = 1 + Tpdf_util.Prng.int prng 2 in
  let rec pick acc k =
    if k = 0 then acc
    else
      let p = Tpdf_util.Prng.int prng params in
      if List.mem_assoc p acc then pick acc k
      else pick ((p, 1 + Tpdf_util.Prng.int prng 2) :: acc) (k - 1)
  in
  pick [] nfac

let e21_poly_of_spec spec =
  Poly.monomial Q.one
    (Monomial.of_list (List.map (fun (i, e) -> (e21_pname i, e)) spec))

let e21_lpoly_of_spec spec =
  Legacy.Poly.monomial Q.one
    (Legacy.Monomial.of_list (List.map (fun (i, e) -> (e21_pname i, e)) spec))

let e21_chain_specs ~params ~actors =
  let prng = Tpdf_util.Prng.create (210_000 + (params * 1000) + actors) in
  Array.init (actors - 1) (fun _ ->
      (e21_rand_spec prng ~params, e21_rand_spec prng ~params))

let e21_chain_graph ~actors specs =
  let g = Csdf.Graph.create () in
  for i = 0 to actors - 1 do
    Csdf.Graph.add_actor g (e21_aname i) ~phases:1
  done;
  Array.iteri
    (fun i (ps, cs) ->
      ignore
        (Csdf.Graph.add_channel g ~src:(e21_aname i) ~dst:(e21_aname (i + 1))
           ~prod:[| e21_poly_of_spec ps |]
           ~cons:[| e21_poly_of_spec cs |]
           ()))
    specs;
  g

(* The pre-rewrite solve pipeline (propagate, verify, normalize with the
   first-fractional clearing loop), ported verbatim onto the frozen legacy
   kernel.  The chain is its own spanning tree, so BFS propagation from the
   first actor is just the left-to-right product. *)
let e21_legacy_chain_solve specs =
  let n = Array.length specs + 1 in
  let r = Array.make n Legacy.Frac.one in
  for i = 0 to n - 2 do
    let prod, cons = specs.(i) in
    r.(i + 1) <- Legacy.Frac.mul r.(i) (Legacy.Frac.make prod cons)
  done;
  Array.iteri
    (fun i (prod, cons) ->
      let lhs = Legacy.Frac.mul r.(i) (Legacy.Frac.of_poly prod)
      and rhs = Legacy.Frac.mul r.(i + 1) (Legacy.Frac.of_poly cons) in
      if not (Legacy.Frac.equal lhs rhs) then
        failwith "E21: legacy chain verify failed")
    specs;
  let entries = ref (Array.to_list r) in
  let fractional () =
    List.find_opt
      (fun f -> not (Legacy.Poly.equal (Legacy.Frac.den f) Legacy.Poly.one))
      !entries
  in
  let rec clear () =
    match fractional () with
    | None -> ()
    | Some f ->
        let d = Legacy.Frac.of_poly (Legacy.Frac.den f) in
        entries := List.map (fun x -> Legacy.Frac.mul x d) !entries;
        clear ()
  in
  clear ();
  let polys =
    List.map
      (fun f ->
        match Legacy.Frac.to_poly f with Some p -> p | None -> assert false)
      !entries
  in
  let content =
    List.fold_left
      (fun acc p -> Q.gcd acc (Legacy.Poly.content p))
      Q.zero polys
  in
  let polys =
    if Q.is_zero content then polys
    else List.map (fun p -> Legacy.Poly.scale (Q.inv content) p) polys
  in
  let common =
    List.fold_left (fun acc p -> Legacy.Poly.gcd acc p) Legacy.Poly.zero polys
  in
  let polys =
    if Legacy.Poly.is_zero common || Legacy.Poly.equal common Legacy.Poly.one
    then polys
    else
      List.map
        (fun p ->
          match Legacy.Poly.divide p common with
          | Some q -> q
          | None -> assert false)
        polys
  in
  match polys with
  | p :: _
    when (not (Legacy.Poly.is_zero p))
         && Q.sign (snd (Legacy.Poly.leading p)) < 0 ->
      List.map Legacy.Poly.neg polys
  | _ -> polys

(* Fig. 2 control blocks chained F(b) -> A(b+1); block b is parameterized
   by p(b mod params). *)
let e21_blocks_graph ~params ~blocks =
  let g = Graph.create () in
  let r = Csdf.Graph.rates and c = Csdf.Graph.const_rates in
  for b = 0 to blocks - 1 do
    let n s = Printf.sprintf "%s%04d" s b in
    let p = e21_pname (b mod params) in
    Graph.add_kernel g (n "A");
    Graph.add_kernel g (n "B");
    Graph.add_control g (n "C");
    Graph.add_kernel g (n "D");
    Graph.add_kernel g (n "E");
    Graph.add_kernel g ~phases:2 ~kind:Graph.Transaction (n "F");
    ignore
      (Graph.add_channel g ~src:(n "A") ~dst:(n "B") ~prod:(r [ p ])
         ~cons:(c [ 1 ]) ());
    ignore
      (Graph.add_channel g ~src:(n "B") ~dst:(n "C") ~prod:(c [ 1 ])
         ~cons:(c [ 2 ]) ());
    ignore
      (Graph.add_channel g ~src:(n "B") ~dst:(n "D") ~prod:(c [ 1 ])
         ~cons:(c [ 2 ]) ());
    ignore
      (Graph.add_channel g ~src:(n "B") ~dst:(n "E") ~prod:(c [ 1 ])
         ~cons:(c [ 1 ]) ());
    ignore
      (Graph.add_control_channel g ~src:(n "C") ~dst:(n "F") ~prod:(c [ 2 ])
         ~cons:(c [ 1; 1 ]) ());
    let e6 =
      Graph.add_channel g ~src:(n "D") ~dst:(n "F") ~prod:(c [ 2 ])
        ~cons:(c [ 1; 1 ]) ~priority:1 ()
    in
    let e7 =
      Graph.add_channel g ~src:(n "E") ~dst:(n "F") ~prod:(c [ 1 ])
        ~cons:(c [ 0; 2 ]) ~priority:2 ()
    in
    Graph.set_modes g (n "F")
      [
        Mode.make ~inputs:(Mode.Input_subset [ e6 ]) "take_e6";
        Mode.make ~inputs:(Mode.Input_subset [ e7 ]) "take_e7";
      ];
    if b > 0 then
      ignore
        (Graph.add_channel g
           ~src:(Printf.sprintf "F%04d" (b - 1))
           ~dst:(n "A") ~prod:(c [ 1; 1 ]) ~cons:(c [ 1 ]) ())
  done;
  g

let e21_time_best reps f =
  let best = ref infinity in
  let result = ref None in
  for _ = 1 to reps do
    let t0 = Tpdf_obs.Obs.now_wall_ms () in
    let r = f () in
    let dt = Tpdf_obs.Obs.now_wall_ms () -. t0 in
    if dt < !best then best := dt;
    result := Some r
  done;
  (Option.get !result, !best)

type e21_row = {
  p_kind : string;
  p_graph : string;
  p_params : int;
  p_actors : int;
  p_new_ms : float;
  p_memo_off_ms : float;
  p_legacy_ms : float; (* nan when not measured *)
  p_speedup : float; (* nan when not measured *)
  p_outputs_match : bool option;
}

let e21_solve_row ~params ~actors ~legacy_reps ~new_reps =
  let specs = e21_chain_specs ~params ~actors in
  let g = e21_chain_graph ~actors specs in
  let lspecs =
    Array.map
      (fun (ps, cs) -> (e21_lpoly_of_spec ps, e21_lpoly_of_spec cs))
      specs
  in
  let sv, new_ms = e21_time_best new_reps (fun () -> Csdf.Repetition.solve g) in
  let svo, memo_off_ms =
    Memo.set_enabled false;
    Fun.protect
      ~finally:(fun () -> Memo.set_enabled true)
      (fun () -> e21_time_best new_reps (fun () -> Csdf.Repetition.solve g))
  in
  let lv, legacy_ms =
    e21_time_best legacy_reps (fun () -> e21_legacy_chain_solve lspecs)
  in
  let outputs_match =
    List.length sv.Csdf.Repetition.r = List.length lv
    && List.for_all2
         (fun (_, p) lp ->
           String.equal (Poly.to_string p) (Legacy.Poly.to_string lp))
         sv.Csdf.Repetition.r lv
    && List.for_all2
         (fun (_, p) (_, p') -> Poly.equal p p')
         sv.Csdf.Repetition.r svo.Csdf.Repetition.r
  in
  {
    p_kind = "solve";
    p_graph = "chain-rand";
    p_params = params;
    p_actors = actors;
    p_new_ms = new_ms;
    p_memo_off_ms = memo_off_ms;
    p_legacy_ms = legacy_ms;
    p_speedup = legacy_ms /. new_ms;
    p_outputs_match = Some outputs_match;
  }

let e21_rate_safety_row ~params ~blocks ~reps =
  let g = e21_blocks_graph ~params ~blocks in
  let actors = List.length (Graph.actors g) in
  let ok, new_ms =
    e21_time_best reps (fun () ->
        ignore (Analysis.repetition g);
        Analysis.rate_safety g)
  in
  (match ok with
  | Ok () -> ()
  | Error _ -> failwith "E21: blocks graph unexpectedly rate-unsafe");
  let oko, memo_off_ms =
    Memo.set_enabled false;
    Fun.protect
      ~finally:(fun () -> Memo.set_enabled true)
      (fun () ->
        e21_time_best reps (fun () ->
            ignore (Analysis.repetition g);
            Analysis.rate_safety g))
  in
  (match oko with
  | Ok () -> ()
  | Error _ -> failwith "E21: blocks graph rate-unsafe with memo off");
  {
    p_kind = "rate_safety";
    p_graph = "blocks";
    p_params = params;
    p_actors = actors;
    p_new_ms = new_ms;
    p_memo_off_ms = memo_off_ms;
    p_legacy_ms = nan;
    p_speedup = nan;
    p_outputs_match = None;
  }

let e21_param () =
  section "E21" "Symbolic kernel: hash-consed algebra vs pre-rewrite baseline";
  let smoke = bench_smoke in
  let rows =
    if smoke then
      [
        e21_solve_row ~params:5 ~actors:50 ~legacy_reps:2 ~new_reps:3;
        e21_solve_row ~params:10 ~actors:100 ~legacy_reps:2 ~new_reps:3;
        e21_rate_safety_row ~params:10 ~blocks:10 ~reps:2;
      ]
    else
      [
        e21_solve_row ~params:10 ~actors:100 ~legacy_reps:3 ~new_reps:5;
        e21_solve_row ~params:30 ~actors:300 ~legacy_reps:2 ~new_reps:5;
        e21_solve_row ~params:100 ~actors:1000 ~legacy_reps:1 ~new_reps:5;
        e21_rate_safety_row ~params:10 ~blocks:17 ~reps:3;
        e21_rate_safety_row ~params:100 ~blocks:166 ~reps:2;
      ]
  in
  Printf.printf "%-12s %-10s %7s %7s %10s %13s %11s %9s %6s\n" "kind" "graph"
    "params" "actors" "new ms" "memo-off ms" "legacy ms" "speedup" "match";
  List.iter
    (fun r ->
      Printf.printf "%-12s %-10s %7d %7d %10.3f %13.3f %11s %9s %6s\n%!"
        r.p_kind r.p_graph r.p_params r.p_actors r.p_new_ms r.p_memo_off_ms
        (if Float.is_nan r.p_legacy_ms then "-"
         else Printf.sprintf "%.1f" r.p_legacy_ms)
        (if Float.is_nan r.p_speedup then "-"
         else Printf.sprintf "%.1fx" r.p_speedup)
        (match r.p_outputs_match with
        | None -> "-"
        | Some true -> "yes"
        | Some false -> "NO!"))
    rows;
  let gauges = Memo.gauges () in
  let gauge name =
    match List.assoc_opt name gauges with Some v -> v | None -> 0.0
  in
  Printf.printf
    "kernel caches: %.0f memo hits, %.0f misses; intern tables: %.0f \
     monomials, %.0f polys, %.0f fracs\n"
    (gauge "param.memo.hits") (gauge "param.memo.misses")
    (gauge "param.intern.monomials")
    (gauge "param.intern.polys") (gauge "param.intern.fracs");
  let out =
    match Sys.getenv_opt "TPDF_BENCH_PARAM_OUT" with
    | Some p -> p
    | None -> "BENCH_param.json"
  in
  let oc = open_out out in
  let fp fmt = Printf.fprintf oc fmt in
  fp "{\n";
  fp "  \"experiment\": \"E21\",\n";
  fp "  \"smoke\": %b,\n" smoke;
  fp_metadata oc;
  fp "  \"baseline\": {\n";
  fp
    "    \"kernel\": \"pre-rewrite assoc-list Monomial/Poly/Frac \
     (Tpdf_param.Legacy), first-fractional denominator clearing\"\n";
  fp "  },\n";
  fp "  \"rows\": [\n";
  List.iteri
    (fun i r ->
      let opt_f v =
        if Float.is_nan v then "null" else Printf.sprintf "%.3f" v
      in
      fp
        "    { \"kind\": %S, \"graph\": %S, \"params\": %d, \"actors\": %d, \
         \"new_ms\": %.3f, \"new_memo_off_ms\": %.3f, \"legacy_ms\": %s, \
         \"speedup\": %s, \"outputs_match\": %s }%s\n"
        r.p_kind r.p_graph r.p_params r.p_actors r.p_new_ms r.p_memo_off_ms
        (opt_f r.p_legacy_ms) (opt_f r.p_speedup)
        (match r.p_outputs_match with
        | None -> "null"
        | Some b -> string_of_bool b)
        (if i = List.length rows - 1 then "" else ","))
    rows;
  fp "  ],\n";
  fp "  \"gauges\": {\n";
  fp "    \"param_memo_hits\": %.0f,\n" (gauge "param.memo.hits");
  fp "    \"param_memo_misses\": %.0f,\n" (gauge "param.memo.misses");
  fp "    \"param_intern_monomials\": %.0f,\n" (gauge "param.intern.monomials");
  fp "    \"param_intern_polys\": %.0f,\n" (gauge "param.intern.polys");
  fp "    \"param_intern_fracs\": %.0f\n" (gauge "param.intern.fracs");
  fp "  }\n";
  fp "}\n";
  close_out oc;
  Printf.printf "wrote %s\n" out;
  if
    List.exists
      (fun r -> r.p_outputs_match = Some false)
      rows
  then failwith "E21: rewritten kernel disagrees with the legacy baseline"

(* ------------------------------------------------------------------ *)
(* E22: serving — multi-tenant throughput, p95 latency, fault column   *)
(* ------------------------------------------------------------------ *)

module ServeD = Tpdf_serve.Daemon
module ServeJ = Tpdf_serve.Json

type e22_run = {
  s_label : string; (* "mem" | "persist" | "fault" *)
  s_tenants : int;
  s_requests : int;
  s_iterations : int; (* completed graph iterations, fleet-wide *)
  s_firings : int;
  s_wall_ms : float;
  s_quarantined : int;
  s_p50_ms : float;
  s_p95_ms : float; (* over every request *)
  s_healthy_p95_ms : float; (* over healthy tenants' advances only *)
}

let e22_percentile sorted p =
  match Array.length sorted with
  | 0 -> 0.0
  | n -> sorted.(min (n - 1) (int_of_float (p *. float_of_int (n - 1))))

(* Drive the daemon core in-process: the socket pump adds no work per
   request beyond line I/O, so this measures the serving path itself
   (admission, supervised advance, checkpointing, metrics).  Requests
   are issued back-to-back with zero think time — the saturation load
   of an open-loop generator.  [faulty] adds one permanently failing
   tenant on top of the [tenants] healthy ones. *)
let e22_load ~s_label ~tenants ~rounds ~iters_per_advance ~faulty ?state_dir ()
    =
  let cfg =
    {
      ServeD.default_config with
      ServeD.state_dir;
      quarantine_skips = 1;
      checkpoint_every = 4;
    }
  in
  let d =
    match ServeD.create cfg with Ok d -> d | Error e -> failwith e
  in
  let fig1_src = Serial.to_string (Graph.of_csdf (Csdf.Examples.fig1 ())) in
  let fig2_src = Serial.to_string (Examples.fig2 ()).Examples.graph in
  let names = Array.init tenants (fun i -> Printf.sprintf "t%02d" i) in
  let lat_all = ref [] and lat_healthy = ref [] in
  let requests = ref 0 in
  let rpc ?(healthy = false) fields =
    let line = ServeJ.to_string (ServeJ.Obj fields) in
    let t0 = Tpdf_obs.Obs.now_wall_ms () in
    let resp = ServeD.handle_line d line in
    let dt = Tpdf_obs.Obs.now_wall_ms () -. t0 in
    incr requests;
    lat_all := dt :: !lat_all;
    if healthy then lat_healthy := dt :: !lat_healthy;
    resp
  in
  let submit ?faults ?params name src =
    ignore
      (rpc
         ([
            ("id", ServeJ.String ("s-" ^ name));
            ("op", ServeJ.String "submit");
            ("name", ServeJ.String name);
            ("graph", ServeJ.String src);
          ]
         @ (match params with
           | Some ps ->
               [
                 ( "params",
                   ServeJ.Obj
                     (List.map (fun (k, v) -> (k, ServeJ.Int v)) ps) );
               ]
           | None -> [])
         @
         match faults with
         | Some f -> [ ("faults", ServeJ.String f) ]
         | None -> []))
  in
  let advance ~healthy name =
    ignore
      (rpc ~healthy
         [
           ("id", ServeJ.String ("a-" ^ name));
           ("op", ServeJ.String "advance");
           ("name", ServeJ.String name);
           ("iterations", ServeJ.Int iters_per_advance);
         ])
  in
  let t0 = Tpdf_obs.Obs.now_wall_ms () in
  Array.iteri
    (fun i name ->
      if i mod 2 = 0 then submit name fig1_src
      else submit name fig2_src ~params:[ ("p", 1 + (i mod 3)) ])
    names;
  if faulty then
    submit "faulty" fig2_src ~params:[ ("p", 2) ] ~faults:"fail:*:1.0:1000";
  for _ = 1 to rounds do
    Array.iter (fun name -> advance ~healthy:true name) names;
    if faulty then advance ~healthy:false "faulty"
  done;
  let s_wall_ms = Tpdf_obs.Obs.now_wall_ms () -. t0 in
  let counters = Tpdf_obs.Metrics.counters (ServeD.metrics d) in
  let counter name =
    match List.assoc_opt name counters with Some n -> n | None -> 0
  in
  let sorted l =
    let a = Array.of_list l in
    Array.sort compare a;
    a
  in
  let all = sorted !lat_all and healthy_l = sorted !lat_healthy in
  {
    s_label;
    s_tenants = (tenants + if faulty then 1 else 0);
    s_requests = !requests;
    s_iterations = counter "serve.iterations";
    s_firings = counter "serve.firings";
    s_wall_ms;
    s_quarantined = counter "serve.quarantined";
    s_p50_ms = e22_percentile all 0.5;
    s_p95_ms = e22_percentile all 0.95;
    s_healthy_p95_ms = e22_percentile healthy_l 0.95;
  }

let e22_gate_p95_ratio = 2.0

let e22_serve () =
  section "E22" "Serving: multi-tenant throughput, p95 latency, fault column";
  let smoke = bench_smoke in
  let tenants = if smoke then 4 else 8 in
  let rounds = if smoke then 8 else 60 in
  let iters_per_advance = 2 in
  let with_state_dir f =
    let dir =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "tpdf_e22_%d" (Unix.getpid ()))
    in
    let rec rm_rf p =
      if Sys.file_exists p then
        if Sys.is_directory p then begin
          Array.iter (fun f -> rm_rf (Filename.concat p f)) (Sys.readdir p);
          Sys.rmdir p
        end
        else Sys.remove p
    in
    rm_rf dir;
    Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)
  in
  let runs =
    [
      e22_load ~s_label:"mem" ~tenants ~rounds ~iters_per_advance
        ~faulty:false ();
      with_state_dir (fun dir ->
          e22_load ~s_label:"persist" ~tenants ~rounds ~iters_per_advance
            ~faulty:false ~state_dir:dir ());
      e22_load ~s_label:"fault" ~tenants ~rounds ~iters_per_advance
        ~faulty:true ();
    ]
  in
  let base_healthy_p95 = (List.nth runs 0).s_healthy_p95_ms in
  let fault_healthy_p95 = (List.nth runs 2).s_healthy_p95_ms in
  let p95_ratio =
    if base_healthy_p95 > 0.0 then fault_healthy_p95 /. base_healthy_p95
    else 0.0
  in
  let isolation_ok = p95_ratio > 0.0 && p95_ratio <= e22_gate_p95_ratio in
  Printf.printf "%-8s %8s %9s %11s %11s %12s %9s %9s %12s\n" "mode" "tenants"
    "requests" "iterations" "firings" "firings/sec" "p50 ms" "p95 ms"
    "healthy p95";
  List.iter
    (fun r ->
      Printf.printf "%-8s %8d %9d %11d %11d %12.0f %9.3f %9.3f %12.3f\n"
        r.s_label r.s_tenants r.s_requests r.s_iterations r.s_firings
        (if r.s_wall_ms > 0.0 then
           1000.0 *. float_of_int r.s_firings /. r.s_wall_ms
         else 0.0)
        r.s_p50_ms r.s_p95_ms r.s_healthy_p95_ms)
    runs;
  Printf.printf
    "fault isolation: healthy p95 %.3f ms with faulter vs %.3f ms without \
     (%.2fx, gate %.1fx) -> %s\n"
    fault_healthy_p95 base_healthy_p95 p95_ratio e22_gate_p95_ratio
    (if isolation_ok then "ok" else "FAILED");
  let out =
    match Sys.getenv_opt "TPDF_BENCH_SERVE_OUT" with
    | Some p -> p
    | None -> "BENCH_serve.json"
  in
  let oc = open_out out in
  let fp fmt = Printf.fprintf oc fmt in
  fp "{\n";
  fp "  \"experiment\": \"E22\",\n";
  fp "  \"smoke\": %b,\n" smoke;
  fp_metadata oc;
  fp "  \"note\": %S,\n"
    "In-process saturation load over the daemon core (the socket pump adds \
     only line I/O): submit the fleet, then round-robin advance requests \
     with zero think time.  'mem' is the memory-only daemon, 'persist' \
     checkpoints every 4 iterations to a state directory, 'fault' adds one \
     permanently failing tenant (quarantined on its first advance) on top \
     of the healthy fleet.  healthy_p95_ms is the p95 over healthy \
     tenants' advance requests only; isolation_ok gates the ratio of that \
     p95 with and without the faulter.";
  fp "  \"iters_per_advance\": %d,\n" iters_per_advance;
  fp "  \"rounds\": %d,\n" rounds;
  fp "  \"gate_p95_ratio\": %.1f,\n" e22_gate_p95_ratio;
  fp "  \"healthy_p95_ratio\": %.3f,\n" p95_ratio;
  fp "  \"isolation_ok\": %b,\n" isolation_ok;
  fp "  \"runs\": [\n";
  List.iteri
    (fun i r ->
      fp
        "    { \"mode\": %S, \"tenants\": %d, \"requests\": %d, \
         \"iterations\": %d, \"firings\": %d, \"wall_ms\": %.3f, \
         \"requests_per_sec\": %.1f, \"firings_per_sec\": %.1f, \
         \"quarantined\": %d, \"request_p50_ms\": %.4f, \"request_p95_ms\": \
         %.4f, \"healthy_p95_ms\": %.4f }%s\n"
        r.s_label r.s_tenants r.s_requests r.s_iterations r.s_firings
        r.s_wall_ms
        (if r.s_wall_ms > 0.0 then
           1000.0 *. float_of_int r.s_requests /. r.s_wall_ms
         else 0.0)
        (if r.s_wall_ms > 0.0 then
           1000.0 *. float_of_int r.s_firings /. r.s_wall_ms
         else 0.0)
        r.s_quarantined r.s_p50_ms r.s_p95_ms r.s_healthy_p95_ms
        (if i = List.length runs - 1 then "" else ","))
    runs;
  fp "  ]\n";
  fp "}\n";
  close_out oc;
  Printf.printf "wrote %s\n" out

(* ------------------------------------------------------------------ *)
(* E23: network chaos — resilient client over a seeded fault plan      *)
(* ------------------------------------------------------------------ *)

module NF = Tpdf_serve.Netfault
module SClient = Tpdf_serve.Client

type e23_run = {
  n_label : string;
  n_spec : string; (* netfault plan, "" for the no-fault baseline *)
  n_tenants : int;
  n_logical : int; (* logical client requests (advances) *)
  n_attempts : int; (* transport attempts incl. retries *)
  n_lost : int; (* logical requests that exhausted retries *)
  n_req_lost : int; (* injected: request line lost on the wire *)
  n_resp_lost : int; (* injected: response line lost on the wire *)
  n_delayed : int; (* injected: operations delayed *)
  n_wall_ms : float;
  n_virtual_ms : float; (* injected delay + client backoff, virtual *)
  n_p50_ms : float; (* per-logical-request daemon time, all attempts *)
  n_p95_ms : float;
  n_diverged : int; (* tenants whose final state differs from the twin *)
}

(* Open-loop load through the resilient client against an in-process
   chaotic transport: each transport attempt consults the netfault plan
   (per-tenant connection stream; requests and responses draw at
   distinct op parities), a lost line surfaces as a transport failure,
   and the client retries with idempotency keys under virtual-time
   backoff.  Every logical request that succeeds is mirrored once into
   a fault-free twin daemon; at the end the per-tenant final states
   must be byte-identical — retries and replays must never
   double-advance a tenant.  Latencies measure daemon time summed over
   a logical request's attempts; injected delays and client backoff
   accumulate in virtual time so runs are reproducible. *)
let e23_load ~label ~spec ~seed ~tenants ~rounds ~iters_per_advance () =
  let specs =
    if spec = "" then []
    else match NF.parse_specs spec with Ok s -> s | Error e -> failwith e
  in
  let plan = NF.make ~seed specs in
  let cfg =
    {
      ServeD.default_config with
      ServeD.max_tenants = (2 * tenants) + 8;
      rid_cache = 1024;
    }
  in
  let mk () = match ServeD.create cfg with Ok d -> d | Error e -> failwith e in
  let d = mk () and twin = mk () in
  let fig1_src = Serial.to_string (Graph.of_csdf (Csdf.Examples.fig1 ())) in
  let fig2_src = Serial.to_string (Examples.fig2 ()).Examples.graph in
  let names = Array.init tenants (fun i -> Printf.sprintf "n%03d" i) in
  let virtual_ms = ref 0.0 in
  let req_lost = ref 0 and resp_lost = ref 0 and delayed = ref 0 in
  let attempts = ref 0 and lost = ref 0 in
  let ops = Array.make tenants 0 in
  let transport conn =
    {
      SClient.call =
        (fun ~deadline_ms:_ line ->
          let o = ops.(conn) in
          ops.(conn) <- o + 1;
          let v = NF.verdict plan ~conn ~op:(2 * o) ~len:(String.length line) in
          if v.NF.v_delay_ms > 0.0 then begin
            incr delayed;
            virtual_ms := !virtual_ms +. v.NF.v_delay_ms
          end;
          if v.NF.v_drop || v.NF.v_tear_at <> None then begin
            incr req_lost;
            Error (SClient.Conn "injected: request lost")
          end
          else
            let resp = ServeD.handle_line d line in
            let v' =
              NF.verdict plan ~conn ~op:((2 * o) + 1)
                ~len:(String.length resp)
            in
            if v'.NF.v_delay_ms > 0.0 then begin
              incr delayed;
              virtual_ms := !virtual_ms +. v'.NF.v_delay_ms
            end;
            if v'.NF.v_drop || v'.NF.v_tear_at <> None then begin
              incr resp_lost;
              Error (SClient.Conn "injected: response lost")
            end
            else Ok resp);
      sleep = (fun ms -> virtual_ms := !virtual_ms +. ms);
    }
  in
  let policy =
    {
      SClient.deadline_ms = 1000.0;
      retries = 6;
      backoff_ms = 5.0;
      backoff_max_ms = 80.0;
      seed;
    }
  in
  let submit_line name src params =
    ServeJ.to_string
      (ServeJ.Obj
         ([
            ("id", ServeJ.String ("s-" ^ name));
            ("op", ServeJ.String "submit");
            ("name", ServeJ.String name);
            ("graph", ServeJ.String src);
          ]
         @
         match params with
         | [] -> []
         | ps ->
             [
               ( "params",
                 ServeJ.Obj (List.map (fun (k, v) -> (k, ServeJ.Int v)) ps) );
             ]))
  in
  (* Submits bypass the chaos: the load under test is the steady-state
     advance traffic.  Both daemons see identical submissions. *)
  Array.iteri
    (fun i name ->
      let line =
        if i mod 2 = 0 then submit_line name fig1_src []
        else submit_line name fig2_src [ ("p", 1 + (i mod 3)) ]
      in
      ignore (ServeD.handle_line d line);
      ignore (ServeD.handle_line twin line))
    names;
  let lat = ref [] in
  let logical = ref 0 in
  let t0 = Tpdf_obs.Obs.now_wall_ms () in
  for r = 1 to rounds do
    Array.iteri
      (fun ti name ->
        let line =
          ServeJ.to_string
            (ServeJ.Obj
               [
                 ("id", ServeJ.String ("a-" ^ name));
                 ("rid", ServeJ.String (Printf.sprintf "adv-%s-%d" name r));
                 ("op", ServeJ.String "advance");
                 ("name", ServeJ.String name);
                 ("iterations", ServeJ.Int iters_per_advance);
               ])
        in
        incr logical;
        let w0 = Tpdf_obs.Obs.now_wall_ms () in
        let out = SClient.call policy (transport ti) ~op:!logical line in
        lat := (Tpdf_obs.Obs.now_wall_ms () -. w0) :: !lat;
        attempts := !attempts + out.SClient.attempts;
        match out.SClient.response with
        | Ok _ -> ignore (ServeD.handle_line twin line)
        | Error _ -> incr lost)
      names
  done;
  let n_wall_ms = Tpdf_obs.Obs.now_wall_ms () -. t0 in
  let diverged =
    Array.fold_left
      (fun acc name ->
        let q =
          ServeJ.to_string
            (ServeJ.Obj
               [
                 ("id", ServeJ.String ("q-" ^ name));
                 ("op", ServeJ.String "query");
                 ("name", ServeJ.String name);
               ])
        in
        if ServeD.handle_line d q = ServeD.handle_line twin q then acc
        else acc + 1)
      0 names
  in
  let sorted =
    let a = Array.of_list !lat in
    Array.sort compare a;
    a
  in
  {
    n_label = label;
    n_spec = spec;
    n_tenants = tenants;
    n_logical = !logical;
    n_attempts = !attempts;
    n_lost = !lost;
    n_req_lost = !req_lost;
    n_resp_lost = !resp_lost;
    n_delayed = !delayed;
    n_wall_ms;
    n_virtual_ms = !virtual_ms;
    n_p50_ms = e22_percentile sorted 0.5;
    n_p95_ms = e22_percentile sorted 0.95;
    n_diverged = diverged;
  }

let e23_gate_p95_ratio = 2.0

let e23_netchaos () =
  section "E23"
    "Network chaos: resilient client + idempotency under a fault-plan sweep";
  let smoke = bench_smoke in
  let tenants = if smoke then 12 else 320 in
  (* Enough requests per plan (204 in smoke) that the p95 the gate
     compares has at least ten samples beyond it: with fewer, one GC
     pause in a ~15 us advance decides the ratio. *)
  let rounds = if smoke then 17 else 6 in
  let iters_per_advance = 1 in
  let sweep =
    [
      ("baseline", "", 0);
      ("lossy", "disconnect:0.01,tear:0.005", 7);
      ("slow", "delay:0.05:2", 11);
      ("lossy+slow", "disconnect:0.01,tear:0.005,delay:0.05:2,stall:0.01:4", 13);
    ]
  in
  let runs =
    List.map
      (fun (label, spec, seed) ->
        e23_load ~label ~spec ~seed ~tenants ~rounds ~iters_per_advance ())
      sweep
  in
  let base = List.hd runs in
  let faults = List.tl runs in
  let ratio r =
    if base.n_p95_ms > 0.0 then r.n_p95_ms /. base.n_p95_ms else 0.0
  in
  let worst_ratio = List.fold_left (fun m r -> Float.max m (ratio r)) 0.0 faults in
  let p95_ok = worst_ratio > 0.0 && worst_ratio <= e23_gate_p95_ratio in
  let diverged = List.fold_left (fun a r -> a + r.n_diverged) 0 runs in
  let total_lost = List.fold_left (fun a r -> a + r.n_lost) 0 runs in
  let injected r = r.n_req_lost + r.n_resp_lost + r.n_delayed in
  let injected_ok = List.for_all (fun r -> injected r > 0) faults in
  let divergence_ok = diverged = 0 && total_lost = 0 in
  Printf.printf "%-11s %8s %9s %9s %7s %9s %9s %8s %9s %9s\n" "plan" "tenants"
    "logical" "attempts" "lost" "req_lost" "resp_lost" "delayed" "p95 ms"
    "diverged";
  List.iter
    (fun r ->
      Printf.printf "%-11s %8d %9d %9d %7d %9d %9d %8d %9.3f %9d\n" r.n_label
        r.n_tenants r.n_logical r.n_attempts r.n_lost r.n_req_lost
        r.n_resp_lost r.n_delayed r.n_p95_ms r.n_diverged)
    runs;
  Printf.printf
    "healthy p95 under chaos: worst %.2fx of baseline (gate %.1fx) -> %s\n"
    worst_ratio e23_gate_p95_ratio
    (if p95_ok then "ok" else "FAILED");
  Printf.printf "state divergence: %d tenants, %d lost requests -> %s\n"
    diverged total_lost
    (if divergence_ok then "ok" else "FAILED");
  let out =
    match Sys.getenv_opt "TPDF_BENCH_NETCHAOS_OUT" with
    | Some p -> p
    | None -> "BENCH_netchaos.json"
  in
  let oc = open_out out in
  let fp fmt = Printf.fprintf oc fmt in
  fp "{\n";
  fp "  \"experiment\": \"E23\",\n";
  fp "  \"smoke\": %b,\n" smoke;
  fp_metadata oc;
  fp "  \"note\": %S,\n"
    "Open-loop load through the resilient client (deadlines, idempotency \
     keys, seeded jittered backoff) against an in-process transport that \
     injects wire faults from a seeded netfault plan: lost requests, lost \
     responses, delays.  Every successful logical advance is mirrored into \
     a fault-free twin daemon; divergence counts tenants whose final query \
     differs byte-for-byte from the twin's; retries plus rid replay must \
     never double-advance a tenant.  p95 is per-logical-request daemon \
     time summed over attempts (injected delays and backoff accumulate in \
     virtual time); p95_ratio_ok gates the worst chaos-run p95 against the \
     no-fault baseline.";
  fp "  \"iters_per_advance\": %d,\n" iters_per_advance;
  fp "  \"rounds\": %d,\n" rounds;
  fp "  \"gate_p95_ratio\": %.1f,\n" e23_gate_p95_ratio;
  fp "  \"worst_p95_ratio\": %.3f,\n" worst_ratio;
  fp "  \"p95_ratio_ok\": %b,\n" p95_ok;
  fp "  \"diverged_tenants\": %d,\n" diverged;
  fp "  \"lost_requests\": %d,\n" total_lost;
  fp "  \"divergence_ok\": %b,\n" divergence_ok;
  fp "  \"faults_injected_ok\": %b,\n" injected_ok;
  fp "  \"runs\": [\n";
  List.iteri
    (fun i r ->
      fp
        "    { \"plan\": %S, \"spec\": %S, \"tenants\": %d, \"logical\": %d, \
         \"attempts\": %d, \"lost\": %d, \"req_lost\": %d, \"resp_lost\": \
         %d, \"delayed\": %d, \"wall_ms\": %.3f, \"virtual_ms\": %.3f, \
         \"request_p50_ms\": %.4f, \"request_p95_ms\": %.4f, \"diverged\": \
         %d }%s\n"
        r.n_label r.n_spec r.n_tenants r.n_logical r.n_attempts r.n_lost
        r.n_req_lost r.n_resp_lost r.n_delayed r.n_wall_ms r.n_virtual_ms
        r.n_p50_ms r.n_p95_ms r.n_diverged
        (if i = List.length runs - 1 then "" else ","))
    runs;
  fp "  ]\n";
  fp "}\n";
  close_out oc;
  Printf.printf "wrote %s\n" out

(* ------------------------------------------------------------------ *)
(* TPDF_BENCH_TRACE: observability artifacts for the example graphs    *)
(* ------------------------------------------------------------------ *)

let write_traces dir =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let module Obs = Tpdf_obs.Obs in
  let runs =
    [
      ("fig2", (Examples.fig2 ()).Examples.graph, [ ("p", 4) ]);
      ("fig3", Examples.fig3 (), []);
      ( "ofdm-tpdf",
        fst (Ofdm_app.tpdf_graph ()),
        [ ("beta", 2); ("N", 8); ("L", 1) ] );
    ]
  in
  List.iter
    (fun (name, g, params) ->
      let obs = Obs.create () in
      let valuation = Valuation.of_list params in
      ignore
        (Tpdf_sim.Reconfigure.run_scenarios ~graph:g ~obs ~valuation ~default:0
           (Tpdf_sim.Reconfigure.mode_scenarios g));
      let trace = Filename.concat dir (name ^ ".trace.json") in
      Tpdf_obs.Chrome.write_file trace (Obs.events obs);
      let summary = Filename.concat dir (name ^ ".summary.txt") in
      let oc = open_out summary in
      output_string oc
        (Tpdf_obs.Report.summary ~metrics:(Obs.metrics obs) (Obs.events obs));
      close_out oc;
      Printf.printf "trace: wrote %s (%d events) and %s\n" trace
        (Obs.event_count obs) summary)
    runs

let () =
  Printf.printf
    "TPDF reproduction benchmark harness (paper: Do, Louise, Cohen — DATE 2016)\n";
  (match Sys.getenv_opt "TPDF_BENCH_TRACE" with
  | Some dir -> write_traces dir
  | None -> ());
  Printf.printf "image size for E7: %dx%d; Bechamel quota: %.1fs\n" bench_size
    bench_size bench_quota;
  let experiments =
    [
      ("E1", e1_fig1);
      ("E2", e2_fig2);
      ("E5", e5_liveness);
      ("E6", e6_fig5);
      ("E7", e7_fig6_table);
      ("E8", e8_fig6_deadline);
      ("E9", e9_fig7);
      ("E10", e10_fig8);
      ("E11", e11_speedup);
      ("E12", e12_fmradio);
      ("E13", e13_analysis_cost);
      ("E14", e14_video);
      ("E15", e15_ablation);
      ("E16", e16_resilience);
      ("E17", e17_engine);
      ("E18", e18_par);
      ("E19", e19_ckpt);
      ("E20", e20_obs);
      ("E21", e21_param);
      ("E22", e22_serve);
      ("E23", e23_netchaos);
    ]
  in
  let only =
    match Sys.getenv_opt "TPDF_BENCH_ONLY" with
    | None -> None
    | Some s ->
        Some (List.map String.trim (String.split_on_char ',' s))
  in
  List.iter
    (fun (id, f) ->
      match only with Some ids when not (List.mem id ids) -> () | _ -> f ())
    experiments;
  print_newline ()
