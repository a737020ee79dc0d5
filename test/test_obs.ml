open Tpdf_core
open Tpdf_sim
open Tpdf_param
module Obs = Tpdf_obs.Obs
module Ev = Tpdf_obs.Event
module Metrics = Tpdf_obs.Metrics
module Chrome = Tpdf_obs.Chrome
module Report = Tpdf_obs.Report
module Ring = Tpdf_obs.Ring
module Openmetrics = Tpdf_obs.Openmetrics
module Critpath = Tpdf_obs.Critpath

(* ------------------------------------------------------------------ *)
(* Minimal JSON parser — just enough to validate the Chrome export.    *)
(* ------------------------------------------------------------------ *)

type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

exception Bad_json of string

let parse_json s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Bad_json (Printf.sprintf "%s at offset %d" msg !pos)) in
  let peek () = if !pos < n then s.[!pos] else fail "unexpected end" in
  let advance () = incr pos in
  let skip_ws () =
    while !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false) do
      advance ()
    done
  in
  let expect c =
    if peek () <> c then fail (Printf.sprintf "expected %c" c);
    advance ()
  in
  let literal word v =
    String.iter (fun c -> expect c) word;
    v
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      match peek () with
      | '"' -> advance ()
      | '\\' ->
          advance ();
          (match peek () with
          | '"' -> Buffer.add_char buf '"'
          | '\\' -> Buffer.add_char buf '\\'
          | '/' -> Buffer.add_char buf '/'
          | 'n' -> Buffer.add_char buf '\n'
          | 't' -> Buffer.add_char buf '\t'
          | 'r' -> Buffer.add_char buf '\r'
          | 'b' -> Buffer.add_char buf '\b'
          | 'f' -> Buffer.add_char buf '\012'
          | 'u' ->
              for _ = 1 to 4 do
                advance ();
                match peek () with
                | '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> ()
                | _ -> fail "bad \\u escape"
              done;
              Buffer.add_char buf '?'
          | c -> fail (Printf.sprintf "bad escape \\%c" c));
          advance ();
          go ()
      | c ->
          if Char.code c < 0x20 then fail "unescaped control character";
          Buffer.add_char buf c;
          advance ();
          go ()
    in
    go ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    if peek () = '-' then advance ();
    while
      !pos < n
      && match s.[!pos] with '0' .. '9' | '.' | 'e' | 'E' | '+' | '-' -> true | _ -> false
    do
      advance ()
    done;
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> f
    | None -> fail "bad number"
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | '{' ->
        advance ();
        skip_ws ();
        if peek () = '}' then begin advance (); Obj [] end
        else
          let rec members acc =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | ',' -> advance (); members ((k, v) :: acc)
            | '}' -> advance (); Obj (List.rev ((k, v) :: acc))
            | _ -> fail "expected , or }"
          in
          members []
    | '[' ->
        advance ();
        skip_ws ();
        if peek () = ']' then begin advance (); Arr [] end
        else
          let rec elements acc =
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | ',' -> advance (); elements (v :: acc)
            | ']' -> advance (); Arr (List.rev (v :: acc))
            | _ -> fail "expected , or ]"
          in
          elements []
    | '"' -> Str (parse_string ())
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | _ -> Num (parse_number ())
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

let member k = function
  | Obj fields -> List.assoc_opt k fields
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Fixtures                                                            *)
(* ------------------------------------------------------------------ *)

let fig2_run ?obs ~iterations () =
  let { Examples.graph = g; _ } = Examples.fig2 () in
  let v = Valuation.of_list [ ("p", 2) ] in
  let eng = Engine.create ~graph:g ~valuation:v ?obs ~default:0 () in
  Engine.run ~iterations eng

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

let test_histogram_percentiles () =
  let m = Metrics.create () in
  for i = 1 to 100 do
    Metrics.observe m "lat" (float_of_int i)
  done;
  match Metrics.histogram m "lat" with
  | None -> Alcotest.fail "histogram missing"
  | Some s ->
      Alcotest.(check int) "count" 100 s.Metrics.count;
      Alcotest.(check (float 1e-9)) "sum" 5050.0 s.Metrics.sum;
      Alcotest.(check (float 1e-9)) "min" 1.0 s.Metrics.min;
      Alcotest.(check (float 1e-9)) "max" 100.0 s.Metrics.max;
      (* Hyndman-Fan type 7: h = p * (n - 1) interpolates between the
         straddling order statistics *)
      Alcotest.(check (float 1e-6)) "p50 interpolated" 50.5 s.Metrics.p50;
      Alcotest.(check (float 1e-6)) "p95 interpolated" 95.05 s.Metrics.p95

let test_histogram_small_sample () =
  (* small counts must interpolate, not degenerate to the max *)
  let m = Metrics.create () in
  for i = 1 to 10 do
    Metrics.observe m "lat" (float_of_int i)
  done;
  (match Metrics.histogram m "lat" with
  | None -> Alcotest.fail "histogram missing"
  | Some s ->
      Alcotest.(check (float 1e-6)) "p50 of 1..10" 5.5 s.Metrics.p50;
      Alcotest.(check (float 1e-6)) "p95 of 1..10" 9.55 s.Metrics.p95);
  let m2 = Metrics.create () in
  Metrics.observe m2 "x" 1.0;
  Metrics.observe m2 "x" 2.0;
  match Metrics.histogram m2 "x" with
  | None -> Alcotest.fail "histogram missing"
  | Some s ->
      Alcotest.(check (float 1e-6)) "p50 of a pair" 1.5 s.Metrics.p50;
      Alcotest.(check (float 1e-6)) "p95 of a pair" 1.95 s.Metrics.p95

let test_histogram_single_sample () =
  let m = Metrics.create () in
  Metrics.observe m "x" 3.5;
  match Metrics.histogram m "x" with
  | None -> Alcotest.fail "histogram missing"
  | Some s ->
      Alcotest.(check (float 1e-9)) "p50 of singleton" 3.5 s.Metrics.p50;
      Alcotest.(check (float 1e-9)) "p95 of singleton" 3.5 s.Metrics.p95

(* A long-lived histogram holds a bounded window: count, sum, min and
   max stay exact, the percentiles cover the most recent samples. *)
let test_histogram_bounded_window () =
  let m = Metrics.create () in
  let n = 1_000_000 in
  for i = 1 to n do
    Metrics.observe m "lat" (float_of_int i)
  done;
  match Metrics.histogram m "lat" with
  | None -> Alcotest.fail "histogram missing"
  | Some s ->
      Alcotest.(check int) "exact count" n s.Metrics.count;
      Alcotest.(check int) "window capped" 65_536 s.Metrics.window;
      Alcotest.(check int) "cap constant" 65_536 Metrics.window_cap;
      Alcotest.(check (float 1e-9)) "exact sum" 500000500000.0 s.Metrics.sum;
      Alcotest.(check (float 1e-9)) "exact min" 1.0 s.Metrics.min;
      Alcotest.(check (float 1e-9)) "exact max" (float_of_int n) s.Metrics.max;
      (* the window is samples 934465 .. 1000000 *)
      Alcotest.(check (float 1e-6)) "p50 of the window" 967232.5 s.Metrics.p50

let test_counter_monotonic () =
  let m = Metrics.create () in
  Metrics.incr m "c";
  Metrics.incr ~by:41 m "c";
  Alcotest.(check int) "accumulated" 42 (Metrics.counter m "c");
  Alcotest.(check int) "absent counter reads 0" 0 (Metrics.counter m "other");
  Alcotest.check_raises "negative increment rejected"
    (Invalid_argument "Metrics.incr: counters are monotonic") (fun () ->
      Metrics.incr ~by:(-1) m "c");
  Alcotest.(check int) "value unchanged after rejection" 42
    (Metrics.counter m "c")

(* ------------------------------------------------------------------ *)
(* Collector                                                           *)
(* ------------------------------------------------------------------ *)

let test_disabled_collector () =
  Alcotest.(check bool) "disabled" false (Obs.enabled Obs.disabled);
  Obs.instant Obs.disabled ~cat:"x" ~track:"t" ~name:"n" ~ts_ms:1.0 ();
  Alcotest.(check int) "nothing recorded" 0 (Obs.event_count Obs.disabled);
  Alcotest.(check bool) "metrics stay empty" true
    (Metrics.is_empty (Obs.metrics Obs.disabled))

let test_sinks_and_shift () =
  let obs = Obs.create () in
  let seen = ref [] in
  Obs.add_sink obs (fun e -> seen := e :: !seen);
  Obs.instant obs ~cat:"a" ~track:"t" ~name:"base" ~ts_ms:1.0 ();
  let shifted = Obs.shift obs 10.0 in
  Obs.instant shifted ~cat:"a" ~track:"t" ~name:"later" ~ts_ms:1.0 ();
  let ts = List.map (fun e -> e.Ev.ts_ms) (Obs.events obs) in
  Alcotest.(check (list (float 1e-9))) "virtual offset applied" [ 1.0; 11.0 ] ts;
  Alcotest.(check int) "sink saw both (shared store)" 2 (List.length !seen)

(* ------------------------------------------------------------------ *)
(* Engine instrumentation                                              *)
(* ------------------------------------------------------------------ *)

let test_no_sink_same_stats () =
  let plain = fig2_run ~iterations:2 () in
  let obs = Obs.create () in
  let traced = fig2_run ~obs ~iterations:2 () in
  Alcotest.(check (list (pair string int))) "same firing counts"
    plain.Engine.firings traced.Engine.firings;
  Alcotest.(check (float 1e-9)) "same end time" plain.Engine.end_ms
    traced.Engine.end_ms;
  Alcotest.(check string) "same gantt" (Trace.gantt plain) (Trace.gantt traced)

let test_determinism () =
  let virtual_events obs =
    List.filter (fun e -> e.Ev.clock = Ev.Virtual) (Obs.events obs)
  in
  let o1 = Obs.create () in
  ignore (fig2_run ~obs:o1 ~iterations:2 ());
  let o2 = Obs.create () in
  ignore (fig2_run ~obs:o2 ~iterations:2 ());
  let e1 = virtual_events o1 and e2 = virtual_events o2 in
  Alcotest.(check int) "same event count" (List.length e1) (List.length e2);
  Alcotest.(check bool) "identical virtual-time traces" true (e1 = e2);
  Alcotest.(check bool) "trace is non-trivial" true (List.length e1 > 10)

let test_trace_golden () =
  let obs = Obs.create () in
  let stats = fig2_run ~obs ~iterations:2 () in
  let events = Obs.events obs in
  Alcotest.(check string) "csv byte-identical" (Trace.to_csv stats)
    (Trace.csv_of_events events);
  Alcotest.(check string) "gantt byte-identical" (Trace.gantt stats)
    (Trace.gantt_of_events events)

(* ------------------------------------------------------------------ *)
(* Chrome export                                                       *)
(* ------------------------------------------------------------------ *)

let test_chrome_json () =
  let obs = Obs.create () in
  ignore
    (Analysis.check_boundedness ~obs
       (Examples.fig2 ()).Examples.graph
       ~samples:[ Valuation.of_list [ ("p", 2) ] ]);
  ignore (fig2_run ~obs ~iterations:1 ());
  let json = Chrome.json_of_events (Obs.events obs) in
  let root =
    match parse_json json with
    | v -> v
    | exception Bad_json msg -> Alcotest.fail ("invalid JSON: " ^ msg)
  in
  let events =
    match member "traceEvents" root with
    | Some (Arr l) -> l
    | _ -> Alcotest.fail "traceEvents array missing"
  in
  Alcotest.(check bool) "has events" true (events <> []);
  let phases =
    List.map
      (fun e ->
        match member "ph" e with
        | Some (Str ph) ->
            (match member "ts" e with
            | Some (Num _) -> ()
            | None when ph = "M" -> ()
            | _ -> Alcotest.fail "event without numeric ts");
            ph
        | _ -> Alcotest.fail "event without ph")
      events
  in
  let has ph = List.mem ph phases in
  Alcotest.(check bool) "complete spans" true (has "X");
  Alcotest.(check bool) "counters" true (has "C");
  Alcotest.(check bool) "thread metadata" true (has "M");
  (* both clocks present: virtual = pid 1, wall = pid 2 *)
  let pids =
    List.filter_map
      (fun e -> match member "pid" e with Some (Num p) -> Some p | _ -> None)
      events
  in
  Alcotest.(check bool) "virtual process" true (List.mem 1.0 pids);
  Alcotest.(check bool) "wall process" true (List.mem 2.0 pids)

let test_chrome_escaping () =
  let obs = Obs.create () in
  Obs.instant obs ~cat:"c" ~track:"t" ~name:"quote\"back\\slash\ntab\t"
    ~args:[ ("k", Ev.Str "v\"2") ]
    ~ts_ms:0.5 ();
  match parse_json (Chrome.json_of_events (Obs.events obs)) with
  | _ -> ()
  | exception Bad_json msg -> Alcotest.fail ("escaping broke JSON: " ^ msg)

(* ------------------------------------------------------------------ *)
(* Reports and scenarios                                               *)
(* ------------------------------------------------------------------ *)

let test_csv_report () =
  let obs = Obs.create () in
  ignore (fig2_run ~obs ~iterations:1 ());
  let csv = Report.csv_of_events (Obs.events obs) in
  let lines = String.split_on_char '\n' (String.trim csv) in
  Alcotest.(check string) "header" "clock,cat,track,kind,name,ts_ms,dur_ms,value,args"
    (List.hd lines);
  Alcotest.(check int) "one row per event"
    (Obs.event_count obs)
    (List.length lines - 1)

let test_scenario_sweep_covers_actors () =
  let g, _ = Tpdf_apps.Ofdm_app.tpdf_graph () in
  let v = Valuation.of_list [ ("beta", 2); ("N", 8); ("L", 1) ] in
  let obs = Obs.create () in
  let scenarios = Reconfigure.mode_scenarios g in
  Alcotest.(check bool) "ofdm sweeps >= 2 scenarios" true
    (List.length scenarios >= 2);
  ignore
    (Reconfigure.run_scenarios ~graph:g ~obs ~valuation:v ~default:0 scenarios);
  let events = Obs.events obs in
  let fired =
    List.sort_uniq compare
      (List.filter_map
         (fun e -> if e.Ev.cat = "firing" then Some e.Ev.track else None)
         events)
  in
  Alcotest.(check (list string)) "every actor fires somewhere in the sweep"
    (List.sort compare (Graph.actors g))
    fired;
  let reconfigs = Metrics.counter (Obs.metrics obs) "engine.reconfigurations" in
  Alcotest.(check int) "one reconfig instant per scenario"
    (List.length scenarios) reconfigs

(* ------------------------------------------------------------------ *)
(* Flight recorder (ring)                                              *)
(* ------------------------------------------------------------------ *)

let test_ring_bounded () =
  let obs = Obs.create ~keep_events:false () in
  let config = { Ring.default_config with Ring.capacity = 32; keep_cats = [] } in
  let ring = Ring.attach ~config obs in
  for i = 1 to 1000 do
    Obs.span obs ~cat:"firing" ~track:"A"
      ~name:(Printf.sprintf "s%d" i)
      ~ts_ms:(float_of_int i) ~dur_ms:1.0 ()
  done;
  Alcotest.(check int) "seen every offer" 1000 (Ring.seen ring);
  Alcotest.(check int) "kept every span" 1000 (Ring.kept ring);
  Alcotest.(check int) "retained bounded by capacity" 32 (Ring.retained ring);
  Alcotest.(check int) "evicted the rest" 968 (Ring.evicted ring);
  Alcotest.(check (list string)) "window holds the newest spans, oldest first"
    (List.init 32 (fun i -> Printf.sprintf "s%d" (969 + i)))
    (List.map (fun (e : Ev.t) -> e.Ev.name) (Ring.events ring))

let test_ring_per_kind_sampling () =
  let obs = Obs.create ~keep_events:false () in
  let config =
    {
      Ring.default_config with
      Ring.span_every = 4;
      counter_every = 2;
      keep_cats = [ "txn" ];
    }
  in
  let ring = Ring.attach ~config obs in
  for i = 0 to 7 do
    Obs.span obs ~cat:"firing" ~track:"A"
      ~name:(Printf.sprintf "f%d" i)
      ~ts_ms:(float_of_int i) ~dur_ms:0.5 ()
  done;
  (* the 9th span is kept by kind (8 mod 4 = 0); the 10th only because
     its category is protected *)
  Obs.span obs ~cat:"txn" ~track:"T" ~name:"txn.a" ~ts_ms:8.0 ~dur_ms:0.1 ();
  Obs.span obs ~cat:"txn" ~track:"T" ~name:"txn.b" ~ts_ms:9.0 ~dur_ms:0.1 ();
  for i = 0 to 3 do
    Obs.counter obs ~cat:"chan" ~track:"e1"
      ~name:(Printf.sprintf "c%d" i)
      ~ts_ms:(float_of_int i) 1.0
  done;
  Obs.instant obs ~cat:"reconfig" ~track:"engine" ~name:"i0" ~ts_ms:20.0 ();
  Obs.instant obs ~cat:"whatever" ~track:"engine" ~name:"i1" ~ts_ms:21.0 ();
  (* wall-clock events are excluded unless keep_wall *)
  Obs.span ~clock:Ev.Wall obs ~cat:"par" ~track:"w" ~name:"wall" ~ts_ms:22.0
    ~dur_ms:1.0 ();
  Alcotest.(check (list string)) "deterministic per-kind retention"
    [ "f0"; "f4"; "txn.a"; "txn.b"; "c0"; "c2"; "i0"; "i1" ]
    (List.map (fun (e : Ev.t) -> e.Ev.name) (Ring.events ring));
  Alcotest.(check int) "wall event still counted as seen" 17 (Ring.seen ring)

(* The retained stream is a pure function of the delivered event stream,
   so a pooled sampled run must retain byte-for-byte the same window as
   the sequential one. *)
let test_ring_deterministic_across_domains () =
  let run domains =
    let pool =
      if domains = 1 then None else Some (Tpdf_par.Pool.create ~domains)
    in
    Fun.protect
      ~finally:(fun () -> Option.iter Tpdf_par.Pool.shutdown pool)
      (fun () ->
        let { Examples.graph = g; _ } = Examples.fig2 () in
        let v = Valuation.of_list [ ("p", 2) ] in
        let obs =
          Obs.create ~keep_events:false
            ~sampling:{ Obs.span_every = 2; occupancy_every = 1 }
            ()
        in
        let ring = Ring.attach obs in
        let eng = Engine.create ~graph:g ~valuation:v ~obs ?pool ~default:0 () in
        ignore (Engine.run ~iterations:6 eng);
        Report.csv_of_events (Ring.events ring))
  in
  let seq = run 1 in
  Alcotest.(check bool) "retained stream non-trivial" true
    (String.length seq > 200);
  Alcotest.(check string) "byte-identical at 2 domains" seq (run 2);
  Alcotest.(check string) "byte-identical at 4 domains" seq (run 4)

(* ------------------------------------------------------------------ *)
(* OpenMetrics exposition                                              *)
(* ------------------------------------------------------------------ *)

let test_openmetrics_family_mapping () =
  let check name fam labels =
    let f, l = Openmetrics.family_of name in
    Alcotest.(check string) (name ^ " family") fam f;
    Alcotest.(check (list (pair string string))) (name ^ " labels") labels l
  in
  check "engine.firings.FFT" "tpdf_engine_firings" [ ("actor", "FFT") ];
  check "engine.firing_ms.FFT" "tpdf_engine_firing_ms" [ ("actor", "FFT") ];
  check "engine.busy_ms.EQ" "tpdf_engine_busy_ms" [ ("actor", "EQ") ];
  check "channel.e3.dropped" "tpdf_channel_dropped" [ ("channel", "e3") ];
  check "channel.e3.occupancy" "tpdf_channel_occupancy" [ ("channel", "e3") ];
  check "domain.2.firings" "tpdf_domain_firings" [ ("domain", "2") ];
  check "supervisor.retries.EQ" "tpdf_supervisor_retries" [ ("actor", "EQ") ];
  (* unknown names become their own sanitized family, no labels *)
  check "engine.steps" "tpdf_engine_steps" [];
  check "analysis.liveness_ms" "tpdf_analysis_liveness_ms" []

let test_openmetrics_render () =
  let m = Metrics.create () in
  Metrics.incr ~by:3 m "engine.firings.FFT";
  Metrics.incr m "engine.firings.EQ";
  Metrics.set_gauge m "domain.0.firings" 12.0;
  Metrics.observe m "engine.firing_ms.FFT" 1.0;
  Metrics.observe m "engine.firing_ms.FFT" 2.0;
  let lines =
    String.split_on_char '\n' (String.trim (Openmetrics.render m))
  in
  let has l = List.mem l lines in
  Alcotest.(check bool) "counter sample with actor label" true
    (has "tpdf_engine_firings_total{actor=\"FFT\"} 3");
  Alcotest.(check bool) "second subject, same family" true
    (has "tpdf_engine_firings_total{actor=\"EQ\"} 1");
  Alcotest.(check bool) "gauge sample" true
    (has "tpdf_domain_firings{domain=\"0\"} 12");
  Alcotest.(check bool) "summary median" true
    (has "tpdf_engine_firing_ms{actor=\"FFT\",quantile=\"0.5\"} 1.5");
  Alcotest.(check bool) "summary count" true
    (has "tpdf_engine_firing_ms_count{actor=\"FFT\"} 2");
  Alcotest.(check bool) "summary sum" true
    (has "tpdf_engine_firing_ms_sum{actor=\"FFT\"} 3");
  Alcotest.(check int) "one TYPE line for the counter family" 1
    (List.length
       (List.filter (fun l -> l = "# TYPE tpdf_engine_firings counter") lines));
  Alcotest.(check string) "EOF terminator"
    "# EOF"
    (List.nth lines (List.length lines - 1))

let test_openmetrics_no_duplicate_series () =
  let obs = Obs.create () in
  ignore (fig2_run ~obs ~iterations:2 ());
  let lines =
    String.split_on_char '\n'
      (String.trim (Openmetrics.render (Obs.metrics obs)))
  in
  Alcotest.(check bool) "non-trivial exposition" true (List.length lines > 8);
  let series =
    List.filter_map
      (fun l ->
        if l = "" || l.[0] = '#' then None
        else
          match String.index_opt l ' ' with
          | Some i -> Some (String.sub l 0 i)
          | None -> Some l)
      lines
  in
  let sorted = List.sort compare series in
  let rec dup = function
    | a :: b :: _ when a = b -> Some a
    | _ :: tl -> dup tl
    | [] -> None
  in
  (match dup sorted with
  | Some s -> Alcotest.fail ("duplicate series: " ^ s)
  | None -> ());
  Alcotest.(check string) "EOF terminator" "# EOF"
    (List.nth lines (List.length lines - 1))

let test_openmetrics_exporter () =
  let m = Metrics.create () in
  Metrics.incr m "engine.firings.A";
  let path =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "tpdf_obs_test_%d.prom" (Unix.getpid ()))
  in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      let ex = Openmetrics.Exporter.create ~path m in
      Openmetrics.Exporter.flush ex;
      let content = In_channel.with_open_bin path In_channel.input_all in
      Alcotest.(check string) "file holds the rendered exposition"
        (Openmetrics.render m) content)

(* ------------------------------------------------------------------ *)
(* Critical path                                                       *)
(* ------------------------------------------------------------------ *)

let firing ?(mode = "m") ?(index = 0) ~track ~ts ~dur () : Ev.t =
  {
    Ev.name = track ^ "/" ^ mode;
    cat = "firing";
    track;
    clock = Ev.Virtual;
    ts_ms = ts;
    payload = Ev.Span dur;
    args = [ ("mode", Ev.Str mode); ("index", Ev.Int index) ];
  }

let test_critpath_chain () =
  (* A(0..1) -> B(1..2) -> C(2..3) with a short parallel D(0..0.5) *)
  let events =
    [
      firing ~track:"A" ~ts:0.0 ~dur:1.0 ();
      firing ~track:"D" ~ts:0.0 ~dur:0.5 ();
      firing ~track:"B" ~ts:1.0 ~dur:1.0 ();
      firing ~track:"C" ~ts:2.0 ~dur:1.0 ();
    ]
  in
  match Critpath.of_events events with
  | None -> Alcotest.fail "expected a report"
  | Some r ->
      Alcotest.(check int) "span count" 4 r.Critpath.span_count;
      Alcotest.(check (float 1e-9)) "t0" 0.0 r.Critpath.t0;
      Alcotest.(check (float 1e-9)) "t1" 3.0 r.Critpath.t1;
      Alcotest.(check (float 1e-9)) "path length" 3.0 r.Critpath.cp_ms;
      Alcotest.(check (list string)) "path follows the chain, oldest first"
        [ "A"; "B"; "C" ]
        (List.map (fun s -> s.Critpath.track) r.Critpath.critical_path);
      Alcotest.(check (list (pair string (float 1e-9))))
        "busy per track, busiest first"
        [ ("A", 1.0); ("B", 1.0); ("C", 1.0); ("D", 0.5) ]
        r.Critpath.busy_ms;
      (* A, B and C each hold 2/7 of total busy time; D's 1/7 stays
         below the default 0.25 threshold *)
      Alcotest.(check (list string)) "suspects above the threshold"
        [ "A"; "B"; "C" ]
        (List.map fst (Critpath.suspects r));
      let rendered = Format.asprintf "%a" Critpath.pp_path r in
      Alcotest.(check bool) "pp_path names the path" true
        (String.length rendered > 0)

let test_critpath_empty () =
  Alcotest.(check bool) "no events" true (Critpath.of_events [] = None);
  let not_firing =
    { (firing ~track:"A" ~ts:0.0 ~dur:1.0 ()) with Ev.cat = "analysis" }
  in
  Alcotest.(check bool) "non-firing spans ignored" true
    (Critpath.of_events [ not_firing ] = None)

let test_critpath_fig2 () =
  let obs = Obs.create () in
  let stats = fig2_run ~obs ~iterations:2 () in
  match Critpath.of_events (Obs.events obs) with
  | None -> Alcotest.fail "instrumented run must yield firing spans"
  | Some r ->
      Alcotest.(check (float 1e-9)) "observed makespan matches the run"
        stats.Engine.end_ms
        (r.Critpath.t1 -. r.Critpath.t0);
      Alcotest.(check bool) "path is non-trivial" true
        (List.length r.Critpath.critical_path > 1);
      (* chained spans cannot overlap, so the path fits in the makespan *)
      Alcotest.(check bool) "cp_ms bounded by the makespan" true
        (r.Critpath.cp_ms <= stats.Engine.end_ms +. 1e-9);
      Alcotest.(check bool) "cp_ms positive" true (r.Critpath.cp_ms > 0.0)

(* ------------------------------------------------------------------ *)
(* Chrome per-domain processes                                         *)
(* ------------------------------------------------------------------ *)

let test_chrome_domain_processes () =
  let obs = Obs.create () in
  Obs.span ~clock:Ev.Wall obs ~cat:"par" ~track:"stage" ~name:"fire"
    ~args:[ ("domain", Ev.Int 0) ]
    ~ts_ms:0.0 ~dur_ms:1.0 ();
  Obs.span ~clock:Ev.Wall obs ~cat:"par" ~track:"stage" ~name:"fire"
    ~args:[ ("domain", Ev.Int 2) ]
    ~ts_ms:1.0 ~dur_ms:1.0 ();
  (* an undecorated wall span stays in the wall process *)
  Obs.span ~clock:Ev.Wall obs ~cat:"analysis" ~track:"t" ~name:"plain"
    ~ts_ms:2.0 ~dur_ms:1.0 ();
  let root =
    match parse_json (Chrome.json_of_events (Obs.events obs)) with
    | v -> v
    | exception Bad_json msg -> Alcotest.fail ("invalid JSON: " ^ msg)
  in
  let events =
    match member "traceEvents" root with
    | Some (Arr l) -> l
    | _ -> Alcotest.fail "traceEvents array missing"
  in
  let pid_of e =
    match member "pid" e with Some (Num p) -> int_of_float p | _ -> -1
  in
  let span_pids =
    List.filter_map
      (fun e ->
        match member "ph" e with
        | Some (Str "X") -> Some (pid_of e)
        | _ -> None)
      events
  in
  Alcotest.(check (list int)) "spans grouped per domain (pid 3 + d)"
    [ 2; 3; 5 ]
    (List.sort compare span_pids);
  let proc_names =
    List.filter_map
      (fun e ->
        match (member "ph" e, member "name" e) with
        | Some (Str "M"), Some (Str "process_name") -> (
            match Option.bind (member "args" e) (member "name") with
            | Some (Str n) -> Some (pid_of e, n)
            | _ -> None)
        | _ -> None)
      events
  in
  Alcotest.(check bool) "domain 0 process named" true
    (List.mem (3, "domain 0 (tpdf_par)") proc_names);
  Alcotest.(check bool) "domain 2 process named" true
    (List.mem (5, "domain 2 (tpdf_par)") proc_names)

let () =
  Alcotest.run "obs"
    [
      ( "metrics",
        [
          Alcotest.test_case "percentiles" `Quick test_histogram_percentiles;
          Alcotest.test_case "small-sample percentiles" `Quick
            test_histogram_small_sample;
          Alcotest.test_case "singleton histogram" `Quick test_histogram_single_sample;
          Alcotest.test_case "bounded histogram window" `Quick
            test_histogram_bounded_window;
          Alcotest.test_case "counter monotonicity" `Quick test_counter_monotonic;
        ] );
      ( "collector",
        [
          Alcotest.test_case "disabled no-op" `Quick test_disabled_collector;
          Alcotest.test_case "sinks and shift" `Quick test_sinks_and_shift;
        ] );
      ( "engine",
        [
          Alcotest.test_case "no-sink output unchanged" `Quick test_no_sink_same_stats;
          Alcotest.test_case "determinism" `Quick test_determinism;
          Alcotest.test_case "trace golden" `Quick test_trace_golden;
        ] );
      ( "chrome",
        [
          Alcotest.test_case "well-formed JSON" `Quick test_chrome_json;
          Alcotest.test_case "string escaping" `Quick test_chrome_escaping;
        ] );
      ( "reports",
        [
          Alcotest.test_case "csv" `Quick test_csv_report;
          Alcotest.test_case "ofdm scenario sweep" `Quick test_scenario_sweep_covers_actors;
        ] );
      ( "ring",
        [
          Alcotest.test_case "bounded window" `Quick test_ring_bounded;
          Alcotest.test_case "per-kind sampling" `Quick
            test_ring_per_kind_sampling;
          Alcotest.test_case "deterministic at 1/2/4 domains" `Quick
            test_ring_deterministic_across_domains;
        ] );
      ( "openmetrics",
        [
          Alcotest.test_case "family mapping" `Quick
            test_openmetrics_family_mapping;
          Alcotest.test_case "rendering" `Quick test_openmetrics_render;
          Alcotest.test_case "no duplicate series" `Quick
            test_openmetrics_no_duplicate_series;
          Alcotest.test_case "exporter writes atomically" `Quick
            test_openmetrics_exporter;
        ] );
      ( "critpath",
        [
          Alcotest.test_case "chain reconstruction" `Quick test_critpath_chain;
          Alcotest.test_case "no firing spans" `Quick test_critpath_empty;
          Alcotest.test_case "fig2 end to end" `Quick test_critpath_fig2;
        ] );
      ( "chrome-domains",
        [
          Alcotest.test_case "per-domain processes" `Quick
            test_chrome_domain_processes;
        ] );
    ]
