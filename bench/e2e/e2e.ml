(* End-to-end benchmark of the served advance path.

   One run starts the real [tpdf_tool serve] as a child process, drives
   it over its Unix socket from this single-threaded process through one
   connection, closed loop (the next request goes out when the previous
   response is in), and reports the end-to-end metrics of one workload.
   The first responses of the stream are then checked byte for byte
   against an in-process replay on a fresh [Daemon]; with [--trace 1]
   the replay is traced and the run reports the per-layer metrics.

     e2e.exe --workload W --seed N --seconds S --trace 0|1
             [--tool PATH] [--out FILE] [--trace-dir DIR]
     e2e.exe compare A.jsonl B.jsonl [--benchmark BENCHMARK.json]
     e2e.exe smoke --tool PATH [--benchmark BENCHMARK.json]

   The last line of a run's standard output is one JSON object:
   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}.
   The time-based end-to-end metrics are at the reference host speed
   ({!Host}); the line before it holds the raw values. *)

module W = Workload
module J = Tpdf_serve.Json
module L = Layers

exception Fatal of string

let fatal fmt = Printf.ksprintf (fun s -> raise (Fatal s)) fmt

type settings = {
  seconds : float;  (** measured window *)
  warmup : float;
  subwindows : int;
  setup_reps : int;
  replay_max : int;  (** cap on the replayed stream prefix *)
  traced : bool;
}

(* 1 s sub-windows: short against the host's slow phases. *)
let run_settings ~seconds ~traced =
  {
    seconds;
    warmup = 2.0;
    subwindows = max 10 (int_of_float seconds);
    setup_reps = 9;
    replay_max = 2000;
    traced;
  }

let smoke_settings =
  {
    seconds = 1.0;
    warmup = 0.2;
    subwindows = 10;
    setup_reps = 1;
    replay_max = 200;
    traced = true;
  }

(* ---------- responses ---------- *)

type tally = {
  mutable sent : int;
  mutable failed : int;
  mutable first_failure : string option;
  done_ : (string, int) Hashtbl.t;  (** last [done] seen per tenant *)
}

let fail t msg =
  t.failed <- t.failed + 1;
  if t.first_failure = None then t.first_failure <- Some msg

let ok_response line =
  match J.of_string line with
  | Ok resp when J.member "ok" resp = Some (J.Bool true) -> Ok resp
  | Ok _ -> Error line
  | Error e -> Error ("unparsable response: " ^ e)

(* Check one stream response; returns the tenant iterations it
   delivered.  An advance must move [done] by exactly the iterations
   asked for, a query must report the [done] the client last saw. *)
let check t (r : W.req) line =
  match ok_response line with
  | Error e ->
      fail t (Printf.sprintf "request %d: %s" r.id e);
      0
  | Ok resp -> (
      let prev = Option.value (Hashtbl.find_opt t.done_ r.tenant) ~default:0 in
      match (r.op, J.member "done" resp) with
      | W.Advance n, Some (J.Int d) when d - prev = n ->
          Hashtbl.replace t.done_ r.tenant d;
          n
      | W.Query, Some (J.Int d) when d = prev -> 0
      | W.Reconfigure _, _ -> 0
      | _ ->
          fail t (Printf.sprintf "request %d: inconsistent progress: %s" r.id line);
          0)

let send t d line =
  t.sent <- t.sent + 1;
  match Proc.call d line with
  | Ok resp -> Some resp
  | Error e ->
      fail t ("transport: " ^ e);
      None

(* ---------- the socket run ---------- *)

let daemon_args (w : W.t) dir =
  (if w.persist then [ "--state-dir"; Filename.concat dir "state" ] else [])
  @
  if w.max_resident > 0 then [ "--max-resident"; string_of_int w.max_resident ]
  else []

(* Spawn a daemon and submit the fleet; the set-up time runs from the
   first successful ping to the last submit response, so process start
   and connect polling are excluded.  Returns the daemon, the set-up
   time in ms, and the CPU time both processes spent in it. *)
let setup_daemon ~tool t (w : W.t) tenants =
  let d = Proc.spawn ~tool (daemon_args w) in
  (match Proc.connect d with Ok () -> () | Error e -> fatal "connect: %s" e);
  (match send t d {|{"op":"ping"}|} with
  | Some line when Result.is_ok (ok_response line) -> ()
  | _ -> fatal "daemon did not answer ping (log: %s)" (Proc.daemon_log d));
  let cpu () = Proc.cpu_ms d.Proc.pid +. Host.self_cpu_ms () in
  let t0 = Host.now_ms () and c0 = cpu () in
  List.iteri
    (fun i (tn : W.tenant) ->
      match send t d (W.submit_line i tn) with
      | Some line when Result.is_ok (ok_response line) -> ()
      | Some line -> fatal "submit of %s refused: %s" tn.name line
      | None ->
          fatal "submit of %s: daemon gone (log: %s)" tn.name (Proc.daemon_log d))
    tenants;
  (d, Host.now_ms () -. t0, cpu () -. c0)

(* The daemon's own [serve.*] counters, read through the [metrics] op. *)
let daemon_counters t d =
  let text =
    match Option.map ok_response (send t d {|{"op":"metrics"}|}) with
    | Some (Ok resp) -> (
        match J.member "openmetrics" resp with
        | Some (J.String s) -> s
        | _ -> "")
    | _ -> ""
  in
  let lines = String.split_on_char '\n' text in
  fun name ->
    let prefix = fst (Tpdf_obs.Openmetrics.family_of name) ^ "_total " in
    let n = String.length prefix in
    List.find_map
      (fun l ->
        if String.starts_with ~prefix l then
          int_of_string_opt (String.sub l n (String.length l - n))
        else None)
      lines
    |> Option.value ~default:0

(* One sub-window of the measured window.  [kernel] collects host-speed
   kernel times ({!Host}) taken between requests. *)
type sub = {
  mutable reqs : int;
  mutable iters : int;
  mutable lat : float list;  (** ms *)
  mutable daemon_cpu_ms : float;
  mutable own_cpu_ms : float;  (** this process: generator, checks, kernel *)
  mutable kernel : float list;  (** us *)
}

type socket_run = {
  setup_s : float;  (** at the reference host speed *)
  setup_raw_s : float;
  prefix : string array;  (** the first stream responses, for the replay *)
  subs : sub array;
  sub_s : float;
  rss_mb : float;
  steal_share : float;
  bytes_per_req : float;
  counters_per_req : (string * float) list;
}

let socket_run ~tool ~settings t (w : W.t) ~seed =
  let tenants, stream = W.instantiate w ~seed in
  let setups =
    List.init settings.setup_reps (fun i ->
        let k0 = Host.sample 11 in
        let d, wall_ms, cpu_ms = setup_daemon ~tool t w tenants in
        let f = Host.factor ((k0 +. Host.sample 11) /. 2.0) in
        if i < settings.setup_reps - 1 then Proc.stop d;
        let raw = wall_ms /. 1000.0 in
        (d, raw, raw *. Host.effective f ~wall_ms ~cpu_ms))
  in
  let d, _, _ = List.nth setups (settings.setup_reps - 1) in
  let setup_median f = L.median (Array.of_list (List.map f setups)) in
  let replay_max = min settings.replay_max w.replay_max in
  let prefix = ref [] and served = ref 0 and rss_kb = ref None in
  let alive = ref true in
  (* One closed-loop request: (iterations delivered, latency, completion
     time, bytes on the wire). *)
  let step () =
    let r = stream () in
    let t0 = Host.now_ms () in
    let resp = send t d r.W.line in
    let t1 = Host.now_ms () in
    match resp with
    | None ->
        alive := false;
        (0, t1 -. t0, t1, 0)
    | Some line ->
        if !served < replay_max then prefix := line :: !prefix;
        incr served;
        if !served = w.rss_after then
          rss_kb := Some (Proc.status_kb d.Proc.pid "VmHWM");
        let bytes = String.length r.W.line + String.length line + 2 in
        (check t r line, t1 -. t0, t1, bytes)
  in
  let warm_end = Host.now_ms () +. (1000.0 *. settings.warmup) in
  while !alive && Host.now_ms () < warm_end do
    ignore (step ())
  done;
  let state_dir =
    if w.persist then Some (Filename.concat d.Proc.dir "state") else None
  in
  let c0 = daemon_counters t d and m0 = L.manifest_seq state_dir in
  let st0 = Proc.cpu_steal () in
  let nsub = settings.subwindows in
  let sub_ms = 1000.0 *. settings.seconds /. float_of_int nsub in
  let subs =
    Array.init nsub (fun _ ->
        {
          reqs = 0;
          iters = 0;
          lat = [];
          daemon_cpu_ms = 0.0;
          own_cpu_ms = 0.0;
          kernel = [];
        })
  in
  let cpu () = (Proc.cpu_ms d.Proc.pid, Host.self_cpu_ms ()) in
  let cur = ref 0 and cpu_mark = ref (cpu ()) in
  let close_sub () =
    let ((dc, oc) as c) = cpu () in
    subs.(!cur).daemon_cpu_ms <- dc -. fst !cpu_mark;
    subs.(!cur).own_cpu_ms <- oc -. snd !cpu_mark;
    cpu_mark := c
  in
  let bytes = ref 0 and last_kernel = ref 0.0 in
  let start = Host.now_ms () in
  let stop_at = start +. (1000.0 *. settings.seconds) in
  while !alive && Host.now_ms () < stop_at do
    if Host.now_ms () -. !last_kernel > Host.every_ms then begin
      subs.(!cur).kernel <- Host.kernel_us () :: subs.(!cur).kernel;
      last_kernel := Host.now_ms ()
    end;
    let iters, dt, t1, b = step () in
    while !cur < nsub - 1 && t1 >= start +. (float_of_int (!cur + 1) *. sub_ms) do
      close_sub ();
      incr cur
    done;
    let s = subs.(!cur) in
    s.reqs <- s.reqs + 1;
    s.iters <- s.iters + iters;
    s.lat <- dt :: s.lat;
    bytes := !bytes + b
  done;
  close_sub ();
  let n = Array.fold_left (fun acc s -> acc + s.reqs) 0 subs in
  if not !alive then
    fatal "daemon died mid-window after %d requests (log: %s)" n
      (Proc.daemon_log d);
  let st1 = Proc.cpu_steal () in
  let c1 = daemon_counters t d and m1 = L.manifest_seq state_dir in
  (* Runs too short to reach [rss_after] (the smoke test) read it here. *)
  let rss_kb =
    match !rss_kb with
    | Some kb -> kb
    | None -> Proc.status_kb d.Proc.pid "VmHWM"
  in
  Proc.stop d;
  let per_req x = float_of_int x /. float_of_int (max 1 n) in
  let delta names = List.fold_left (fun acc k -> acc + c1 k - c0 k) 0 names in
  let steal = fst st1 - fst st0 and total = snd st1 - snd st0 in
  {
    setup_s = setup_median (fun (_, _, s) -> s);
    setup_raw_s = setup_median (fun (_, s, _) -> s);
    prefix = Array.of_list (List.rev !prefix);
    subs;
    sub_s = sub_ms /. 1000.0;
    rss_mb = float_of_int rss_kb /. 1024.0;
    steal_share =
      (if total > 0 then float_of_int steal /. float_of_int total else 0.0);
    bytes_per_req = per_req !bytes;
    counters_per_req =
      [
        ( "admission.calls_per_req",
          per_req
            (delta [ "serve.admitted"; "serve.reconfigured"; "serve.rejected" ])
        );
        ("supervisor.calls_per_req", per_req (delta [ "serve.iterations" ]));
        ("ckpt.writes_per_req", per_req (delta [ "serve.checkpoints" ]));
        ("manifest.writes_per_req", per_req (m1 - m0));
        ("registry.revives_per_req", per_req (delta [ "serve.revived" ]));
        ("registry.evictions_per_req", per_req (delta [ "serve.evicted" ]));
      ];
  }

(* Window statistics at the reference host speed and raw, plus the
   host-speed details.  Rates are the median over sub-windows; latency
   quantiles pool every sample of the window; CPU per request sums the
   sub-windows. *)
let window_stats s =
  let median_of l = L.median (Array.of_list l) in
  let all_kernels = List.concat_map (fun sb -> sb.kernel) (Array.to_list s.subs) in
  let window_kernel = median_of all_kernels in
  let kernels =
    Array.map
      (fun sb -> if sb.kernel = [] then window_kernel else median_of sb.kernel)
      s.subs
  in
  let wall_ms = 1000.0 *. s.sub_s in
  let stats factor =
    let f = Array.map factor kernels in
    (* Latencies and rates scale by the sub-window's effective factor,
       which leaves time off the CPU alone; CPU time by the plain one. *)
    let eff =
      Array.mapi
        (fun i sb ->
          Host.effective f.(i) ~wall_ms ~cpu_ms:(sb.daemon_cpu_ms +. sb.own_cpu_ms))
        s.subs
    in
    let per_sub g = Array.mapi (fun i sb -> g i sb) s.subs in
    let rate count =
      L.median (per_sub (fun i sb -> float_of_int (count sb) /. s.sub_s /. eff.(i)))
    in
    let lat =
      per_sub (fun i sb -> Array.of_list (List.map (( *. ) eff.(i)) sb.lat))
      |> Array.to_list |> Array.concat
    in
    let sum g = Array.fold_left ( +. ) 0.0 (per_sub g) in
    let cpu_ms = sum (fun i sb -> sb.daemon_cpu_ms *. f.(i)) in
    let reqs = sum (fun _ sb -> float_of_int sb.reqs) in
    [
      ("req_per_s", rate (fun sb -> sb.reqs), "1/s");
      ("iters_per_s", rate (fun sb -> sb.iters), "1/s");
      ("p50_ms", L.quantile 0.5 lat, "ms");
      ("p99_ms", L.quantile 0.99 lat, "ms");
      ("cpu_us_per_req", 1000.0 *. cpu_ms /. Float.max 1.0 reqs, "us");
    ]
  in
  let fastest = Array.fold_left Float.min infinity kernels in
  let slow =
    Array.fold_left (fun n k -> if k > 1.25 *. fastest then n + 1 else n) 0 kernels
  in
  ( stats Host.factor,
    stats (fun _ -> 1.0),
    [
      ("kernel_us", J.Float window_kernel);
      ( "slow_share",
        J.Float (float_of_int slow /. float_of_int (Array.length kernels)) );
    ] )

(* ---------- one workload run ---------- *)

type outcome = {
  correct : bool;
  attempted : int;
  failed : int;
  end_to_end : (string * float * string) list;
  per_layer : (string * float * string) list;
  detail : (string * J.t) list;
}

let value name ms =
  let _, v, _ = List.find (fun (n, _, _) -> n = name) ms in
  v

let first_mismatch a b =
  let n = min (Array.length a) (Array.length b) in
  let rec go i =
    if i >= n then None else if a.(i) <> b.(i) then Some i else go (i + 1)
  in
  go 0

let run_workload ~tool ~settings (w : W.t) ~seed =
  let t =
    { sent = 0; failed = 0; first_failure = None; done_ = Hashtbl.create 16 }
  in
  let s = socket_run ~tool ~settings t w ~seed in
  let at_reference, raw, host = window_stats s in
  let k = Array.length s.prefix in
  let state_dir () =
    if w.persist then Some (Proc.fresh_dir "replay") else None
  in
  (* The correctness gate: the socket daemon's first responses against
     an in-process daemon fed the same lines. *)
  let gate outs =
    match first_mismatch s.prefix outs with
    | None -> true
    | Some i ->
        Printf.eprintf
          "e2e: %s: response %d differs\n  socket:     %s\n  in-process: %s\n%!"
          w.name i s.prefix.(i) outs.(i);
        false
  in
  let plain_outs, plain_ms =
    let tenants, stream = W.instantiate w ~seed in
    L.replay_plain w ~tenants ~stream ~k ~state_dir:(state_dir ())
  in
  let outputs_match = gate plain_outs in
  let per_layer, traced_match =
    if not settings.traced then ([], true)
    else begin
      let tenants, stream = W.instantiate w ~seed in
      let outs, setup, steps =
        L.replay_traced w ~tenants ~stream ~k ~state_dir:(state_dir ())
      in
      let traced_ms = L.sum (fun st -> st.L.loop_ms) steps in
      let work_dir = Proc.fresh_dir "layers" in
      let b = L.breakdown ~work_dir ~tenants ~setup ~steps in
      let socket_p50_ms = value "p50_ms" at_reference in
      ( [
          ( "server.overhead_us",
            1000.0 *. (socket_p50_ms -. b.L.inproc_p50_ms),
            "us" );
          ("server.bytes_per_req", s.bytes_per_req, "bytes");
        ]
        @ b.L.metrics
        @ List.map (fun (name, v) -> (name, v, "count")) s.counters_per_req
        @ [ ("trace.overhead_share", (traced_ms /. plain_ms) -. 1.0, "share") ],
        gate outs )
    end
  in
  Option.iter
    (Printf.eprintf "e2e: %s: first failure: %s\n%!" w.name)
    t.first_failure;
  let raw_json ms = J.Obj (List.map (fun (n, v, _) -> (n, J.Float v)) ms) in
  let samples = Array.fold_left (fun acc sb -> acc + sb.reqs) 0 s.subs in
  {
    correct = outputs_match && traced_match && t.failed = 0;
    attempted = t.sent;
    failed = t.failed;
    end_to_end =
      (("setup_s", s.setup_s, "s") :: at_reference)
      @ [ ("rss_mb", s.rss_mb, "MB") ];
    per_layer;
    detail =
      [
        ("outputs_match", J.Bool (outputs_match && traced_match));
        ("replayed", J.Int k);
        ( "fail_share",
          J.Float (float_of_int t.failed /. float_of_int (max 1 t.sent)) );
        ("samples", J.Int samples);
        ("steal_share", J.Float s.steal_share);
        ("raw", raw_json (("setup_s", s.setup_raw_s, "s") :: raw));
      ]
      @ host;
  }

(* ---------- output ---------- *)

let metrics_json ms =
  J.Obj
    (List.map
       (fun (name, v, unit) ->
         (name, J.Obj [ ("value", J.Float v); ("unit", J.String unit) ]))
       ms)

let result_json o ~traced =
  J.Obj
    [
      ("correct", J.Bool o.correct);
      ("attempted", J.Int o.attempted);
      ("failed", J.Int o.failed);
      ("metrics", metrics_json (if traced then o.per_layer else o.end_to_end));
    ]

let command_output prog args =
  match Unix.open_process_args_in prog (Array.of_list (prog :: args)) with
  | ic -> (
      let s = In_channel.input_all ic in
      match Unix.close_process_in ic with
      | Unix.WEXITED 0 -> Some (String.trim s)
      | _ -> None)
  | exception Unix.Unix_error _ -> None

(* Commit and dirty flag only when run from the root of a git checkout:
   git must not go looking for a repository above it. *)
let run_meta () =
  let commit, dirty =
    match
      if Sys.file_exists ".git" then command_output "git" [ "rev-parse"; "HEAD" ]
      else None
    with
    | Some c -> (
        ( J.String c,
          match command_output "git" [ "status"; "--porcelain" ] with
          | Some s -> J.Bool (s <> "")
          | None -> J.Null ))
    | None -> (J.String "unknown", J.Null)
  in
  [
    ("commit", commit);
    ("dirty", dirty);
    ("nproc", J.Int (Proc.nproc ()));
    ("ocaml", J.String Sys.ocaml_version);
  ]

let cmd_run ~tool ~workload ~seed ~seconds ~traced ~out ~trace_dir =
  let w =
    match W.find workload with
    | Some w -> w
    | None -> fatal "unknown workload %S" workload
  in
  let meta = run_meta () in
  Proc.init ();
  let o = run_workload ~tool ~settings:(run_settings ~seconds ~traced) w ~seed in
  let meta =
    meta
    @ [
        ("workload", J.String w.name);
        ("seed", J.Int seed);
        ("seconds", J.Float seconds);
        ("loop", J.String "closed, 1 connection");
        ("trace", J.Bool traced);
      ]
  in
  Printf.printf "e2e %s seed=%d seconds=%g trace=%b\n" w.name seed seconds traced;
  List.iter
    (fun (name, v, unit) -> Printf.printf "  %-32s %14.6g %s\n" name v unit)
    (o.end_to_end @ o.per_layer);
  let record = [ ("meta", J.Obj meta); ("detail", J.Obj o.detail) ] in
  print_endline (J.to_string (J.Obj record));
  Option.iter
    (fun dir ->
      if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
      L.write_trace
        (Filename.concat dir (Printf.sprintf "e2e-%s-%d.json" w.name seed)))
    trace_dir;
  let result = result_json o ~traced in
  Option.iter
    (fun path ->
      let flags = [ Open_append; Open_creat; Open_text ] in
      Out_channel.with_open_gen flags 0o644 path (fun oc ->
          output_string oc (J.to_string (J.Obj (record @ [ ("result", result) ])));
          output_char oc '\n'))
    out;
  print_endline (J.to_string result);
  if not o.correct then exit 1

(* ---------- BENCHMARK.json ---------- *)

type declared = { d_name : string; better : string; bound : float option }

let read_json path =
  match J.of_string (In_channel.with_open_text path In_channel.input_all) with
  | Ok j -> j
  | Error e -> fatal "%s: %s" path e
  | exception Sys_error e -> fatal "%s" e

let declared path =
  let j = read_json path in
  let entry key m =
    let str k =
      match J.member k m with
      | Some (J.String s) -> s
      | _ -> fatal "%s: %s entry without %s" path key k
    in
    let bound =
      match J.member "bound" m with
      | Some (J.Float f) -> Some f
      | Some (J.Int i) -> Some (float_of_int i)
      | _ -> None
    in
    { d_name = str "name"; better = str "better"; bound }
  in
  let list key =
    match J.member key j with
    | Some (J.List xs) -> List.map (entry key) xs
    | _ -> fatal "%s: no %s list" path key
  in
  (list "end_to_end", list "per_layer")

(* ---------- compare ---------- *)

(* (workload, metric) -> values, from a file of [--out] records. *)
let collect path =
  let tbl = Hashtbl.create 64 in
  let add workload (name, m) =
    match J.member "value" m with
    | Some (J.Float v) -> Hashtbl.add tbl (workload, name) v
    | Some (J.Int v) -> Hashtbl.add tbl (workload, name) (float_of_int v)
    | _ -> ()
  in
  In_channel.with_open_text path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> String.trim l <> "")
  |> List.iter (fun l ->
         let r = match J.of_string l with Ok j -> j | Error e -> fatal "%s: %s" path e in
         let field a b = Option.bind (J.member a r) (J.member b) in
         match (field "meta" "workload", field "result" "metrics") with
         | Some (J.String w), Some (J.Obj ms) -> List.iter (add w) ms
         | _ -> fatal "%s: a record lacks meta.workload or result.metrics" path);
  tbl

let cmd_compare ~benchmark a b =
  let e2e, layers = declared benchmark in
  let ta = collect a and tb = collect b in
  let bad = ref 0 in
  Printf.printf "%-10s %-30s %14s %14s %9s %7s\n" "workload" "metric" "median A"
    "median B" "delta" "bound";
  List.iter
    (fun (w : W.t) ->
      List.iter
        (fun d ->
          let values tbl = Array.of_list (Hashtbl.find_all tbl (w.name, d.d_name)) in
          let va = values ta and vb = values tb in
          let missing = Array.length va = 0 || Array.length vb = 0 in
          if Array.length va + Array.length vb > 0 then begin
            let ma = L.median va and mb = L.median vb in
            let delta = if ma <> 0.0 then (mb -. ma) /. Float.abs ma else 0.0 in
            let worse = if d.better = "lower" then delta else -.delta in
            let verdict =
              match d.bound with
              | _ when missing -> "MISSING"
              | Some bound when worse > bound -> "WORSE"
              | Some _ -> "ok"
              | None -> ""
            in
            if verdict = "MISSING" || verdict = "WORSE" then incr bad;
            Printf.printf "%-10s %-30s %14.6g %14.6g %+8.2f%% %7s %s\n" w.name
              d.d_name ma mb (100.0 *. delta)
              (match d.bound with
              | Some x -> Printf.sprintf "%.0f%%" (100.0 *. x)
              | None -> "-")
              verdict
          end)
        (e2e @ layers))
    W.all;
  if !bad > 0 then begin
    Printf.printf "%d metric(s) outside their bound or missing\n" !bad;
    exit 1
  end

(* ---------- smoke ---------- *)

(* About a second per workload, fixed seed: the output schema, the
   correctness gate and every declared metric are checked, no timing. *)
let cmd_smoke ~tool ~benchmark =
  let e2e, layers = declared benchmark in
  Proc.init ();
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  List.iter
    (fun (w : W.t) ->
      let o = run_workload ~tool ~settings:smoke_settings w ~seed:1 in
      Printf.printf "smoke %s: correct=%b attempted=%d failed=%d\n%!" w.name
        o.correct o.attempted o.failed;
      if not o.correct then problem "%s: outputs differ or requests failed" w.name;
      let present ms (d : declared) =
        match List.find_opt (fun (n, _, _) -> n = d.d_name) ms with
        | None -> problem "%s: metric %s missing" w.name d.d_name
        | Some (_, v, _) when not (Float.is_finite v) ->
            problem "%s: metric %s = %g" w.name d.d_name v
        | Some _ -> ()
      in
      List.iter (present o.end_to_end) e2e;
      List.iter (present o.per_layer) layers;
      List.iter
        (fun (n, v, _) ->
          if v <= 0.0 then problem "%s: end-to-end metric %s = %g" w.name n v)
        o.end_to_end;
      let declared = List.map (fun d -> d.d_name) (e2e @ layers) in
      List.iter
        (fun (n, _, _) ->
          if not (List.mem n declared) then
            problem "%s: metric %s not declared" w.name n)
        (o.end_to_end @ o.per_layer);
      let line = J.to_string (result_json o ~traced:true) in
      match J.of_string line with
      | Ok (J.Obj fields)
        when List.map fst fields = [ "correct"; "attempted"; "failed"; "metrics" ]
        ->
          ()
      | _ -> problem "%s: result line has the wrong shape: %s" w.name line)
    W.all;
  match List.rev !problems with
  | [] -> print_endline "smoke: OK"
  | ps ->
      List.iter (Printf.eprintf "smoke: %s\n") ps;
      exit 1

(* ---------- command line ---------- *)

let () =
  let tool = ref "_build/default/bin/tpdf_tool.exe" in
  let benchmark = ref "BENCHMARK.json" in
  let workload = ref "" and seed = ref 1 and seconds = ref 20.0 in
  let trace = ref 0 and out = ref None and trace_dir = ref None in
  let anon = ref [] in
  let specs =
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N workload seed (default 1)");
      ("--seconds", Arg.Set_float seconds, "S measured window (default 20)");
      ("--trace", Arg.Set_int trace, "0|1 report the per-layer metrics");
      ("--tool", Arg.Set_string tool, "PATH tpdf_tool executable");
      ( "--out",
        Arg.String (fun s -> out := Some s),
        "FILE append the run's record to FILE" );
      ( "--trace-dir",
        Arg.String (fun s -> trace_dir := Some s),
        "DIR write the spans as Chrome JSON" );
      ("--benchmark", Arg.Set_string benchmark, "FILE BENCHMARK.json");
    ]
  in
  let usage = "e2e.exe [compare A B | smoke] [options]" in
  (try Arg.parse_argv Sys.argv specs (fun a -> anon := a :: !anon) usage with
  | Arg.Bad m | Arg.Help m ->
      prerr_string m;
      exit 2);
  try
    match List.rev !anon with
    | [ "compare"; a; b ] -> cmd_compare ~benchmark:!benchmark a b
    | [ "smoke" ] -> cmd_smoke ~tool:!tool ~benchmark:!benchmark
    | [] ->
        if !workload = "" then fatal "--workload is required";
        if !trace <> 0 && !trace <> 1 then fatal "--trace takes 0 or 1";
        if !seconds <= 0.0 then fatal "--seconds must be positive";
        cmd_run ~tool:!tool ~workload:!workload ~seed:!seed ~seconds:!seconds
          ~traced:(!trace = 1) ~out:!out ~trace_dir:!trace_dir
    | _ ->
        prerr_endline usage;
        exit 2
  with Fatal msg ->
    Printf.eprintf "e2e: %s\n%!" msg;
    exit 1
