(* In-process replay of a workload's stream prefix, with spans per
   request and a per-layer breakdown.

   Everything here times calls into each layer's public functions from
   outside; nothing inside lib/ is instrumented.  Times are at the
   reference host speed ({!Host}); spans keep wall time.

   {b Request spans.}  Each replayed request gets a [request] span whose
   children are [json.decode] ([Json.of_string]), [daemon.handle]
   ([Daemon.handle]) and [json.encode] ([Json.to_string]) — together
   exactly what [Daemon.handle_line] does for a request without an
   idempotency key, so the replay's response lines must equal the
   socket daemon's byte for byte.

   {b Layer replay.}  Under a [replay] span, the layers [Daemon.handle]
   calls into are timed one by one on the workload's own graphs,
   valuations and checkpoints: [Admission.check], one resumed
   [Fault.Chaos.run] iteration (as [Daemon.advance_hot] runs it), a bare
   [Engine.create] and [Engine.run_outcome] of the same iteration,
   [Registry.export], [Atomic_file.write] of the exported bytes,
   [Registry.save_manifest] and [Registry.revive].

   {b Attribution.}  After each replayed request the daemon's own
   counters ([Daemon.metrics]: iterations, checkpoints, revives,
   evictions, admissions) and the manifest sequence number on disk say
   how many times the request called each layer; multiplied by the
   layer's unit time this gives the attributed time, and [daemon.handle]
   time minus it is the residual. *)

module D = Tpdf_serve.Daemon
module J = Tpdf_serve.Json
module R = Tpdf_serve.Registry
module Admission = Tpdf_serve.Admission
module Event = Tpdf_obs.Event
module Fault = Tpdf_fault
module Engine = Tpdf_sim.Engine
module Valuation = Tpdf_param.Valuation
module Graph = Tpdf_core.Graph
module W = Workload

let now_ms = Host.now_ms

(* ---------- spans ---------- *)

let spans : Event.t list ref = ref []

let span ?(args = []) ~track name ts_ms dur_ms =
  let payload = Event.Span dur_ms in
  spans :=
    { Event.name; cat = "e2e"; track; clock = Event.Wall; ts_ms; payload; args }
    :: !spans

(* [f ()], its start, its wall time, and its time at the reference host
   speed, all in ms. *)
let measure f =
  let t0 = now_ms () and c0 = Host.self_cpu_ms () in
  let v = f () in
  let dt = now_ms () -. t0 and dc = Host.self_cpu_ms () -. c0 in
  let f = Host.current_factor () in
  (v, t0, dt, dt *. Host.effective f ~wall_ms:dt ~cpu_ms:dc)

(* [measure] that also records a span. *)
let timed ?args ~track name f =
  let v, t0, dt, at_ref = measure f in
  span ?args ~track name t0 dt;
  (v, at_ref)

let write_trace path = Tpdf_obs.Chrome.write_file path (List.rev !spans)

(* ---------- statistics ---------- *)

let quantile q xs =
  match Array.length xs with
  | 0 -> 0.0
  | n ->
      let a = Array.copy xs in
      Array.sort compare a;
      let pos = q *. float_of_int (n - 1) in
      let i = int_of_float pos in
      if i >= n - 1 then a.(n - 1)
      else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median xs = quantile 0.5 xs
let sum f xs = List.fold_left (fun acc x -> acc +. f x) 0.0 xs

(* Weighted mean of [f] over [xs]; 0 when the weights sum to 0. *)
let wmean ~weight f xs =
  let w = sum weight xs in
  if w = 0.0 then 0.0 else sum (fun x -> weight x *. f x) xs /. w

(* ---------- replays ---------- *)

let create_daemon (w : W.t) ~state_dir =
  let cfg =
    { D.default_config with D.state_dir; max_resident = w.max_resident }
  in
  match D.create cfg with
  | Ok d -> d
  | Error e -> failwith ("Daemon.create: " ^ e)

let manifest_seq = function
  | None -> 0
  | Some dir ->
      let module S = Tpdf_ckpt.Ckpt.Store in
      let store = S.open_dir (Filename.concat dir "manifest") in
      List.fold_left max 0 (S.seqs store)

(* Untraced replay: the response lines and the time of the stream part. *)
let replay_plain w ~tenants ~stream ~k ~state_dir =
  let d = create_daemon w ~state_dir in
  List.iteri (fun i tn -> ignore (D.handle_line d (W.submit_line i tn))) tenants;
  let total = ref 0.0 in
  let out =
    Array.init k (fun _ ->
        let line = (stream ()).W.line in
        let resp, _, _, dt = measure (fun () -> D.handle_line d line) in
        total := !total +. dt;
        resp)
  in
  (out, !total)

(* Layer calls one request made, read from the daemon's counters. *)
type calls = {
  iterations : int;
  admissions : int;
  checkpoints : int;
  evictions : int;
  revives : int;
  manifests : int;
}

let read_calls d state_dir =
  let c name = Tpdf_obs.Metrics.counter (D.metrics d) ("serve." ^ name) in
  {
    iterations = c "iterations";
    admissions = c "admitted" + c "reconfigured" + c "rejected";
    checkpoints = c "checkpoints";
    evictions = c "evicted";
    revives = c "revived";
    manifests = manifest_seq state_dir;
  }

let diff a b =
  {
    iterations = b.iterations - a.iterations;
    admissions = b.admissions - a.admissions;
    checkpoints = b.checkpoints - a.checkpoints;
    evictions = b.evictions - a.evictions;
    revives = b.revives - a.revives;
    manifests = b.manifests - a.manifests;
  }

type step = {
  op : string;
  key : string * (string * int) list;
      (** the tenant's graph and valuation the request ran on *)
  decode_ms : float;
  handle_ms : float;
  encode_ms : float;
  alloc_words : float;  (** allocated during [Daemon.handle] *)
  calls : calls;
  loop_ms : float;  (** the request with all its tracing *)
}

let alloc_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

let op_name (r : W.req) =
  match r.op with
  | W.Advance _ -> "advance"
  | W.Reconfigure _ -> "reconfigure"
  | W.Query -> "query"

(* Traced replay: spans per request, per-request layer calls, and the
   response lines. *)
let replay_traced w ~tenants ~stream ~k ~state_dir =
  let d = create_daemon w ~state_dir in
  let src = Hashtbl.create 16 and cur = Hashtbl.create 16 in
  List.iter
    (fun (tn : W.tenant) ->
      Hashtbl.replace src tn.name tn.src;
      Hashtbl.replace cur tn.name tn.params)
    tenants;
  let traced ~id ~op ~tenant ~key line () =
    let before = read_calls d state_dir in
    let t0 = now_ms () in
    let timed = timed ~track:"request" in
    let req, decode_ms = timed "json.decode" (fun () -> J.of_string line) in
    let req = match req with Ok r -> r | Error e -> failwith e in
    let a0 = alloc_words () in
    let resp, handle_ms = timed "daemon.handle" (fun () -> D.handle d req) in
    let alloc_words = alloc_words () -. a0 in
    let out, encode_ms = timed "json.encode" (fun () -> J.to_string resp) in
    let args =
      [
        ("id", Event.Str id);
        ("op", Event.Str op);
        ("tenant", Event.Str tenant);
      ]
    in
    span ~track:"request" "request" t0 (now_ms () -. t0) ~args;
    let calls = diff before (read_calls d state_dir) in
    let step =
      { op; key; decode_ms; handle_ms; encode_ms; alloc_words; calls;
        loop_ms = 0.0 }
    in
    (out, resp, step)
  in
  let one ~id ~op ~tenant ~key line =
    let (out, resp, step), _, _, loop_ms =
      measure (traced ~id ~op ~tenant ~key line)
    in
    (out, resp, { step with loop_ms })
  in
  let setup =
    List.mapi
      (fun i (tn : W.tenant) ->
        let id = Printf.sprintf "s%d" i and key = (tn.src, tn.params) in
        let _, _, step =
          one ~id ~op:"submit" ~tenant:tn.name ~key (W.submit_line i tn)
        in
        step)
      tenants
  in
  let outs = Array.make k "" in
  let steps =
    List.init k (fun i ->
        let (r : W.req) = stream () in
        let params =
          match r.op with
          | W.Reconfigure ps -> ps
          | _ -> Hashtbl.find cur r.tenant
        in
        let out, resp, step =
          one ~id:(string_of_int r.id) ~op:(op_name r) ~tenant:r.tenant
            ~key:(Hashtbl.find src r.tenant, params)
            r.line
        in
        outs.(i) <- out;
        if J.member "ok" resp = Some (J.Bool true) then
          Hashtbl.replace cur r.tenant params;
        step)
  in
  (outs, setup, steps)

(* ---------- layer replay ---------- *)

type unit_cost = {
  admission_ms : float;
  sup_iter_us : float;
  create_us : float;
  run_us : float;
  firings : float;
  encode_us : float;
  bytes : float;
  write_ms : float;
  revive_ms : float;
}

let reps = 15

(* Median time of [reps] calls of [f (prepare ())] after one untimed
   warm call; [prepare] is not timed.  Each timed call is a span under
   the [replay] track. *)
let time_prepared ~name ~label ~prepare f =
  ignore (f (prepare ()));
  let args = [ ("config", Event.Str label) ] in
  median
    (Array.init reps (fun _ ->
         let x = prepare () in
         snd (timed ~track:"replay" name ~args (fun () -> f x))))

let time_ms ~name ~label f = time_prepared ~name ~label ~prepare:ignore f

let parse src =
  match Tpdf_core.Serial.of_string src with
  | Ok g -> g
  | Error e -> failwith e

(* The tenant configuration [Daemon.h_submit] builds from a bare submit. *)
let tenant_cfg src : R.cfg =
  {
    R.c_graph = parse src;
    c_src = src;
    c_seed = 0;
    c_faults = "";
    c_specs = [];
    c_retries = 2;
    c_backoff_ms = 0.5;
    c_degrade_after = 3;
    c_max_restarts = 0;
    c_deadlines_ms = [];
    c_deadline_ms = None;
    c_budget = None;
  }

let unit_cost ~work_dir (src, params) =
  let label =
    String.concat ","
      (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) params)
  in
  let cfg = tenant_cfg src in
  let graph = cfg.R.c_graph and valuation = Valuation.of_list params in
  let check () = Admission.check ~graph ~valuation () in
  let admission_ms = time_ms ~name:"admission.check" ~label check in
  let cost, period_ms =
    match check () with
    | Admission.Admitted v -> (v.Admission.cost, v.Admission.period_ms)
    | Admission.Rejected r -> failwith ("workload graph is inadmissible: " ^ r)
  in
  (* One supervised iteration to [target], resumed from [resume], exactly
     as [Daemon.advance_hot] steps a tenant. *)
  let policy =
    Fault.Policy.make ~max_retries:cfg.R.c_retries
      ~retry_backoff_ms:cfg.R.c_backoff_ms ~deadlines_ms:[]
      ~degrade_after:cfg.R.c_degrade_after ~max_restarts:cfg.R.c_max_restarts
      ~fallbacks:(Fault.Chaos.default_fallbacks graph) ()
  in
  let step ?resume target =
    let last = ref None in
    ignore
      (Fault.Chaos.run ~graph ~seed:0 ~specs:[] ~policy ~iterations:target
         ~checkpoint_every:1
         ~on_checkpoint:(fun ck -> last := Some ck)
         ?resume ~valuation ());
    Option.get !last
  in
  let ck = step 1 in
  (* The same iteration on a bare engine: the scenario's control
     behaviours, filled kernels, starved actors zeroed. *)
  let scenario = Fault.Chaos.default_scenario graph in
  let behavior a =
    if Graph.is_control graph a then
      Tpdf_sim.Reconfigure.scenario_control_behavior graph scenario
    else Tpdf_sim.Behavior.fill 0
  in
  let behaviors = List.map (fun a -> (a, behavior a)) (Graph.actors graph) in
  let targets =
    List.map (fun a -> (a, 0))
      (Tpdf_sim.Reconfigure.starved_actors graph scenario)
  in
  let create () = Engine.create ~graph ~valuation ~behaviors ~default:0 () in
  let run eng =
    match Engine.run_outcome ~targets eng with
    | Engine.Completed st ->
        List.fold_left (fun acc (_, n) -> acc + n) 0 st.Engine.firings
    | _ -> failwith "engine replay did not complete"
  in
  let firings = run (create ()) in
  ignore (step ~resume:ck 2);
  (* Supervisor time is the supervised iteration minus the bare create
     and run, so the three are timed together in each round and see the
     same host speed. *)
  let args = [ ("config", Event.Str label) ] in
  let timed name f = timed ~track:"replay" name ~args f in
  let rounds =
    Array.init reps (fun _ ->
        let eng, create_ms = timed "engine.create" create in
        let _, run_ms = timed "engine.run" (fun () -> run eng) in
        let _, sup_ms = timed "supervisor.iteration" (fun () -> step ~resume:ck 2) in
        (create_ms, run_ms, sup_ms))
  in
  let med f = median (Array.map f rounds) in
  let create_ms = med (fun (c, _, _) -> c) in
  let run_ms = med (fun (_, r, _) -> r) in
  let sup_iter_ms = med (fun (_, _, s) -> s) in
  let tn =
    R.mk_tenant ~name:"probe" ~cfg ~valuation ~cost ~period_ms
      ~status:R.Running
  in
  (Option.get tn.R.t_hot).R.h_ck <- Some ck;
  tn.R.t_done <- 1;
  let export () = match R.export tn with Ok s -> s | Error e -> failwith e in
  let bytes = export () in
  let encode_ms = time_ms ~name:"ckpt.encode" ~label export in
  let file = Filename.concat work_dir "probe.tpdfckpt" in
  let write_ms =
    time_ms ~name:"ckpt.write" ~label (fun () ->
        Tpdf_util.Atomic_file.write file bytes)
  in
  (* Revive a cold tenant from its own checkpoint file; the eviction that
     makes it cold is not timed. *)
  let reg = R.create ~dir:work_dir () in
  R.add reg tn;
  let revive_ms =
    time_prepared ~name:"registry.revive" ~label
      ~prepare:(fun () -> ignore (R.evict reg tn))
      (fun () -> R.revive reg tn)
  in
  R.remove reg "probe";
  {
    admission_ms;
    sup_iter_us = 1000.0 *. sup_iter_ms;
    create_us = 1000.0 *. create_ms;
    run_us = 1000.0 *. run_ms;
    firings = float_of_int firings;
    encode_us = 1000.0 *. encode_ms;
    bytes = float_of_int (String.length bytes);
    write_ms;
    revive_ms;
  }

(* [Registry.save_manifest] of a registry holding the workload's fleet. *)
let manifest_ms ~work_dir (tenants : W.tenant list) =
  let reg = R.create ~dir:work_dir () in
  List.iter
    (fun (tn : W.tenant) ->
      R.add reg
        (R.mk_tenant ~name:tn.name ~cfg:(tenant_cfg tn.src)
           ~valuation:(Valuation.of_list tn.params) ~cost:1 ~period_ms:1.0
           ~status:R.Running))
    tenants;
  let counters =
    List.map (fun n -> ("serve." ^ n, 1000))
      [ "requests"; "iterations"; "firings"; "admitted"; "checkpoints" ]
  in
  time_ms ~name:"manifest.write" ~label:"fleet" (fun () ->
      R.save_manifest reg ~counters)

(* ---------- breakdown ---------- *)

type breakdown = {
  metrics : (string * float * string) list;  (** name, value, unit *)
  inproc_p50_ms : float;  (** decode + handle + encode, stream requests *)
}

let breakdown ~work_dir ~tenants ~setup ~steps =
  let t0 = now_ms () in
  let units = Hashtbl.create 8 in
  let u s =
    match Hashtbl.find_opt units s.key with
    | Some u -> u
    | None ->
        let u = unit_cost ~work_dir s.key in
        Hashtbl.replace units s.key u;
        u
  in
  List.iter (fun s -> ignore (u s)) (setup @ steps);
  let manifest_ms = manifest_ms ~work_dir tenants in
  span ~track:"replay" "replay" t0 (now_ms () -. t0);
  let ckpt_ms u = (u.encode_us /. 1000.0) +. u.write_ms in
  let all_units = List.of_seq (Hashtbl.to_seq_values units) in
  let victim_ckpt_ms = wmean ~weight:(fun _ -> 1.0) ckpt_ms all_units in
  let iters s = float_of_int s.calls.iterations in
  let times n x = float_of_int n *. x in
  (* Attributed milliseconds per layer for one request. *)
  let layers =
    [
      ("engine.run_share", fun s -> iters s *. (u s).run_us /. 1000.0);
      ("engine.create_share", fun s -> iters s *. (u s).create_us /. 1000.0);
      ( "supervisor.self_share",
        fun s ->
          let u = u s in
          let self = u.sup_iter_us -. u.create_us -. u.run_us in
          iters s *. Float.max 0.0 self /. 1000.0 );
      ("admission.share", fun s -> times s.calls.admissions (u s).admission_ms);
      ( "ckpt.share",
        fun s ->
          times s.calls.checkpoints (ckpt_ms (u s))
          +. times s.calls.evictions victim_ckpt_ms );
      ("manifest.share", fun s -> times s.calls.manifests manifest_ms);
      ("registry.revive_share", fun s -> times s.calls.revives (u s).revive_ms);
    ]
  in
  let attributed s = sum (fun (_, f) -> f s) layers in
  let n = float_of_int (max 1 (List.length steps)) in
  let handle_total = sum (fun s -> s.handle_ms) steps in
  let share f =
    if handle_total > 0.0 then sum f steps /. handle_total else 0.0
  in
  let p50 f xs = median (Array.of_list (List.map f xs)) in
  let handle_p50 op =
    match List.filter (fun s -> s.op = op) (setup @ steps) with
    | [] -> 0.0
    | xs -> 1000.0 *. p50 (fun s -> s.handle_ms) xs
  in
  let admission_steps =
    match List.filter (fun s -> s.calls.admissions > 0) steps with
    | [] -> setup
    | xs -> xs
  in
  let per_iter f = wmean ~weight:iters f steps in
  let per_req f = wmean ~weight:(fun _ -> 1.0) f steps in
  let run_us = per_iter (fun s -> (u s).run_us) in
  let firings = per_iter (fun s -> (u s).firings) in
  let sup_iter_us = per_iter (fun s -> (u s).sup_iter_us) in
  let create_us = per_iter (fun s -> (u s).create_us) in
  {
    inproc_p50_ms =
      p50 (fun s -> s.decode_ms +. s.handle_ms +. s.encode_ms) steps;
    metrics =
      [
        ("json.decode_us", 1000.0 *. p50 (fun s -> s.decode_ms) steps, "us");
        ("json.encode_us", 1000.0 *. p50 (fun s -> s.encode_ms) steps, "us");
        ("daemon.handle_us.advance", handle_p50 "advance", "us");
        ("daemon.handle_us.reconfigure", handle_p50 "reconfigure", "us");
        ("daemon.handle_us.query", handle_p50 "query", "us");
        ("daemon.handle_us.submit", handle_p50 "submit", "us");
        ( "daemon.alloc_words_per_req",
          sum (fun s -> s.alloc_words) steps /. n,
          "words" );
        ( "daemon.residual_us",
          1000.0 *. (handle_total -. sum attributed steps) /. n,
          "us" );
        ( "admission.check_ms",
          wmean
            ~weight:(fun s -> float_of_int s.calls.admissions)
            (fun s -> (u s).admission_ms)
            admission_steps,
          "ms" );
        ("supervisor.iter_us", sup_iter_us, "us");
        ( "supervisor.self_us",
          Float.max 0.0 (sup_iter_us -. create_us -. run_us),
          "us" );
        ("engine.create_us", create_us, "us");
        ("engine.run_us_per_iter", run_us, "us");
        ("engine.firings_per_iter", firings, "count");
        ( "engine.firings_per_s",
          (if run_us > 0.0 then firings /. (run_us /. 1e6) else 0.0),
          "1/s" );
        ("ckpt.encode_us", per_req (fun s -> (u s).encode_us), "us");
        ("ckpt.bytes", per_req (fun s -> (u s).bytes), "bytes");
        ("ckpt.write_ms", per_req (fun s -> (u s).write_ms), "ms");
        ("manifest.write_ms", manifest_ms, "ms");
        ("registry.revive_ms", per_req (fun s -> (u s).revive_ms), "ms");
      ]
      @ List.map (fun (name, f) -> (name, share f, "share")) layers
      @ [ ("layers.coverage", share attributed, "share") ];
  }
