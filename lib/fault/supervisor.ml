module Tpdf = Tpdf_core
module Csdf = Tpdf_csdf
module Engine = Tpdf_sim.Engine
module Behavior = Tpdf_sim.Behavior
module Reconfigure = Tpdf_sim.Reconfigure
module Token = Tpdf_sim.Token
module Obs = Tpdf_obs.Obs
module Ev = Tpdf_obs.Event
module Metrics = Tpdf_obs.Metrics

(* Everything the supervisor needs to continue a run after a crash: the
   summary counters, the recovery tables, the effective scenario of the
   most recent (possibly in-flight) iteration, and — when the kill landed
   mid-iteration — the engine snapshot.  [Tpdf_ckpt] persists this via
   {!checkpoint_meta}; the supervisor itself stays byte-format-agnostic. *)
type checkpoint = {
  ck_iterations_run : int;  (** iterations fully completed *)
  ck_offset_ms : float;
  ck_retries : int;
  ck_skips : int;
  ck_corrupted : int;
  ck_ctrl_lost : int;
  ck_deadline_misses : int;
  ck_deadline_hits : int;
  ck_restarts : int;
  ck_degrades : (string * string) list;  (** newest first, as kept live *)
  ck_consecutive : (string * int) list;
  ck_tripped : string list;
  ck_degraded : (string * string) list;
  ck_base_index : (string * int) list;
  ck_last_ctrl : (int * string) list;
  ck_scenario : Reconfigure.scenario;
  ck_engine : Tpdf_sim.Snapshot.t option;  (** [None]: at a boundary *)
}

type summary = {
  iterations_run : int;
  total_end_ms : float;
  retries : int;
  skips : int;
  corrupted : int;
  ctrl_lost : int;
  deadline_misses : int;
  deadline_hits : int;
  restarts : int;
  degrades : (string * string) list;
  unrecovered : string option;
  killed : checkpoint option;
  per_iteration : Engine.stats list;
}

let pp_summary ppf s =
  Format.fprintf ppf
    "@[<v>%d iteration(s), %.3f ms total@,\
     retries %d, skips %d, corrupted %d, ctrl lost %d@,\
     deadline hits %d, misses %d"
    s.iterations_run s.total_end_ms s.retries s.skips s.corrupted s.ctrl_lost
    s.deadline_hits s.deadline_misses;
  if s.restarts > 0 then Format.fprintf ppf "@,restarts %d" s.restarts;
  List.iter
    (fun (k, m) -> Format.fprintf ppf "@,degraded %s -> %s" k m)
    s.degrades;
  (match s.unrecovered with
  | Some why -> Format.fprintf ppf "@,UNRECOVERED: %s" why
  | None -> ());
  (match s.killed with
  | Some ck ->
      Format.fprintf ppf "@,KILLED after %d iteration(s)%s" ck.ck_iterations_run
        (if ck.ck_engine = None then "" else " (mid-iteration)")
  | None -> ());
  Format.fprintf ppf "@]"

(* ------------------------------------------------------------------ *)
(* Checkpoint <-> string-assoc codec                                   *)
(*                                                                     *)
(* The supervisor stays independent of the on-disk format: it trades   *)
(* checkpoints as [(key, value)] metadata (lists packed with newline/  *)
(* tab separators — names in a graph cannot contain either) plus the   *)
(* engine snapshot, which [Tpdf_ckpt] carries natively.                *)
(* ------------------------------------------------------------------ *)

let ck_atom what s =
  if String.exists (fun c -> c = '\t' || c = '\n') s then
    invalid_arg
      (Printf.sprintf "Supervisor.checkpoint_meta: %s %S contains tab/newline"
         what s)
  else s

let enc_list enc items = String.concat "\n" (List.map enc items)
let enc_pair what (a, b) = ck_atom what a ^ "\t" ^ ck_atom what b

let dec_list dec s =
  if s = "" then Ok []
  else
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | item :: rest -> (
          match dec item with
          | Ok v -> go (v :: acc) rest
          | Error _ as e -> e)
    in
    go [] (String.split_on_char '\n' s)

let dec_pair item =
  match String.split_on_char '\t' item with
  | [ a; b ] -> Ok (a, b)
  | _ -> Error (Printf.sprintf "malformed pair %S" item)

let checkpoint_meta ck =
  let pair_list what l = enc_list (enc_pair what) l in
  [
    ("iterations_run", string_of_int ck.ck_iterations_run);
    ("offset_ms", Printf.sprintf "%h" ck.ck_offset_ms);
    ("retries", string_of_int ck.ck_retries);
    ("skips", string_of_int ck.ck_skips);
    ("corrupted", string_of_int ck.ck_corrupted);
    ("ctrl_lost", string_of_int ck.ck_ctrl_lost);
    ("deadline_misses", string_of_int ck.ck_deadline_misses);
    ("deadline_hits", string_of_int ck.ck_deadline_hits);
    ("restarts", string_of_int ck.ck_restarts);
    ("degrades", pair_list "degrade" ck.ck_degrades);
    ( "consecutive",
      pair_list "actor"
        (List.map (fun (a, n) -> (a, string_of_int n)) ck.ck_consecutive) );
    ("tripped", enc_list (ck_atom "actor") ck.ck_tripped);
    ("degraded", pair_list "pin" ck.ck_degraded);
    ( "base_index",
      pair_list "actor"
        (List.map (fun (a, n) -> (a, string_of_int n)) ck.ck_base_index) );
    ( "last_ctrl",
      pair_list "mode"
        (List.map (fun (ch, m) -> (string_of_int ch, m)) ck.ck_last_ctrl) );
    ("scenario", pair_list "pin" ck.ck_scenario);
  ]

let checkpoint_of_meta ?snapshot meta =
  let ( let* ) = Result.bind in
  let get key =
    match List.assoc_opt key meta with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "checkpoint metadata misses %S" key)
  in
  let int_field key =
    let* v = get key in
    match int_of_string_opt v with
    | Some n -> Ok n
    | None -> Error (Printf.sprintf "checkpoint field %s: bad integer %S" key v)
  in
  let int_snd (a, b) =
    match int_of_string_opt b with
    | Some n -> Ok (a, n)
    | None -> Error (Printf.sprintf "bad integer %S" b)
  in
  let pair_list key dec =
    let* v = get key in
    dec_list (fun item -> Result.bind (dec_pair item) dec) v
  in
  let* ck_iterations_run = int_field "iterations_run" in
  let* ck_offset_ms =
    let* v = get "offset_ms" in
    match float_of_string_opt v with
    | Some f -> Ok f
    | None -> Error (Printf.sprintf "checkpoint field offset_ms: bad float %S" v)
  in
  let* ck_retries = int_field "retries" in
  let* ck_skips = int_field "skips" in
  let* ck_corrupted = int_field "corrupted" in
  let* ck_ctrl_lost = int_field "ctrl_lost" in
  let* ck_deadline_misses = int_field "deadline_misses" in
  let* ck_deadline_hits = int_field "deadline_hits" in
  let* ck_restarts = int_field "restarts" in
  let* ck_degrades = pair_list "degrades" Result.ok in
  let* ck_consecutive = pair_list "consecutive" int_snd in
  let* ck_tripped = Result.bind (get "tripped") (dec_list Result.ok) in
  let* ck_degraded = pair_list "degraded" Result.ok in
  let* ck_base_index = pair_list "base_index" int_snd in
  let* ck_last_ctrl =
    pair_list "last_ctrl" (fun (ch, m) ->
        match int_of_string_opt ch with
        | Some ch -> Ok (ch, m)
        | None -> Error (Printf.sprintf "bad channel id %S" ch))
  in
  let* ck_scenario = pair_list "scenario" Result.ok in
  Ok
    {
      ck_iterations_run;
      ck_offset_ms;
      ck_retries;
      ck_skips;
      ck_corrupted;
      ck_ctrl_lost;
      ck_deadline_misses;
      ck_deadline_hits;
      ck_restarts;
      ck_degrades;
      ck_consecutive;
      ck_tripped;
      ck_degraded;
      ck_base_index;
      ck_last_ctrl;
      ck_scenario;
      ck_engine = snapshot;
    }

type state = {
  graph : Tpdf.Graph.t;
  plan : Plan.t;
  policy : Policy.t;
  mutable obs : Obs.t;  (* shifted view for the current iteration *)
  mutable retries : int;
  mutable skips : int;
  mutable corrupted : int;
  mutable ctrl_lost : int;
  mutable deadline_misses : int;
  mutable deadline_hits : int;
  mutable degrades : (string * string) list;  (* newest first *)
  consecutive : (string, int) Hashtbl.t;  (* watch actor -> bad streak *)
  tripped : (string, unit) Hashtbl.t;  (* watch actors already degraded *)
  degraded : (string, string) Hashtbl.t;  (* kernel -> pinned fallback mode *)
  base_index : (string, int) Hashtbl.t;  (* firings before this iteration *)
  skipped_now : (string, unit) Hashtbl.t;  (* actors whose current firing
                                              was substituted *)
  last_ctrl : (int, string) Hashtbl.t;  (* control channel -> last mode *)
  lock : Mutex.t;
      (* With a pooled engine the [work] wrappers of same-instant firings
         run on different domains; every access to the mutable state
         above goes through [locked].  The final values are still
         deterministic — counters commute and the hashtables are keyed
         per actor / per control channel, which same-instant firings
         touch disjointly — with one documented exception: if two watch
         actors trip at the same virtual instant, the order of their
         [degrades] entries follows actor scheduling (obs streams and
         metrics are unaffected; they are capture-spliced by the
         engine).  Firings of the same actor never overlap, so the
         wrapper's read-modify-write sequences stay atomic enough under
         the single lock. *)
}

let get tbl key = match Hashtbl.find_opt tbl key with Some v -> v | None -> 0

let locked st f =
  Mutex.lock st.lock;
  match f () with
  | v ->
      Mutex.unlock st.lock;
      v
  | exception e ->
      Mutex.unlock st.lock;
      raise e

let metric st name actor =
  let m = Obs.metrics st.obs in
  Metrics.incr m ("supervisor." ^ name);
  Metrics.incr m ("supervisor." ^ name ^ "." ^ actor)

let instant st ~cat ~track ~name ~ts args =
  if Obs.enabled st.obs then
    Obs.instant st.obs ~cat ~track ~name ~ts_ms:ts ~args ()

(* Trip every fallback watching [actor]: apply its pins for the following
   iterations and record the degrade instants. *)
let trip st ~actor ~ts =
  List.iter
    (fun (fb : Policy.fallback) ->
      if fb.watch = actor then
        List.iter
          (fun (kernel, mode) ->
            if Hashtbl.find_opt st.degraded kernel <> Some mode then begin
              Hashtbl.replace st.degraded kernel mode;
              st.degrades <- (kernel, mode) :: st.degrades;
              metric st "degrades" kernel;
              instant st ~cat:"supervisor" ~track:kernel ~name:"degrade" ~ts
                [
                  ("kernel", Ev.Str kernel);
                  ("mode", Ev.Str mode);
                  ("watch", Ev.Str actor);
                ]
            end)
          fb.pins)
    st.policy.Policy.fallbacks

let note_bad st ~actor ~ts =
  Hashtbl.replace st.consecutive actor (get st.consecutive actor + 1);
  if
    get st.consecutive actor >= st.policy.Policy.degrade_after
    && not (Hashtbl.mem st.tripped actor)
  then begin
    Hashtbl.replace st.tripped actor ();
    Hashtbl.replace st.consecutive actor 0;
    trip st ~actor ~ts
  end

let note_good st ~actor = Hashtbl.replace st.consecutive actor 0

let fail_count faults =
  List.fold_left
    (fun acc -> function Fault.Fail n -> acc + n | _ -> acc)
    0 faults

(* The mode a substituted control token should carry: the last mode emitted
   on that channel, else the mode the effective scenario pins the
   destination to. *)
let substitute_mode st ch =
  match Hashtbl.find_opt st.last_ctrl ch with
  | Some m -> m
  | None -> (
      let e = Csdf.Graph.channel (Tpdf.Graph.skeleton st.graph) ch in
      match Hashtbl.find_opt st.degraded e.Tpdf_graph.Digraph.dst with
      | Some m -> m
      | None -> (
          match Tpdf.Graph.modes st.graph e.Tpdf_graph.Digraph.dst with
          | m :: _ -> m.Tpdf.Mode.name
          | [] -> "default"))

(* Remember the mode each control channel last carried. *)
let record_ctrl st ~is_ctrl_chan outputs =
  locked st (fun () ->
      List.iter
        (fun (ch, toks) ->
          if is_ctrl_chan ch then
            List.iter
              (function
                | Token.Ctrl m -> Hashtbl.replace st.last_ctrl ch m
                | Token.Data _ -> ())
              toks)
        outputs)

(* The fault-injecting wrapper: draws the plan's faults for every firing
   and applies the policy to them. *)
let wrap_faulty st ~default ~corrupt ~is_ctrl_chan actor (b : 'a Behavior.t) :
    'a Behavior.t =
  let global_index ctx = get st.base_index actor + ctx.Behavior.index in
  let work ctx =
    let faults = Plan.draw st.plan ~actor ~index:(global_index ctx) in
    let ts = ctx.Behavior.now_ms in
    let fails = fail_count faults in
    locked st (fun () -> Hashtbl.remove st.skipped_now actor);
    let outputs =
      if fails = 0 then b.Behavior.work ctx
      else begin
        let budget = st.policy.Policy.max_retries in
        let absorbed = min fails budget in
        locked st (fun () -> st.retries <- st.retries + absorbed);
        Metrics.incr ~by:absorbed (Obs.metrics st.obs) "supervisor.retries";
        Metrics.incr ~by:absorbed (Obs.metrics st.obs)
          ("supervisor.retries." ^ actor);
        instant st ~cat:"fault" ~track:actor ~name:"retry" ~ts
          [ ("count", Ev.Int absorbed); ("injected", Ev.Int fails) ];
        if fails <= budget then b.Behavior.work ctx
        else begin
          (* Retry budget exhausted: skip the firing and substitute default
             tokens at the declared rates, preserving rate consistency. *)
          locked st (fun () ->
              st.skips <- st.skips + 1;
              metric st "skips" actor;
              Hashtbl.replace st.skipped_now actor ();
              instant st ~cat:"supervisor" ~track:actor ~name:"skip" ~ts
                [ ("injected", Ev.Int fails) ];
              note_bad st ~actor ~ts;
              Behavior.produce_at_rates ctx (fun ch _ ->
                  if is_ctrl_chan ch then Token.Ctrl (substitute_mode st ch)
                  else Token.Data default))
        end
      end
    in
    let outputs =
      if
        List.mem Fault.Corrupt faults
        && not (locked st (fun () -> Hashtbl.mem st.skipped_now actor))
      then
        List.map
          (fun (ch, toks) ->
            if is_ctrl_chan ch then (ch, toks)
            else begin
              let n = ref 0 in
              let toks =
                List.map
                  (function
                    | Token.Data v ->
                        incr n;
                        Token.Data (corrupt v)
                    | tok -> tok)
                  toks
              in
              locked st (fun () -> st.corrupted <- st.corrupted + !n);
              Metrics.incr ~by:!n (Obs.metrics st.obs) "supervisor.corrupted";
              Metrics.incr ~by:!n (Obs.metrics st.obs)
                ("supervisor.corrupted." ^ actor);
              instant st ~cat:"fault" ~track:actor ~name:"corrupt" ~ts
                [ ("count", Ev.Int !n); ("channel", Ev.Int ch) ];
              (ch, toks)
            end)
          outputs
      else outputs
    in
    let outputs =
      if List.mem Fault.Ctrl_loss faults then
        List.map
          (fun (ch, toks) ->
            if not (is_ctrl_chan ch) then (ch, toks)
            else
              match locked st (fun () -> Hashtbl.find_opt st.last_ctrl ch) with
              | None -> (ch, toks) (* nothing emitted yet: loss is moot *)
              | Some prev ->
                  let n = List.length toks in
                  locked st (fun () -> st.ctrl_lost <- st.ctrl_lost + n);
                  Metrics.incr ~by:n (Obs.metrics st.obs)
                    "supervisor.ctrl_lost";
                  Metrics.incr ~by:n (Obs.metrics st.obs)
                    ("supervisor.ctrl_lost." ^ actor);
                  instant st ~cat:"fault" ~track:actor ~name:"ctrl-loss" ~ts
                    [ ("count", Ev.Int n); ("mode", Ev.Str prev) ];
                  (ch, List.map (fun _ -> Token.Ctrl prev) toks))
          outputs
      else outputs
    in
    record_ctrl st ~is_ctrl_chan outputs;
    outputs
  in
  let duration_ms ctx =
    let faults = Plan.draw st.plan ~actor ~index:(global_index ctx) in
    let ts = ctx.Behavior.now_ms in
    let d = b.Behavior.duration_ms ctx in
    let d =
      List.fold_left
        (fun d -> function
          | Fault.Overrun f -> d *. f
          | Fault.Jitter j -> d +. j
          | _ -> d)
        d faults
    in
    let d =
      d
      +. float_of_int (min (fail_count faults) st.policy.Policy.max_retries)
         *. st.policy.Policy.retry_backoff_ms
    in
    (* [duration_ms] runs on the orchestrating domain (the pooled engine
       commits sequentially), but take the lock anyway: it is cheap and
       keeps the wrapper safe under any caller. *)
    locked st (fun () ->
        match Policy.deadline_of st.policy actor with
        | Some deadline when not (Hashtbl.mem st.skipped_now actor) ->
            if d > deadline then begin
              st.deadline_misses <- st.deadline_misses + 1;
              metric st "deadline_misses" actor;
              instant st ~cat:"supervisor" ~track:actor ~name:"deadline-miss"
                ~ts
                [
                  ("duration_ms", Ev.Float d); ("deadline_ms", Ev.Float deadline);
                ];
              note_bad st ~actor ~ts
            end
            else begin
              st.deadline_hits <- st.deadline_hits + 1;
              metric st "deadline_hits" actor;
              note_good st ~actor
            end
        | _ -> ());
    d
  in
  { Behavior.work; duration_ms }

let wrap st ~default ~corrupt actor (b : 'a Behavior.t) : 'a Behavior.t =
  let is_ctrl_chan = Tpdf.Graph.is_control_channel st.graph in
  if
    Policy.deadline_of st.policy actor <> None
    || List.exists (fun s -> Fault.applies_to s actor) (Plan.specs st.plan)
  then wrap_faulty st ~default ~corrupt ~is_ctrl_chan actor b
  else if
    List.exists
      (fun (e : (string, Csdf.Graph.channel) Tpdf_graph.Digraph.edge) ->
        is_ctrl_chan e.id)
      (Csdf.Graph.out_channels (Tpdf.Graph.skeleton st.graph) actor)
  then
    (* No fault can be drawn for this actor and no deadline watches it,
       so [wrap_faulty] would run [b] unchanged; only the control-mode
       memory stays, because checkpoints carry it. *)
    {
      b with
      Behavior.work =
        (fun ctx ->
          let outputs = b.Behavior.work ctx in
          record_ctrl st ~is_ctrl_chan outputs;
          outputs);
    }
  else b

let effective_scenario st scenario =
  let pins =
    Hashtbl.fold (fun k m acc -> (k, m) :: acc) st.degraded []
    |> List.sort compare
  in
  pins @ List.filter (fun (k, _) -> not (Hashtbl.mem st.degraded k)) scenario

let dump_tbl tbl =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] |> List.sort compare

let fill_tbl tbl items =
  Hashtbl.reset tbl;
  List.iter (fun (k, v) -> Hashtbl.replace tbl k v) items

(* Mutable state saved before an iteration attempt, restored when a
   restart rolls the attempt back. *)
type attempt_saved = {
  s_retries : int;
  s_skips : int;
  s_corrupted : int;
  s_ctrl_lost : int;
  s_deadline_misses : int;
  s_deadline_hits : int;
  s_degrades : (string * string) list;
  s_consecutive : (string * int) list;
  s_tripped : (string * unit) list;
  s_degraded : (string * string) list;
  s_last_ctrl : (int * string) list;
}

let save_attempt st =
  {
    s_retries = st.retries;
    s_skips = st.skips;
    s_corrupted = st.corrupted;
    s_ctrl_lost = st.ctrl_lost;
    s_deadline_misses = st.deadline_misses;
    s_deadline_hits = st.deadline_hits;
    s_degrades = st.degrades;
    s_consecutive = dump_tbl st.consecutive;
    s_tripped = dump_tbl st.tripped;
    s_degraded = dump_tbl st.degraded;
    s_last_ctrl = dump_tbl st.last_ctrl;
  }

(* [base_index] only changes in the post-iteration accounting, so a
   failed attempt cannot have touched it; [skipped_now] is per-firing
   scratch that every firing's [work] resets before use. *)
let restore_attempt st s =
  st.retries <- s.s_retries;
  st.skips <- s.s_skips;
  st.corrupted <- s.s_corrupted;
  st.ctrl_lost <- s.s_ctrl_lost;
  st.deadline_misses <- s.s_deadline_misses;
  st.deadline_hits <- s.s_deadline_hits;
  st.degrades <- s.s_degrades;
  fill_tbl st.consecutive s.s_consecutive;
  fill_tbl st.tripped s.s_tripped;
  fill_tbl st.degraded s.s_degraded;
  fill_tbl st.last_ctrl s.s_last_ctrl;
  Hashtbl.reset st.skipped_now

(* Restart escalation: apply {e every} fallback's pins (and mark the
   watches tripped), so the retried iteration runs degraded and the
   replayed fault plan meets different behaviours. *)
let escalate st ~ts =
  List.iter
    (fun (fb : Policy.fallback) ->
      Hashtbl.replace st.tripped fb.watch ();
      Hashtbl.replace st.consecutive fb.watch 0;
      List.iter
        (fun (kernel, mode) ->
          if Hashtbl.find_opt st.degraded kernel <> Some mode then begin
            Hashtbl.replace st.degraded kernel mode;
            st.degrades <- (kernel, mode) :: st.degrades;
            metric st "degrades" kernel;
            instant st ~cat:"supervisor" ~track:kernel ~name:"degrade" ~ts
              [
                ("kernel", Ev.Str kernel);
                ("mode", Ev.Str mode);
                ("watch", Ev.Str "restart");
              ]
          end)
        fb.pins)
    st.policy.Policy.fallbacks

(* What one effective scenario runs with: the wrapped behaviours and the
   zero targets of the actors it starves.  Rebuilt only when the
   effective scenario changes, i.e. at a degrade or a restart. *)
type 'a wiring = {
  w_eff : Reconfigure.scenario;
  w_behaviors : (string * 'a Behavior.t) list;
  w_targets : (string * int) list;
}

type 'a session = {
  st : state;
  obs : Obs.t;  (* the caller's collector; [st.obs] is its shifted view *)
  valuation : Tpdf_param.Valuation.t;
  program : Engine.program Lazy.t;
  behaviors : (string * 'a Behavior.t) list;
  scenario : Reconfigure.scenario;
  default : 'a;
  corrupt : 'a -> 'a;
  backend : [ `Event | `Compiled ] option;
  pool : Tpdf_par.Pool.t option;
  kill_at_ms : float option;
  encode : ('a -> string) option;
  decode : (string -> 'a) option;
  mutable offset : float;
  mutable iterations_run : int;
  mutable restarts : int;
  mutable previous_scenario : Reconfigure.scenario option;
  mutable resume_engine : (Tpdf_sim.Snapshot.t * Reconfigure.scenario) option;
  mutable wiring : 'a wiring option;
  mutable ended : bool;
}

type step =
  | Stepped of Engine.stats * checkpoint
  | Killed of checkpoint
  | Gave_up of string * Engine.stats option

let session ~graph ~plan ?backend ?(policy = Policy.default)
    ?(obs = Obs.disabled) ?(behaviors = []) ?(scenario = []) ?corrupt ?pool
    ?kill_at_ms ?resume ?encode ?decode ~valuation ~default () =
  Reconfigure.validate_scenario graph scenario;
  (match Policy.validate graph policy with
  | Ok () -> ()
  | Error m -> invalid_arg ("Supervisor.session: " ^ m));
  (match kill_at_ms with
  | Some k when k < 0.0 -> invalid_arg "Supervisor.session: negative kill_at_ms"
  | Some _ when encode = None ->
      invalid_arg
        "Supervisor.session: kill_at_ms needs ~encode (mid-iteration \
         snapshots)"
  | _ -> ());
  (match resume with
  | Some { ck_engine = Some _; _ } when decode = None ->
      invalid_arg
        "Supervisor.session: resuming a mid-iteration checkpoint needs \
         ~decode"
  | _ -> ());
  let st =
    {
      graph;
      plan;
      policy;
      obs;
      retries = 0;
      skips = 0;
      corrupted = 0;
      ctrl_lost = 0;
      deadline_misses = 0;
      deadline_hits = 0;
      degrades = [];
      consecutive = Hashtbl.create 8;
      tripped = Hashtbl.create 8;
      degraded = Hashtbl.create 8;
      base_index = Hashtbl.create 16;
      skipped_now = Hashtbl.create 8;
      last_ctrl = Hashtbl.create 8;
      lock = Mutex.create ();
    }
  in
  let s =
    {
      st;
      obs;
      valuation;
      program = lazy (Engine.compile ~graph ~valuation);
      behaviors;
      scenario;
      default;
      corrupt = (match corrupt with Some f -> f | None -> fun _ -> default);
      backend;
      pool;
      kill_at_ms;
      encode;
      decode;
      offset = 0.0;
      iterations_run = 0;
      restarts = 0;
      previous_scenario = None;
      resume_engine = None;
      wiring = None;
      ended = false;
    }
  in
  (match resume with
  | None -> ()
  | Some ck ->
      s.iterations_run <- ck.ck_iterations_run;
      s.offset <- ck.ck_offset_ms;
      s.restarts <- ck.ck_restarts;
      st.retries <- ck.ck_retries;
      st.skips <- ck.ck_skips;
      st.corrupted <- ck.ck_corrupted;
      st.ctrl_lost <- ck.ck_ctrl_lost;
      st.deadline_misses <- ck.ck_deadline_misses;
      st.deadline_hits <- ck.ck_deadline_hits;
      st.degrades <- ck.ck_degrades;
      fill_tbl st.consecutive ck.ck_consecutive;
      fill_tbl st.tripped (List.map (fun a -> (a, ())) ck.ck_tripped);
      fill_tbl st.degraded ck.ck_degraded;
      fill_tbl st.base_index ck.ck_base_index;
      fill_tbl st.last_ctrl ck.ck_last_ctrl;
      s.previous_scenario <- Some ck.ck_scenario;
      s.resume_engine <-
        Option.map (fun snap -> (snap, ck.ck_scenario)) ck.ck_engine);
  s

let make_ck s ~completed ~eff ~engine =
  let st = s.st in
  {
    ck_iterations_run = completed;
    ck_offset_ms = s.offset;
    ck_retries = st.retries;
    ck_skips = st.skips;
    ck_corrupted = st.corrupted;
    ck_ctrl_lost = st.ctrl_lost;
    ck_deadline_misses = st.deadline_misses;
    ck_deadline_hits = st.deadline_hits;
    ck_restarts = s.restarts;
    ck_degrades = st.degrades;
    ck_consecutive = dump_tbl st.consecutive;
    ck_tripped = List.map fst (dump_tbl st.tripped);
    ck_degraded = dump_tbl st.degraded;
    ck_base_index = dump_tbl st.base_index;
    ck_last_ctrl = dump_tbl st.last_ctrl;
    ck_scenario = eff;
    ck_engine = engine;
  }

let wiring s eff =
  match s.wiring with
  | Some w when w.w_eff = eff -> w
  | _ ->
      let graph = s.st.graph in
      let w_behaviors =
        List.map
          (fun a ->
            let b =
              match List.assoc_opt a s.behaviors with
              | Some b -> b
              | None ->
                  if Tpdf.Graph.is_control graph a then
                    Reconfigure.scenario_control_behavior graph eff
                  else Behavior.fill s.default
            in
            (a, wrap s.st ~default:s.default ~corrupt:s.corrupt a b))
          (Tpdf.Graph.actors graph)
      in
      let w_targets =
        List.map (fun a -> (a, 0)) (Reconfigure.starved_actors graph eff)
      in
      let w = { w_eff = eff; w_behaviors; w_targets } in
      s.wiring <- Some w;
      w

let finish s (stats : Engine.stats) =
  s.offset <- s.offset +. stats.Engine.end_ms;
  List.iter
    (fun (a, n) ->
      Hashtbl.replace s.st.base_index a (get s.st.base_index a + n))
    stats.Engine.firings

(* One iteration as a supervised transaction: the attempt's events and
   metrics are staged in an [Obs] capture.  Spliced on completion (or on
   final failure, keeping the historical stream of unrecovered runs);
   discarded wholesale when a restart rolls the attempt back — no
   half-iteration firings or double-counted supervisor metrics
   survive. *)
let rec attempt s =
  let st = s.st and obs = s.obs in
  let policy = st.policy in
  (* Only a restart reads the saved state back; skip the copy when the
     budget is spent. *)
  let saved =
    if s.restarts < policy.Policy.max_restarts then Some (save_attempt st)
    else None
  in
  let resuming = s.resume_engine in
  s.resume_engine <- None;
  let eff =
    match resuming with
    | Some (_, sc) -> sc
    | None -> effective_scenario st s.scenario
  in
  st.obs <- Obs.shift obs s.offset;
  let cap = Obs.capture_begin obs in
  if resuming = None && Obs.enabled obs && s.previous_scenario <> Some eff
  then begin
    Obs.instant st.obs ~cat:"reconfig" ~track:"supervisor" ~name:"reconfigure"
      ~ts_ms:0.0
      ~args:[ ("scenario", Ev.Str (Reconfigure.pp_scenario eff)) ]
      ();
    Metrics.incr (Obs.metrics obs) "engine.reconfigurations"
  end;
  let w = wiring s eff in
  let until_ms =
    match s.kill_at_ms with Some k -> Some (k -. s.offset) | None -> None
  in
  let commit () =
    Obs.capture_end obs cap;
    Obs.splice obs cap;
    s.previous_scenario <- Some eff
  in
  (* A failed attempt: roll back and restart (escalating to every
     fallback pin) while the restart budget lasts, then give up with the
     attempt's events committed, as an unsupervised run would have. *)
  let fail_with why partial =
    Obs.capture_end obs cap;
    match saved with
    | Some saved ->
        restore_attempt st saved;
        s.restarts <- s.restarts + 1;
        st.obs <- Obs.shift obs s.offset;
        Metrics.incr (Obs.metrics obs) "supervisor.restarts";
        instant st ~cat:"supervisor" ~track:"supervisor" ~name:"restart"
          ~ts:0.0
          [ ("why", Ev.Str why) ];
        escalate st ~ts:0.0;
        attempt s
    | None ->
        Obs.splice obs cap;
        s.previous_scenario <- Some eff;
        s.ended <- true;
        Metrics.incr (Obs.metrics obs) "supervisor.unrecovered";
        Option.iter
          (fun (partial : Engine.stats) ->
            instant st ~cat:"supervisor" ~track:"supervisor" ~name:"stall"
              ~ts:partial.Engine.end_ms
              [ ("why", Ev.Str why) ];
            finish s partial)
          partial;
        Gave_up (why, partial)
  in
  match
    let eng =
      match resuming with
      | Some (snap, _) ->
          Engine.restore ~graph:st.graph ~valuation:s.valuation
            ~behaviors:w.w_behaviors ~obs:st.obs ?pool:s.pool
            ~default:s.default ~decode:(Option.get s.decode) snap
      | None ->
          Engine.instantiate (Lazy.force s.program) ~behaviors:w.w_behaviors
            ~obs:st.obs ?pool:s.pool ~default:s.default ()
    in
    (Engine.run_outcome ?backend:s.backend ?until_ms ~targets:w.w_targets eng, eng)
  with
  | Engine.Completed stats, _ ->
      commit ();
      finish s stats;
      Stepped (stats, make_ck s ~completed:s.iterations_run ~eff ~engine:None)
  | Engine.Stalled (_, _), eng
    when until_ms <> None && Engine.pending_events eng > 0 ->
      (* Not a deadlock: the [until_ms] cap — i.e. the kill instant —
         stopped the run with events still queued.  Commit the partial
         iteration's stream (it happened) and checkpoint the in-flight
         engine. *)
      commit ();
      s.ended <- true;
      let snap = Engine.snapshot ~encode:(Option.get s.encode) eng in
      Killed
        (make_ck s ~completed:(s.iterations_run - 1) ~eff ~engine:(Some snap))
  | Engine.Stalled (stall, partial), _ ->
      fail_with (Format.asprintf "%a" Engine.pp_stall stall) (Some partial)
  | Engine.Budget_exceeded { steps; at_ms; partial }, _ ->
      fail_with
        (Printf.sprintf "event budget exceeded after %d steps at %.3f ms" steps
           at_ms)
        (Some partial)
  | exception Engine.Error e -> fail_with (Engine.error_message e) None

let step s =
  if s.ended then invalid_arg "Supervisor.step: the session has ended";
  match s.kill_at_ms with
  | Some k when s.offset >= k ->
      (* The kill instant falls on (or before) this boundary: take a
         boundary checkpoint — no engine in flight. *)
      let eff =
        match s.previous_scenario with
        | Some e -> e
        | None -> effective_scenario s.st s.scenario
      in
      s.ended <- true;
      Killed (make_ck s ~completed:s.iterations_run ~eff ~engine:None)
  | _ ->
      s.iterations_run <- s.iterations_run + 1;
      attempt s

let run ~graph ~plan ?backend ?policy ?(obs = Obs.disabled) ?behaviors
    ?scenario ?(iterations = 1) ?corrupt ?pool ?kill_at_ms ?checkpoint_every
    ?on_checkpoint ?resume ?encode ?decode ~valuation ~default () =
  if iterations < 1 then invalid_arg "Supervisor.run: iterations must be >= 1";
  (match checkpoint_every with
  | Some n when n < 1 ->
      invalid_arg "Supervisor.run: checkpoint_every must be >= 1"
  | _ -> ());
  let s =
    session ~graph ~plan ?backend ?policy ~obs ?behaviors ?scenario ?corrupt
      ?pool ?kill_at_ms ?resume ?encode ?decode ~valuation ~default ()
  in
  let per_iteration = ref [] in
  let rec loop () =
    if s.iterations_run >= iterations then (None, None)
    else
      match step s with
      | Stepped (stats, ck) ->
          per_iteration := stats :: !per_iteration;
          (match (checkpoint_every, on_checkpoint) with
          | Some n, Some cb when s.iterations_run mod n = 0 -> cb ck
          | _ -> ());
          loop ()
      | Killed ck -> (None, Some ck)
      | Gave_up (why, partial) ->
          Option.iter (fun p -> per_iteration := p :: !per_iteration) partial;
          (Some why, None)
  in
  let unrecovered, killed = loop () in
  let st = s.st in
  let total = st.deadline_hits + st.deadline_misses in
  if Obs.enabled obs && total > 0 then
    Metrics.set_gauge (Obs.metrics obs) "supervisor.deadline_hit_ratio"
      (float_of_int st.deadline_hits /. float_of_int total);
  {
    iterations_run = s.iterations_run;
    total_end_ms = s.offset;
    retries = st.retries;
    skips = st.skips;
    corrupted = st.corrupted;
    ctrl_lost = st.ctrl_lost;
    deadline_misses = st.deadline_misses;
    deadline_hits = st.deadline_hits;
    restarts = s.restarts;
    degrades = List.rev st.degrades;
    unrecovered;
    killed;
    per_iteration = List.rev !per_iteration;
  }
