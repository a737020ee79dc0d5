module Csdf = Tpdf_csdf
module Tpdf = Tpdf_core
module Digraph = Tpdf_graph.Digraph
module Obs = Tpdf_obs.Obs
module Ev = Tpdf_obs.Event
module Metrics = Tpdf_obs.Metrics
module Om = Tpdf_obs.Openmetrics
module Ringbuf = Tpdf_util.Ringbuf
module Cfifo = Compiled.Fifo

type firing_record = {
  actor : string;
  index : int;
  phase : int;
  mode : string;
  start_ms : float;
  finish_ms : float;
}

type stats = {
  end_ms : float;
  firings : (string * int) list;
  max_occupancy : (int * int) list;
  dropped : (int * int) list;
}

type error =
  | Unknown_mode of { actor : string; token : string }
  | Data_on_control_port of { actor : string }
  | Rate_mismatch of { actor : string; channel : int; expected : int; produced : int }
  | Foreign_channel of { actor : string; channel : int }
  | Token_class_mismatch of { actor : string; channel : int; control_channel : bool }
  | Negative_duration of { actor : string; duration_ms : float }

exception Error of error

let error_message = function
  | Unknown_mode { actor; token } ->
      Printf.sprintf "Engine: control token %S does not name a mode of %s"
        token actor
  | Data_on_control_port { actor } ->
      Printf.sprintf "Engine: data token on control port of %s" actor
  | Rate_mismatch { actor; channel; expected; produced } ->
      Printf.sprintf
        "Engine: behaviour of %s produced %d token(s) on e%d, expected %d"
        actor produced channel expected
  | Foreign_channel { actor; channel } ->
      Printf.sprintf "Engine: behaviour of %s wrote to foreign channel e%d"
        actor channel
  | Token_class_mismatch { actor; channel; control_channel } ->
      Printf.sprintf
        "Engine: behaviour of %s produced a %s token on %s channel e%d" actor
        (if control_channel then "data" else "control")
        (if control_channel then "control" else "data")
        channel
  | Negative_duration { actor; _ } ->
      Printf.sprintf "Engine: negative duration for %s" actor

type stall = {
  at_ms : float;
  blocked_actors : (string * int * int) list;
  channel_states : (int * int) list;
}

type outcome =
  | Completed of stats
  | Stalled of stall * stats
  | Budget_exceeded of { steps : int; at_ms : float; partial : stats }

let pp_stall ppf (s : stall) =
  Format.fprintf ppf "@[<v>stalled at %.3f ms@," s.at_ms;
  List.iter
    (fun (a, got, want) ->
      Format.fprintf ppf "  %s completed %d of %d firing(s)@," a got want)
    s.blocked_actors;
  Format.fprintf ppf "  channel occupancy:";
  List.iter
    (fun (ch, occ) -> if occ > 0 then Format.fprintf ppf " e%d:%d" ch occ)
    s.channel_states;
  Format.fprintf ppf "@]"

type 'a event_kind =
  | Complete of int * (int * 'a Token.t list) list * firing_record
  | Tick of int

(* A mode of a specific actor, compiled against the engine's dense channel
   ids: which data inputs the mode waits on and, per phase, the exact
   [out_rates] list the behaviour context receives (suppressed outputs at
   rate 0, control channels always at their declared rate).  Sharing the
   per-phase list across firings is safe — contexts never mutate it. *)
type compiled_mode = {
  cm : Tpdf.Mode.t;
  cm_selected : bool array; (* aligned with the actor's [data_ins] *)
  cm_out_rates : (int * int) list array; (* per phase *)
}

(* How the engine instruments itself, decided once at [create] from the
   collector's advertised {!Obs.sampling} policy.  [Obs_full] is the
   historical byte-golden stream (one span per firing, one occupancy
   sample per push, per-firing registry updates) — pinned by
   test_engine_equiv.  [Obs_sampled] is the always-on production
   profile: dense per-actor aggregates flushed to the registry at run
   end, a deterministic 1-in-K subset of firing spans, and no per-push
   occupancy sampling unless asked — cheap enough to leave attached
   (bounded by E20's <=5% overhead criterion).  Rare events (drops,
   ticks, reconfigure/txn/supervisor instants emitted by the layers
   above) are emitted in both modes. *)
type obs_mode = Obs_off | Obs_full | Obs_sampled of Obs.sampling

(* The engine compiles the graph once per (graph, valuation) into a
   {!program}: actors and channels get dense int ids, and every
   per-firing query (rates, control ports, phase counts, priorities,
   adjacency) becomes an array read.  The program is immutable and is
   shared by every instance built from it, so a caller stepping many
   iterations of one configuration compiles once.  The event queue is a
   binary heap ordered by (time, seq) — FIFO on ties — and after each
   event only the actors of the event's [wake] row are re-examined,
   instead of a global rescan.  The observable semantics (stats,
   tpdf_obs streams) are bit-for-bit those of the seed engine, enforced
   by test/test_engine_equiv.ml. *)
type program = {
  graph : Tpdf.Graph.t;
  conc : Csdf.Concrete.t;
  (* actor tables; index = dense actor id in [actors] order *)
  actor_names : string array;
  actor_ids : (string, int) Hashtbl.t;
  phases : int array;
  is_ctrl_actor : bool array;
  clock_period : float option array;
  ctrl_port : int array; (* control-port channel id; -1 when none *)
  data_ins : int array array; (* data input channel ids, forward order *)
  outs : int array array; (* all output channel ids, forward order *)
  cmodes : compiled_mode array array; (* declared-order; head = default *)
  mode_by_name : (string, compiled_mode) Hashtbl.t array;
  tick_rates : (int * int) list array array; (* clock actors, per phase *)
  initial_mode : compiled_mode array; (* [last_mode] before any firing *)
  firing_metric : string array; (* "engine.firing_ms.<actor>" *)
  (* channel tables; index = channel id *)
  chan_exists : bool array;
  chan_order : int array; (* ids in skeleton channel order, for stats *)
  cons : int array array; (* per channel, per consumer phase *)
  prod : int array array; (* per channel, per producer phase *)
  is_ctrl_chan : bool array;
  chan_prio : int array;
  chan_dst : int array; (* consumer actor id *)
  chan_init : int array; (* initial token count *)
  chan_capacity : int array; (* Buffers.capacity_hint *)
  init_mode : string array; (* default initial control token *)
  has_clock : bool; (* any clocked control actor in the graph *)
  wake : int array array; (* who an event at an actor can wake, ascending *)
  static_actor : bool array; (* no control port, head mode All_inputs *)
}

(* One runnable instance of a program: the mutable run state, the
   behaviours and the collector.  Everything here is per instance;
   everything reachable through [p] is shared and never written. *)
type 'a t = {
  p : program;
  obs : Obs.t;
  behaviors : 'a Behavior.t array;
  queues : 'a Token.t Ringbuf.t array;
      (* flat circular buffers: pushes/pops move cursors, no per-token
         cell; preallocated to Buffers.capacity_hint, grown on demand *)
  (* mutable simulation state *)
  debt : int array;
  dropped : int array;
  max_occ : int array;
  count : int array; (* firings started *)
  completed : int array; (* firings finished *)
  busy : bool array;
  last_mode : compiled_mode array;
  sc_prod : int array; (* validate_outputs scratch, per channel; -1 idle *)
  sc_exp : bool array; (* validate_outputs scratch, per channel *)
  mutable remaining : int; (* actors still short of their firing limit *)
  events : 'a event_kind Event_heap.t;
  mutable now : float;
  mutable armed : bool; (* clock Ticks scheduled; armed once per engine *)
  (* telemetry (not simulation state; excluded from snapshots) *)
  mutable ran_compiled : bool; (* last run_outcome used the compiled backend *)
  omode : obs_mode;
  s_busy : float array; (* sampled: per-actor busy virtual ms *)
  s_ctrl : int array; (* sampled: per-actor control reads *)
  s_flushed : int array; (* firings already flushed to the registry *)
  s_flushed_ctrl : int array;
  occ_seen : int array; (* per-channel occupancy samples offered *)
  gc_base : Gc.stat option; (* [Some] iff the collector is enabled *)
  exporter : Om.Exporter.t option; (* TPDF_METRICS_OUT *)
}

let default_behavior graph actor default =
  if Tpdf.Graph.is_control graph actor then Behavior.scenario_control graph []
  else Behavior.fill default

let ch_track ch = "e" ^ string_of_int ch
let occ_metric ch = Printf.sprintf "channel.e%d.occupancy" ch

(* All instrumentation below is guarded by the compiled [omode]: with no
   collector attached the engine allocates nothing for observability,
   and the sampled profile touches only dense arrays on the hot path. *)
let emit_occupancy t ch =
  let occ = float_of_int (Ringbuf.length t.queues.(ch)) in
  Obs.counter t.obs ~cat:"channel" ~track:(ch_track ch) ~name:"occupancy"
    ~ts_ms:t.now occ;
  Metrics.observe (Obs.metrics t.obs) (occ_metric ch) occ

let sample_occupancy t ch =
  match t.omode with
  | Obs_off -> ()
  | Obs_full -> emit_occupancy t ch
  | Obs_sampled s ->
      if s.Obs.occupancy_every > 0 then begin
        let k = t.occ_seen.(ch) in
        t.occ_seen.(ch) <- k + 1;
        if k mod s.Obs.occupancy_every = 0 then emit_occupancy t ch
      end

let compile ~graph ~valuation =
  (match Tpdf.Graph.validate graph with
  | Ok () -> ()
  | Error msgs ->
      invalid_arg ("Engine.create: invalid graph: " ^ String.concat "; " msgs));
  let skel = Tpdf.Graph.skeleton graph in
  let conc = Csdf.Concrete.make skel valuation in
  let actors = Tpdf.Graph.actors graph in
  let channels = Csdf.Graph.channels skel in
  let n = List.length actors in
  let actor_names = Array.of_list actors in
  let actor_ids = Hashtbl.create (2 * n) in
  Array.iteri (fun i a -> Hashtbl.replace actor_ids a i) actor_names;
  let nch =
    List.fold_left
      (fun acc (e : (string, Csdf.Graph.channel) Digraph.edge) ->
        max acc (e.id + 1))
      0 channels
  in
  let chan_exists = Array.make nch false in
  let cons = Array.make nch [||] in
  let prod = Array.make nch [||] in
  let is_ctrl_chan = Array.make nch false in
  let chan_prio = Array.make nch 0 in
  let chan_dst = Array.make nch 0 in
  let chan_init = Array.make nch 0 in
  let chan_capacity = Array.make nch 1 in
  let init_mode = Array.make nch "" in
  let chan_order =
    Array.of_list
      (List.map
         (fun (e : (string, Csdf.Graph.channel) Digraph.edge) -> e.id)
         channels)
  in
  List.iter
    (fun (e : (string, Csdf.Graph.channel) Digraph.edge) ->
      let c = Csdf.Concrete.chan conc e.id in
      chan_exists.(e.id) <- true;
      cons.(e.id) <- c.Csdf.Concrete.cons;
      prod.(e.id) <- c.Csdf.Concrete.prod;
      is_ctrl_chan.(e.id) <- Tpdf.Graph.is_control_channel graph e.id;
      chan_prio.(e.id) <- Tpdf.Graph.priority graph e.id;
      chan_dst.(e.id) <- Hashtbl.find actor_ids e.dst;
      chan_init.(e.id) <- e.label.init;
      chan_capacity.(e.id) <-
        Tpdf.Buffers.capacity_hint ~cons:c.Csdf.Concrete.cons
          ~prod:c.Csdf.Concrete.prod ~init:e.label.init;
      if is_ctrl_chan.(e.id) then init_mode.(e.id) <- Behavior.first_mode graph e.dst)
    channels;
  let phases = Array.map (fun a -> Csdf.Graph.phases skel a) actor_names in
  let is_ctrl_actor =
    Array.map (fun a -> Tpdf.Graph.is_control graph a) actor_names
  in
  let clock_period =
    Array.map (fun a -> Tpdf.Graph.clock_period_ms graph a) actor_names
  in
  let ctrl_port =
    Array.map
      (fun a ->
        match Tpdf.Graph.control_port graph a with Some c -> c | None -> -1)
      actor_names
  in
  let data_ins =
    Array.map
      (fun a ->
        Array.of_list
          (List.filter_map
             (fun (e : (string, Csdf.Graph.channel) Digraph.edge) ->
               if is_ctrl_chan.(e.id) then None else Some e.id)
             (Csdf.Graph.in_channels skel a)))
      actor_names
  in
  let outs =
    Array.map
      (fun a ->
        Array.of_list
          (List.map
             (fun (e : (string, Csdf.Graph.channel) Digraph.edge) -> e.id)
             (Csdf.Graph.out_channels skel a)))
      actor_names
  in
  let compile_mode ai (m : Tpdf.Mode.t) =
    let ins = data_ins.(ai) in
    let sel =
      match m.Tpdf.Mode.inputs with
      | Tpdf.Mode.Input_subset l -> Array.map (fun ch -> List.mem ch l) ins
      | Tpdf.Mode.All_inputs | Tpdf.Mode.Highest_priority_available ->
          Array.map (fun _ -> true) ins
    in
    let out_list = Array.to_list outs.(ai) in
    let out_rates =
      Array.init phases.(ai) (fun ph ->
          List.map
            (fun ch ->
              let r = prod.(ch).(ph) in
              let r =
                if is_ctrl_chan.(ch) || Tpdf.Mode.output_may_be_active m ch
                then r
                else 0
              in
              (ch, r))
            out_list)
    in
    { cm = m; cm_selected = sel; cm_out_rates = out_rates }
  in
  let cmodes =
    Array.init n (fun ai ->
        Array.of_list
          (List.map (compile_mode ai)
             (Tpdf.Graph.modes graph actor_names.(ai))))
  in
  let mode_by_name =
    Array.init n (fun ai ->
        let h = Hashtbl.create 8 in
        Array.iter
          (fun cm ->
            if not (Hashtbl.mem h cm.cm.Tpdf.Mode.name) then
              Hashtbl.add h cm.cm.Tpdf.Mode.name cm)
          cmodes.(ai);
        h)
  in
  let tick_rates =
    Array.init n (fun ai ->
        match clock_period.(ai) with
        | None -> [||]
        | Some _ ->
            Array.init phases.(ai) (fun ph ->
                List.map
                  (fun ch -> (ch, prod.(ch).(ph)))
                  (Array.to_list outs.(ai))))
  in
  let initial_mode =
    Array.init n (fun ai ->
        if Array.length cmodes.(ai) > 0 then cmodes.(ai).(0)
        else compile_mode ai Tpdf.Mode.default)
  in
  (* Static actors — no control port, head mode reads [All_inputs] —
     never change mode, never reject an input and never touch the
     control machinery; the compiled rounds fuse their firings (see
     [start_static]). *)
  let static_actor =
    Array.init n (fun ai ->
        ctrl_port.(ai) < 0
        && Array.length cmodes.(ai) > 0
        &&
        match cmodes.(ai).(0).cm.Tpdf.Mode.inputs with
        | Tpdf.Mode.All_inputs -> true
        | _ -> false)
  in
  (* The wake rule: an actor can only become fireable when tokens reach
     it or its own firing completes.  So after an event at [ai] — its
     completion or its clock tick — both run loops try [wake.(ai)]: [ai]
     itself plus the consumer of every declared output channel (clock
     outputs included), ascending and deduplicated.  A row may be wider
     than the channels one firing actually pushed to; an actor whose
     inputs and busy flag did not change is not fireable, so trying it
     is a no-op. *)
  let wake =
    Array.init n (fun ai ->
        let consumers = Array.map (fun ch -> chan_dst.(ch)) outs.(ai) in
        Array.of_list
          (List.sort_uniq Int.compare (ai :: Array.to_list consumers)))
  in
  {
    graph;
    conc;
    actor_names;
    actor_ids;
    phases;
    is_ctrl_actor;
    clock_period;
    ctrl_port;
    data_ins;
    outs;
    cmodes;
    mode_by_name;
    tick_rates;
    initial_mode;
    firing_metric = Array.map (fun a -> "engine.firing_ms." ^ a) actor_names;
    chan_exists;
    chan_order;
    cons;
    prod;
    is_ctrl_chan;
    chan_prio;
    chan_dst;
    chan_init;
    chan_capacity;
    init_mode;
    has_clock =
      Array.exists (function Some _ -> true | None -> false) clock_period;
    wake;
    static_actor;
  }

let instantiate_engine ~emit_initial p ?init_token ?(behaviors = [])
    ?(obs = Obs.disabled) ~default () =
  let n = Array.length p.actor_names in
  let nch = Array.length p.chan_exists in
  let explicit = Array.make n None in
  List.iter
    (fun (a, b) ->
      match Hashtbl.find_opt p.actor_ids a with
      | Some ai -> explicit.(ai) <- Some b
      | None -> invalid_arg (Printf.sprintf "Engine.create: unknown actor %s" a))
    behaviors;
  let behaviors =
    Array.mapi
      (fun ai b ->
        match b with
        | Some b -> b
        | None -> default_behavior p.graph p.actor_names.(ai) default)
      explicit
  in
  let tok_dummy = Token.Ctrl "" in
  let queues =
    Array.make nch (Ringbuf.create ~capacity:1 ~dummy:tok_dummy ())
  in
  let max_occ = Array.make nch 0 in
  Array.iter
    (fun ch ->
      let q =
        Ringbuf.create ~capacity:p.chan_capacity.(ch) ~dummy:tok_dummy ()
      in
      queues.(ch) <- q;
      let mk =
        match init_token with
        | Some f -> f ch
        | None ->
            fun _ ->
              if p.is_ctrl_chan.(ch) then Token.Ctrl p.init_mode.(ch)
              else Token.Data default
      in
      for i = 0 to p.chan_init.(ch) - 1 do
        Ringbuf.push q (mk i)
      done;
      max_occ.(ch) <- p.chan_init.(ch))
    p.chan_order;
  let enabled = Obs.enabled obs in
  let omode =
    if not enabled then Obs_off
    else
      match Obs.sampling obs with
      | None -> Obs_full
      | Some s -> Obs_sampled s
  in
  let exporter =
    if not enabled then None
    else
      match Sys.getenv_opt "TPDF_METRICS_OUT" with
      | Some path when path <> "" ->
          let interval_ms =
            match Sys.getenv_opt "TPDF_METRICS_INTERVAL_MS" with
            | Some s -> ( try float_of_string s with Failure _ -> 1000.0)
            | None -> 1000.0
          in
          Some (Om.Exporter.create ~path ~interval_ms (Obs.metrics obs))
      | _ -> None
  in
  let t =
    {
      p;
      obs;
      behaviors;
      queues;
      debt = Array.make nch 0;
      dropped = Array.make nch 0;
      max_occ;
      count = Array.make n 0;
      completed = Array.make n 0;
      busy = Array.make n false;
      last_mode = Array.copy p.initial_mode;
      sc_prod = Array.make (max nch 1) (-1);
      sc_exp = Array.make (max nch 1) false;
      remaining = 0;
      events = Event_heap.create ();
      now = 0.0;
      armed = false;
      ran_compiled = false;
      omode;
      s_busy = Array.make n 0.0;
      s_ctrl = Array.make n 0;
      s_flushed = Array.make n 0;
      s_flushed_ctrl = Array.make n 0;
      occ_seen = Array.make nch 0;
      gc_base = (if enabled then Some (Gc.quick_stat ()) else None);
      exporter;
    }
  in
  (* One occupancy sample per channel at t=0 so every channel has a series
     even if it never carries traffic.  Suppressed on restore: the
     original engine already emitted them. *)
  if emit_initial && enabled then
    Array.iter (fun ch -> sample_occupancy t ch) p.chan_order;
  t

let instantiate p ?init_token ?behaviors ?obs ~default () =
  instantiate_engine ~emit_initial:true p ?init_token ?behaviors ?obs ~default
    ()

let create ~graph ~valuation ?init_token ?behaviors ?obs ~default () =
  instantiate (compile ~graph ~valuation) ?init_token ?behaviors ?obs ~default
    ()

(* Discharge rejection debt against the tokens currently in the channel. *)
let purge t ch =
  let d = t.debt.(ch) in
  if d > 0 then begin
    let q = t.queues.(ch) in
    let dropped = ref 0 in
    while !dropped < d && not (Ringbuf.is_empty q) do
      ignore (Ringbuf.pop q);
      incr dropped
    done;
    t.debt.(ch) <- d - !dropped;
    t.dropped.(ch) <- t.dropped.(ch) + !dropped;
    if Obs.enabled t.obs && !dropped > 0 then begin
      Obs.instant t.obs ~cat:"channel" ~track:(ch_track ch) ~name:"drop"
        ~ts_ms:t.now
        ~args:[ ("count", Ev.Int !dropped) ]
        ();
      Metrics.incr ~by:!dropped (Obs.metrics t.obs)
        (Printf.sprintf "channel.e%d.dropped" ch)
    end
  end

let rec push_all q = function
  | [] -> ()
  | tok :: rest ->
      (* Ringbuf.push, hand-inlined minus the growth branch *)
      let cap = Array.length q.Ringbuf.arr in
      if q.Ringbuf.len = cap then Ringbuf.push q tok
      else begin
        let i = q.Ringbuf.head + q.Ringbuf.len in
        q.Ringbuf.arr.(if i >= cap then i - cap else i) <- tok;
        q.Ringbuf.len <- q.Ringbuf.len + 1
      end;
      push_all q rest

(* Deliver a completion's or a tick's outputs, channel by channel: push
   the tokens, discharge rejection debt, raise the high-water mark and
   sample the occupancy.  Top-level recursion, so delivery allocates no
   closure.  Who the tokens may wake is the caller's [wake] row. *)
let rec deliver t = function
  | [] -> ()
  | (ch, toks) :: rest ->
      let q = t.queues.(ch) in
      push_all q toks;
      if t.debt.(ch) > 0 then purge t ch;
      let occ = q.Ringbuf.len in
      if occ > t.max_occ.(ch) then t.max_occ.(ch) <- occ;
      sample_occupancy t ch;
      deliver t rest

(* First declared mode of the actor; mirrors the seed's [List.hd]. *)
let head_mode t ai =
  let ms = t.p.cmodes.(ai) in
  if Array.length ms = 0 then failwith "hd" else ms.(0)

let mode_of_token t ai =
  let cid = t.p.ctrl_port.(ai) in
  if cid < 0 then head_mode t ai
  else
    let phase = t.count.(ai) mod t.p.phases.(ai) in
    if t.p.cons.(cid).(phase) = 0 then
      (* No control token this phase: the previous mode persists. *)
      t.last_mode.(ai)
    else
      let q = t.queues.(cid) in
      if Ringbuf.is_empty q then raise Exit
      else
        match Ringbuf.peek q with
        | Token.Ctrl name -> (
            match Hashtbl.find_opt t.p.mode_by_name.(ai) name with
            | Some cm -> cm
            | None ->
                raise
                  (Error
                     (Unknown_mode { actor = t.p.actor_names.(ai); token = name })))
        | Token.Data _ ->
            raise (Error (Data_on_control_port { actor = t.p.actor_names.(ai) }))

(* Which inputs a firing consumes: the mode's selected-input mask, or the
   single input a Transaction picked. *)
type active = Selected | Single of int

(* Decide whether actor [ai] can fire now; if so return the compiled mode
   and the selected active inputs. *)
let fireable t ai =
  match mode_of_token t ai with
  | exception Exit -> None (* waiting for a control token *)
  | cm -> (
      let phase = t.count.(ai) mod t.p.phases.(ai) in
      let ins = t.p.data_ins.(ai) in
      let has_enough ch =
        Ringbuf.length t.queues.(ch) >= t.p.cons.(ch).(phase)
      in
      match cm.cm.Tpdf.Mode.inputs with
      | Tpdf.Mode.All_inputs | Tpdf.Mode.Input_subset _ ->
          let sel = cm.cm_selected in
          let ok = ref true in
          Array.iteri
            (fun i ch -> if sel.(i) && not (has_enough ch) then ok := false)
            ins;
          if !ok then Some (cm, Selected) else None
      | Tpdf.Mode.Highest_priority_available ->
          (* first ready input wins ties; later ones only on strictly
             higher priority — the seed's fold order *)
          let best = ref (-1) in
          Array.iter
            (fun ch ->
              if has_enough ch then
                if !best < 0 || t.p.chan_prio.(ch) > t.p.chan_prio.(!best) then
                  best := ch)
            ins;
          if !best < 0 then None (* wait for the first input available *)
          else Some (cm, Single !best))

let consume t ai cm active phase =
  (* Control token first. *)
  (let cid = t.p.ctrl_port.(ai) in
   if cid >= 0 && t.p.cons.(cid).(phase) > 0 then begin
     ignore (Ringbuf.pop t.queues.(cid));
     t.last_mode.(ai) <- cm;
     match t.omode with
     | Obs_off -> ()
     | Obs_full ->
         let a = t.p.actor_names.(ai) in
         Obs.instant t.obs ~cat:"control" ~track:a ~name:"ctrl-read"
           ~ts_ms:t.now
           ~args:
             [ ("mode", Ev.Str cm.cm.Tpdf.Mode.name); ("channel", Ev.Int cid) ]
           ();
         Metrics.incr (Obs.metrics t.obs) ("engine.ctrl_reads." ^ a);
         sample_occupancy t cid
     | Obs_sampled _ ->
         (* dense aggregate, flushed to the registry at run end *)
         t.s_ctrl.(ai) <- t.s_ctrl.(ai) + 1;
         sample_occupancy t cid
   end);
  let ins = t.p.data_ins.(ai) in
  let n = Array.length ins in
  let is_active i ch =
    match active with Selected -> cm.cm_selected.(i) | Single c -> ch = c
  in
  let rec build i =
    if i >= n then []
    else
      let ch = ins.(i) in
      let rate = t.p.cons.(ch).(phase) in
      if is_active i ch then begin
        let toks = List.init rate (fun _ -> Ringbuf.pop t.queues.(ch)) in
        if rate > 0 then sample_occupancy t ch;
        if rate = 0 then build (i + 1) else (ch, toks) :: build (i + 1)
      end
      else begin
        (* Rejected input: its tokens are discarded as they arrive. *)
        if rate > 0 then begin
          t.debt.(ch) <- t.debt.(ch) + rate;
          purge t ch;
          sample_occupancy t ch
        end;
        build (i + 1)
      end
  in
  build 0

(* Output-contract checks: rate errors are reported in expected-list
   order, then foreign channels and token classes in output order; the
   first binding wins when a behaviour repeats a channel (the seed's
   [List.assoc_opt]). *)
let check_rate a ch rate produced =
  if produced <> rate then
    raise
      (Error (Rate_mismatch { actor = a; channel = ch; expected = rate; produced }))

let check_classes t a ch toks =
  let is_ctrl_chan = t.p.is_ctrl_chan.(ch) in
  List.iter
    (fun tok ->
      if Token.is_ctrl tok <> is_ctrl_chan then
        raise
          (Error
             (Token_class_mismatch
                { actor = a; channel = ch; control_channel = is_ctrl_chan })))
    toks

(* O(degree): per-channel scratch tables replace the seed's quadratic
   [List.assoc] scans over the output list — the fan-graph cliff, where a
   1e4-way source paid O(width²) list walks per firing.  The scratch slots
   are always restored, even on the error path, so a caught [Error] leaves
   the tables clean. *)
let validate_outputs t ai expected outputs =
  let a = t.p.actor_names.(ai) in
  let nch = Array.length t.p.chan_exists in
  let sc_prod = t.sc_prod and sc_exp = t.sc_exp in
  List.iter
    (fun (ch, toks) ->
      if ch >= 0 && ch < nch && sc_prod.(ch) < 0 then
        sc_prod.(ch) <- List.length toks)
    outputs;
  List.iter (fun ((ch, _) : int * int) -> sc_exp.(ch) <- true) expected;
  let err =
    try
      List.iter
        (fun (ch, rate) ->
          check_rate a ch rate (if sc_prod.(ch) >= 0 then sc_prod.(ch) else 0))
        expected;
      List.iter
        (fun (ch, toks) ->
          if ch < 0 || ch >= nch || not sc_exp.(ch) then
            raise (Error (Foreign_channel { actor = a; channel = ch }));
          check_classes t a ch toks)
        outputs;
      None
    with Error e -> Some e
  in
  List.iter
    (fun (ch, _) -> if ch >= 0 && ch < nch then sc_prod.(ch) <- -1)
    outputs;
  List.iter (fun ((ch, _) : int * int) -> sc_exp.(ch) <- false) expected;
  match err with None -> () | Some e -> raise (Error e)

(* The compiled rounds of one run (see the round executor in
   [run_outcome]): pending completions in two flat FIFOs — the round
   being delivered ([cur], all at one timestamp) and the round it
   enables ([nxt], one uniform duration later) — the event heap's seq
   counter they continue, and the uniformity guard: the run's firing
   duration, learnt from its first firing, and whether a later firing
   broke it.  Raw durations are compared, never [finish_ms -.
   start_ms]. *)
type 'a rounds = {
  mutable cur : ((int * 'a Token.t list) list, firing_record) Cfifo.t;
  mutable nxt : ((int * 'a Token.t list) list, firing_record) Cfifo.t;
  mutable seq : int;
  mutable round_ms : float;
  mutable deopt : bool;
}

(* The commit half of a firing, shared by every start path — the
   interpreter ([rounds = None]), the compiled rounds and their fused
   static path: ask the behaviour for the duration, reject a negative
   one, check it against the rounds' guard, mark the actor started and
   return the firing record.  The caller queues the completion at
   [record.finish_ms].  Inlined, so that sharing it costs the compiled
   hot loop no call. *)
let[@inline] start_record t rounds ai (ctx : _ Behavior.ctx) =
  let d = t.behaviors.(ai).Behavior.duration_ms ctx in
  if d < 0.0 then
    raise
      (Error (Negative_duration { actor = ctx.Behavior.actor; duration_ms = d }));
  (match rounds with
  | None -> ()
  | Some r ->
      if r.round_ms < 0.0 then r.round_ms <- d
      else if d <> r.round_ms then r.deopt <- true);
  t.count.(ai) <- ctx.Behavior.index + 1;
  t.busy.(ai) <- true;
  {
    actor = ctx.Behavior.actor;
    index = ctx.Behavior.index;
    phase = ctx.Behavior.phase;
    mode = ctx.Behavior.mode;
    start_ms = t.now;
    finish_ms = t.now +. d;
  }

(* Start a firing: consume its inputs, run the behaviour's [work],
   validate the outputs, commit, and queue the completion — on the event
   heap, or in the next compiled round.  Outputs are delivered at
   completion, not here, so starting a firing never wakes an actor. *)
let fire t rounds ai cm active =
  let index = t.count.(ai) in
  let phase = index mod t.p.phases.(ai) in
  let inputs = consume t ai cm active phase in
  let rates = cm.cm_out_rates.(phase) in
  let ctx =
    {
      Behavior.actor = t.p.actor_names.(ai);
      mode = cm.cm.Tpdf.Mode.name;
      phase;
      index;
      now_ms = t.now;
      inputs;
      out_rates = rates;
    }
  in
  let outputs = t.behaviors.(ai).Behavior.work ctx in
  validate_outputs t ai rates outputs;
  let record = start_record t rounds ai ctx in
  match rounds with
  | None ->
      Event_heap.add t.events record.finish_ms (Complete (ai, outputs, record))
  | Some r ->
      Cfifo.push r.nxt ~time:record.finish_ms ~seq:r.seq ~ai outputs record;
      r.seq <- r.seq + 1

(* GC / allocation gauges: deltas of [Gc.quick_stat] against the
   engine's creation baseline, refreshed at exporter ticks and at run
   end.  Gauges only — never events — so the byte-golden full-capture
   event stream is untouched. *)
let update_gc_gauges t =
  match t.gc_base with
  | None -> ()
  | Some base ->
      let m = Obs.metrics t.obs in
      let s = Gc.quick_stat () in
      Metrics.set_gauge m "gc.minor_words"
        (s.Gc.minor_words -. base.Gc.minor_words);
      Metrics.set_gauge m "gc.major_words"
        (s.Gc.major_words -. base.Gc.major_words);
      Metrics.set_gauge m "gc.promoted_words"
        (s.Gc.promoted_words -. base.Gc.promoted_words);
      Metrics.set_gauge m "gc.compactions"
        (float_of_int (s.Gc.compactions - base.Gc.compactions));
      Metrics.set_gauge m "gc.heap_words" (float_of_int s.Gc.heap_words)

(* Sampled mode keeps per-firing bookkeeping in dense arrays; this
   reconciles the registry with them (idempotent: counters advance by
   the delta since the last flush).  Metrics calls route through any
   active capture, so a transactionally staged run stays abortable. *)
let flush_sampled t =
  match t.omode with
  | Obs_off | Obs_full -> ()
  | Obs_sampled _ ->
      let m = Obs.metrics t.obs in
      Array.iteri
        (fun ai a ->
          let df = t.completed.(ai) - t.s_flushed.(ai) in
          if df > 0 then begin
            t.s_flushed.(ai) <- t.completed.(ai);
            Metrics.incr ~by:df m ("engine.firings." ^ a)
          end;
          let dc = t.s_ctrl.(ai) - t.s_flushed_ctrl.(ai) in
          if dc > 0 then begin
            t.s_flushed_ctrl.(ai) <- t.s_ctrl.(ai);
            Metrics.incr ~by:dc m ("engine.ctrl_reads." ^ a)
          end;
          if t.s_busy.(ai) > 0.0 then
            Metrics.set_gauge m ("engine.busy_ms." ^ a) t.s_busy.(ai))
        t.p.actor_names

(* Process one completion: deliver the outputs and emit the obs span.
   The one completion path of the event loop, the compiled rounds and
   their fused static path — identical processing order plus identical
   processing code is what makes the two backends byte-equivalent. *)
let complete_event t ~limit ai outputs record =
  t.busy.(ai) <- false;
  let c = t.completed.(ai) + 1 in
  t.completed.(ai) <- c;
  if limit.(ai) <> max_int && c = limit.(ai) then
    t.remaining <- t.remaining - 1;
  deliver t outputs;
  match t.omode with
  | Obs_off -> ()
  | Obs_full ->
      let a = t.p.actor_names.(ai) in
      Obs.span t.obs ~cat:"firing" ~track:a ~name:(a ^ "/" ^ record.mode)
        ~ts_ms:record.start_ms
        ~dur_ms:(record.finish_ms -. record.start_ms)
        ~args:
          [
            ("index", Ev.Int record.index);
            ("phase", Ev.Int record.phase);
            ("mode", Ev.Str record.mode);
          ]
        ();
      Metrics.incr (Obs.metrics t.obs) ("engine.firings." ^ a);
      Metrics.observe (Obs.metrics t.obs) t.p.firing_metric.(ai)
        (record.finish_ms -. record.start_ms)
  | Obs_sampled s ->
      (* hot path: two dense-array writes; the k-th completion of each
         actor keeps its span iff (k-1) mod span_every = 0 — a pure
         function of the deterministic completion order.  The span name
         is the bare actor (no "/mode" concat): the mode is still
         carried in the args, and the sampled stream has no byte-golden
         to preserve. *)
      let dur = record.finish_ms -. record.start_ms in
      t.s_busy.(ai) <- t.s_busy.(ai) +. dur;
      if (c - 1) mod s.Obs.span_every = 0 then begin
        let a = t.p.actor_names.(ai) in
        Obs.span t.obs ~cat:"firing" ~track:a ~name:a ~ts_ms:record.start_ms
          ~dur_ms:dur
          ~args:
            [
              ("index", Ev.Int record.index);
              ("phase", Ev.Int record.phase);
              ("mode", Ev.Str record.mode);
            ]
          ();
        Metrics.observe (Obs.metrics t.obs) t.p.firing_metric.(ai) dur
      end

(* A clock firing: no inputs, emits control tokens now. *)
let tick_event t ai =
  let a = t.p.actor_names.(ai) in
  let index = t.count.(ai) in
  let phase = index mod t.p.phases.(ai) in
  let rates = t.p.tick_rates.(ai).(phase) in
  let ctx =
    {
      Behavior.actor = a;
      mode = "tick";
      phase;
      index;
      now_ms = t.now;
      inputs = [];
      out_rates = rates;
    }
  in
  let b = t.behaviors.(ai) in
  let outputs = b.Behavior.work ctx in
  validate_outputs t ai rates outputs;
  t.count.(ai) <- index + 1;
  deliver t outputs;
  if Obs.enabled t.obs then begin
    Obs.instant t.obs ~cat:"clock" ~track:a ~name:(a ^ "/tick") ~ts_ms:t.now
      ~args:[ ("index", Ev.Int index); ("phase", Ev.Int phase) ]
      ();
    Metrics.incr (Obs.metrics t.obs) ("engine.ticks." ^ a)
  end;
  match t.p.clock_period.(ai) with
  | Some p -> Event_heap.add t.events (t.now +. p) (Tick ai)
  | None -> ()

(* [true] iff [toks] has exactly [want] tokens, all of channel [ch]'s
   class. *)
let rec toks_ok t ch want = function
  | [] -> want = 0
  | tok :: rest ->
      want > 0
      && Token.is_ctrl tok = t.p.is_ctrl_chan.(ch)
      && toks_ok t ch (want - 1) rest

(* The fused static path's lockstep output check (see [start_static]):
   [true] when [outputs] lists exactly the expected channels in
   declaration order (rate-0 entries omitted) with the right counts and
   token classes — then [validate_outputs] is guaranteed to pass and its
   scratch-table passes can be skipped.  Any deviation returns [false]
   and the caller falls back to the full check, which either passes
   (e.g. an explicit [(ch, [])] for a rate-0 channel) or raises with the
   canonical error. *)
let rec validate_fast t expected outputs =
  match expected with
  | (ch, rate) :: erest -> (
      match outputs with
      | (ch', toks) :: orest when ch' = ch && rate > 0 ->
          toks_ok t ch rate toks && validate_fast t erest orest
      | _ -> rate = 0 && validate_fast t erest outputs)
  | [] -> ( match outputs with [] -> true | _ :: _ -> false)

let dummy_record =
  { actor = ""; index = 0; phase = 0; mode = ""; start_ms = 0.0; finish_ms = 0.0 }

let run_outcome ?(backend = `Event) ?(iterations = 1) ?targets ?until_ms
    ?(max_events = 1_000_000) t =
  if iterations < 1 then invalid_arg "Engine.run: iterations must be >= 1";
  (match targets with
  | None -> ()
  | Some l ->
      List.iter
        (fun (a, n) ->
          if not (Hashtbl.mem t.p.actor_ids a) then
            invalid_arg
              (Printf.sprintf "Engine.run: unknown target actor %s" a);
          if n < 0 then
            invalid_arg
              (Printf.sprintf "Engine.run: negative target %d for %s" n a))
        l);
  let n = Array.length t.p.actor_names in
  (* Per-run firing limits, compiled to an array; clocks are unlimited. *)
  let limit = Array.make n max_int in
  Array.iteri
    (fun ai a ->
      if t.p.clock_period.(ai) = None then
        let base =
          match targets with
          | None -> Csdf.Concrete.q t.p.conc a
          | Some l -> (
              match List.assoc_opt a l with
              | Some k -> k
              | None -> Csdf.Concrete.q t.p.conc a)
        in
        limit.(ai) <- iterations * base)
    t.p.actor_names;
  (* An iteration is done when every firing has also *completed*: in-flight
     firings still deliver their tokens (e.g. a slow speculative path whose
     result must be rejected).  [remaining] counts actors still short of
     their limit, so the check per event is O(1). *)
  t.remaining <- 0;
  for ai = 0 to n - 1 do
    if limit.(ai) <> max_int && t.completed.(ai) < limit.(ai) then
      t.remaining <- t.remaining + 1
  done;
  (* Arm the clocks — once per engine.  A second [run_outcome] call (a
     resumed capped run, or chunked cumulative iterations) must not
     re-schedule the initial Ticks: the periodic re-arm in the Tick
     handler keeps them alive. *)
  if not t.armed then begin
    t.armed <- true;
    for ai = 0 to n - 1 do
      if t.p.is_ctrl_actor.(ai) then
        match t.p.clock_period.(ai) with
        | Some p -> Event_heap.add t.events p (Tick ai)
        | None -> ()
    done
  end;
  let eligible ai =
    (not t.busy.(ai))
    && t.p.clock_period.(ai) = None
    && t.count.(ai) < limit.(ai)
  in
  let try_start rounds ai =
    if eligible ai then
      match fireable t ai with
      | Some (cm, active) -> fire t rounds ai cm active
      | None -> ()
  in
  (* A static actor's firing (see [program.static_actor]) in the
     compiled rounds, fused into one allocation-light
     check-consume-commit.  Used only under [Obs_off], where no occupancy
     sampling interleaves.  Everything it does is a step-for-step replay
     of [fireable]/[fire] for that shape: same pops, same error order,
     same records.  [rounds] is [Some r], passed along as it is so the
     commit allocates no option. *)
  let start_static rounds r ai =
    (* [eligible] without the clock test: compiled never engages on a
       graph with clocked actors. *)
    if (not t.busy.(ai)) && t.count.(ai) < limit.(ai) then begin
      let index = t.count.(ai) in
      let ph = t.p.phases.(ai) in
      let phase = if ph = 1 then 0 else index mod ph in
      let ins = t.p.data_ins.(ai) in
      let nin = Array.length ins in
      let ok = ref true in
      for i = 0 to nin - 1 do
        let ch = ins.(i) in
        if Ringbuf.length t.queues.(ch) < t.p.cons.(ch).(phase) then
          ok := false
      done;
      if !ok then begin
        let cm = t.p.cmodes.(ai).(0) in
        let inputs = ref [] in
        (* per-channel pops in FIFO order; channels are disjoint, so
           walking them in reverse builds the ascending assoc list
           [consume] would. *)
        for i = nin - 1 downto 0 do
          let ch = ins.(i) in
          let rate = t.p.cons.(ch).(phase) in
          if rate > 0 then begin
            let q = t.queues.(ch) in
            let toks =
              if rate = 1 && q.Ringbuf.len > 0 then begin
                (* Ringbuf.pop, hand-inlined (the fireable check above
                   guarantees non-empty; the guard keeps the raise
                   path identical regardless) *)
                let h = q.Ringbuf.head in
                let v = q.Ringbuf.arr.(h) in
                q.Ringbuf.arr.(h) <- q.Ringbuf.dummy;
                let h1 = h + 1 in
                q.Ringbuf.head <-
                  (if h1 = Array.length q.Ringbuf.arr then 0 else h1);
                q.Ringbuf.len <- q.Ringbuf.len - 1;
                [ v ]
              end
              else if rate = 1 then [ Ringbuf.pop q ]
              else List.init rate (fun _ -> Ringbuf.pop q)
            in
            inputs := (ch, toks) :: !inputs
          end
        done;
        let rates = cm.cm_out_rates.(phase) in
        let ctx =
          {
            Behavior.actor = t.p.actor_names.(ai);
            mode = cm.cm.Tpdf.Mode.name;
            phase;
            index;
            now_ms = t.now;
            inputs = !inputs;
            out_rates = rates;
          }
        in
        let outputs = t.behaviors.(ai).Behavior.work ctx in
        let valid =
          (* single-output rate-1 firings (every chain/fan/grid kernel)
             resolve in one match; anything else takes the general
             lockstep walk *)
          match (rates, outputs) with
          | [ (ch, 1) ], [ (ch', [ tok ]) ] ->
              ch' = ch && Token.is_ctrl tok = t.p.is_ctrl_chan.(ch)
          | _ -> validate_fast t rates outputs
        in
        if not valid then validate_outputs t ai rates outputs;
        let record = start_record t rounds ai ctx in
        let fin = record.finish_ms in
        (* Cfifo.push, hand-inlined minus the growth branch (ocamlopt
           without flambda will not inline the cross-module call) *)
        let fq = r.nxt in
        let cap = Array.length fq.Cfifo.times in
        if fq.Cfifo.len = cap then
          Cfifo.push fq ~time:fin ~seq:r.seq ~ai outputs record
        else begin
          let i = fq.Cfifo.head + fq.Cfifo.len in
          let i = if i >= cap then i - cap else i in
          fq.Cfifo.times.(i) <- fin;
          fq.Cfifo.seqs.(i) <- r.seq;
          fq.Cfifo.ais.(i) <- ai;
          fq.Cfifo.us.(i) <- outputs;
          fq.Cfifo.vs.(i) <- record;
          fq.Cfifo.len <- fq.Cfifo.len + 1
        end;
        r.seq <- r.seq + 1
      end
    end
  in
  (* The actors the compiled rounds start through [start_static]. *)
  let fused =
    if t.omode = Obs_off then t.p.static_actor else Array.make n false
  in
  (* The one walk: try the actors [ids] names, in order — a [wake] row
     after each event, every actor at the start of a run.  Both are
     ascending, the same stable order as the seed's global rescan, so
     scheduling decisions and the resulting traces are identical.
     Starting a firing makes no other actor fireable (outputs are
     delivered at its completion), so one pass suffices. *)
  let try_actors rounds ids =
    for k = 0 to Array.length ids - 1 do
      let ai = ids.(k) in
      match rounds with
      | Some r when fused.(ai) -> start_static rounds r ai
      | _ -> try_start rounds ai
    done
  in
  let wake = t.p.wake in
  let steps = ref 0 in
  let stop = ref false in
  let budget_hit = ref false in
  let exporter_tick () =
    match t.exporter with
    | Some e when !steps land 1023 = 0 ->
        (* periodic snapshot export: refresh aggregates, then atomically
           rewrite TPDF_METRICS_OUT if the interval elapsed *)
        flush_sampled t;
        update_gc_gauges t;
        Om.Exporter.tick e
    | _ -> ()
  in
  (* The compiled static-schedule backend (see Compiled and DESIGN.md §8)
     engages only from a clean start it can fully model: no clocks and
     nothing in flight.  Everything else — including a run it
     deoptimised out of — goes through the event heap. *)
  let compiled =
    backend = `Compiled && (not t.p.has_clock)
    && Event_heap.is_empty t.events
    && Array.for_all not t.busy
  in
  t.ran_compiled <- compiled;
  if compiled then begin
    (* Round executor: pop order equals the heap's (time, seq) order as
       long as every firing takes the same duration; the first firing
       that does not trips the guard and the pending entries (timestamps
       and seq numbers intact) reload into the heap, where the ordinary
       loop below resumes. *)
    let r =
      {
        cur = Cfifo.create ~dummy_u:[] ~dummy_v:dummy_record ();
        nxt = Cfifo.create ~dummy_u:[] ~dummy_v:dummy_record ();
        seq = Event_heap.next_seq t.events;
        round_ms = neg_infinity;
        deopt = false;
      }
    in
    let rounds = Some r in
    try_actors rounds (Array.init n Fun.id);
    let exporter_on = match t.exporter with Some _ -> true | None -> false in
    let cap = match until_ms with Some c -> c | None -> infinity in
    let finished = ref false in
    while
      (not !finished) && (not r.deopt)
      && not (r.cur.Cfifo.len = 0 && r.nxt.Cfifo.len = 0)
    do
      if r.cur.Cfifo.len = 0 then begin
        let tmp = r.cur in
        r.cur <- r.nxt;
        r.nxt <- tmp
      end;
      let q = r.cur in
      let h = q.Cfifo.head in
      let tm = q.Cfifo.times.(h) in
      if tm > cap then begin
        finished := true;
        stop := true
      end
      else begin
        incr steps;
        if !steps > max_events then begin
          budget_hit := true;
          stop := true;
          finished := true
        end
        else if t.remaining = 0 then begin
          stop := true;
          finished := true
        end
        else begin
          let ai = q.Cfifo.ais.(h) in
          let outputs = q.Cfifo.us.(h) in
          let record = q.Cfifo.vs.(h) in
          t.now <- tm;
          (* drop the head, resetting its payload slots to the dummies *)
          q.Cfifo.us.(h) <- q.Cfifo.dummy_u;
          q.Cfifo.vs.(h) <- q.Cfifo.dummy_v;
          let h1 = h + 1 in
          q.Cfifo.head <-
            (if h1 = Array.length q.Cfifo.times then 0 else h1);
          q.Cfifo.len <- q.Cfifo.len - 1;
          complete_event t ~limit ai outputs record;
          try_actors rounds wake.(ai);
          if exporter_on then exporter_tick ()
        end
      end
    done;
    (* Hand the pending entries (if any) back to the heap — deopt
       continues under the loop below, an early stop leaves a resumable
       engine — and sync the heap's seq counter either way, so later
       runs and snapshots number events exactly as the interpreter
       would have. *)
    let pending =
      List.map
        (fun (time, seq, ai, outputs, record) ->
          (time, seq, Complete (ai, outputs, record)))
        (Cfifo.entries r.cur @ Cfifo.entries r.nxt)
    in
    Event_heap.load t.events ~next_seq:r.seq pending
  end
  else try_actors None (Array.init n Fun.id);
  while (not !stop) && not (Event_heap.is_empty t.events) do
    (* Peek before popping: an event past [until_ms] stays in the queue,
       so the state at the cap is faithful and [steps] only counts
       processed events. *)
    (match (until_ms, Event_heap.peek_time t.events) with
    | Some cap, Some time when time > cap -> stop := true
    | _ -> ());
    if not !stop then begin
      incr steps;
      if !steps > max_events then begin
        budget_hit := true;
        stop := true
      end
      else if t.remaining = 0 then stop := true
      else
        match Event_heap.pop t.events with
        | None -> stop := true
        | Some (time, ev) ->
            t.now <- time;
            let ai =
              match ev with
              | Complete (ai, outputs, record) ->
                  complete_event t ~limit ai outputs record;
                  ai
              | Tick ai ->
                  tick_event t ai;
                  ai
            in
            try_actors None wake.(ai);
            exporter_tick ()
    end
  done;
  (* Events are processed in time order and a completion's event time is
     its firing's finish, so the last processed event's time is the end
     of the run. *)
  let end_ms = t.now in
  if Obs.enabled t.obs then begin
    let m = Obs.metrics t.obs in
    Metrics.set_gauge m "engine.end_ms" end_ms;
    Metrics.set_gauge m "engine.steps" (float_of_int !steps);
    (* which backend executed this run, as a pair of 0/1 gauges — the
       OpenMetrics exporter maps them to tpdf_engine_backend{backend=…}.
       Gauges only: nothing enters the obs event stream, so the
       byte-equivalence contract between backends is unaffected. *)
    let c = if t.ran_compiled then 1.0 else 0.0 in
    Metrics.set_gauge m "engine.backend.compiled" c;
    Metrics.set_gauge m "engine.backend.event" (1.0 -. c);
    flush_sampled t;
    update_gc_gauges t;
    match t.exporter with Some e -> Om.Exporter.flush e | None -> ()
  end;
  let stats =
    {
      end_ms;
      firings =
        Array.to_list
          (Array.mapi (fun ai a -> (a, t.count.(ai))) t.p.actor_names);
      max_occupancy =
        Array.to_list
          (Array.map (fun ch -> (ch, t.max_occ.(ch))) t.p.chan_order);
      dropped =
        Array.to_list
          (Array.map (fun ch -> (ch, t.dropped.(ch))) t.p.chan_order);
    }
  in
  if !budget_hit then
    Budget_exceeded { steps = !steps; at_ms = t.now; partial = stats }
  else if t.remaining > 0 then begin
    let blocked = ref [] in
    for ai = n - 1 downto 0 do
      if limit.(ai) <> max_int && t.completed.(ai) < limit.(ai) then
        blocked := (t.p.actor_names.(ai), t.completed.(ai), limit.(ai)) :: !blocked
    done;
    Stalled
      ( {
          at_ms = t.now;
          blocked_actors = !blocked;
          channel_states =
            Array.to_list
              (Array.map
                 (fun ch -> (ch, Ringbuf.length t.queues.(ch)))
                 t.p.chan_order);
        },
        stats )
  end
  else Completed stats

let run ?backend ?iterations ?targets ?until_ms ?max_events t =
  match run_outcome ?backend ?iterations ?targets ?until_ms ?max_events t with
  | Completed stats -> stats
  | Stalled (s, _) ->
      failwith
        (Printf.sprintf "Engine.run: stalled at %.3f ms (stuck: %s)" s.at_ms
           (String.concat ", "
              (List.map (fun (a, _, _) -> a) s.blocked_actors)))
  | Budget_exceeded _ ->
      failwith "Engine.run: event budget exceeded (runaway simulation?)"
  | exception Error e -> failwith (error_message e)

let channel_tokens t ch =
  if ch < 0 || ch >= Array.length t.p.chan_exists || not t.p.chan_exists.(ch) then
    raise Not_found;
  Ringbuf.to_list t.queues.(ch)

let pending_events t = Event_heap.length t.events

(* ------------------------------------------------------------------ *)
(* Snapshot / restore                                                  *)
(* ------------------------------------------------------------------ *)

let at_boundary t =
  let skel = Tpdf.Graph.skeleton t.p.graph in
  Array.for_all not t.busy
  && Array.for_all (fun d -> d = 0) t.debt
  && List.for_all
       (fun (e : (string, Csdf.Graph.channel) Digraph.edge) ->
         Ringbuf.length t.queues.(e.id) = e.label.init)
       (Csdf.Graph.channels skel)
  && List.for_all
       (fun (_, _, ev) -> match ev with Tick _ -> true | Complete _ -> false)
       (Event_heap.entries t.events)

let snapshot ~encode t =
  let tok = function
    | Token.Data v -> Snapshot.Data (encode v)
    | Token.Ctrl m -> Snapshot.Ctrl m
  in
  let firing (r : firing_record) =
    {
      Snapshot.f_actor = r.actor;
      f_index = r.index;
      f_phase = r.phase;
      f_mode = r.mode;
      f_start_ms = r.start_ms;
      f_finish_ms = r.finish_ms;
    }
  in
  let actors =
    Array.to_list
      (Array.mapi
         (fun ai name ->
           {
             Snapshot.a_name = name;
             a_count = t.count.(ai);
             a_completed = t.completed.(ai);
             a_busy = t.busy.(ai);
             a_last_mode = t.last_mode.(ai).cm.Tpdf.Mode.name;
           })
         t.p.actor_names)
  in
  let channels =
    Array.to_list
      (Array.map
         (fun ch ->
           {
             Snapshot.c_id = ch;
             c_tokens = List.map tok (Ringbuf.to_list t.queues.(ch));
             c_debt = t.debt.(ch);
             c_dropped = t.dropped.(ch);
             c_max_occ = t.max_occ.(ch);
           })
         t.p.chan_order)
  in
  let heap =
    List.map
      (fun (time, seq, ev) ->
        let h_event =
          match ev with
          | Complete (ai, outputs, record) ->
              Snapshot.Complete
                {
                  c_actor = t.p.actor_names.(ai);
                  c_outputs =
                    List.map
                      (fun (ch, toks) -> (ch, List.map tok toks))
                      outputs;
                  c_record = firing record;
                }
          | Tick ai -> Snapshot.Tick t.p.actor_names.(ai)
        in
        { Snapshot.h_time = time; h_seq = seq; h_event })
      (Event_heap.entries t.events)
  in
  {
    Snapshot.now = t.now;
    armed = t.armed;
    heap_seq = Event_heap.next_seq t.events;
    actors;
    channels;
    heap;
  }

let restore p ?init_token ?behaviors ?obs ~default ~decode (s : Snapshot.t) =
  let t =
    instantiate_engine ~emit_initial:false p ?init_token ?behaviors ?obs
      ~default ()
  in
  let fail fmt =
    Printf.ksprintf (fun m -> invalid_arg ("Engine.restore: " ^ m)) fmt
  in
  let aid name =
    match Hashtbl.find_opt t.p.actor_ids name with
    | Some i -> i
    | None -> fail "snapshot names unknown actor %s" name
  in
  let tok = function
    | Snapshot.Data v -> Token.Data (decode v)
    | Snapshot.Ctrl m -> Token.Ctrl m
  in
  let firing (f : Snapshot.firing) =
    {
      actor = f.f_actor;
      index = f.f_index;
      phase = f.f_phase;
      mode = f.f_mode;
      start_ms = f.f_start_ms;
      finish_ms = f.f_finish_ms;
    }
  in
  (* The counts match, so rejecting repeats also rejects omissions: a
     snapshot naming [a] twice would otherwise leave its missing sibling
     in fresh-instance state. *)
  if List.length s.actors <> Array.length t.p.actor_names then
    fail "snapshot has %d actor(s), graph has %d" (List.length s.actors)
      (Array.length t.p.actor_names);
  let seen = Array.make (Array.length t.p.actor_names) false in
  List.iter
    (fun (a : Snapshot.actor_state) ->
      let ai = aid a.a_name in
      if seen.(ai) then fail "snapshot lists actor %s twice" a.a_name;
      seen.(ai) <- true;
      t.count.(ai) <- a.a_count;
      t.completed.(ai) <- a.a_completed;
      t.busy.(ai) <- a.a_busy;
      match Hashtbl.find_opt t.p.mode_by_name.(ai) a.a_last_mode with
      | Some cm -> t.last_mode.(ai) <- cm
      | None ->
          (* Actors without declared modes snapshot the synthetic default
             mode name; their compiled default is already installed. *)
          if Array.length t.p.cmodes.(ai) > 0 then
            fail "snapshot pins %s to unknown mode %S" a.a_name a.a_last_mode)
    s.actors;
  if List.length s.channels <> Array.length t.p.chan_order then
    fail "snapshot has %d channel(s), graph has %d" (List.length s.channels)
      (Array.length t.p.chan_order);
  let seen = Array.make (Array.length t.p.chan_exists) false in
  List.iter
    (fun (c : Snapshot.channel_state) ->
      let ch = c.c_id in
      if ch < 0 || ch >= Array.length t.p.chan_exists || not t.p.chan_exists.(ch)
      then fail "snapshot names unknown channel e%d" ch;
      if seen.(ch) then fail "snapshot lists channel e%d twice" ch;
      seen.(ch) <- true;
      let q = t.queues.(ch) in
      Ringbuf.clear q;
      List.iter (fun tk -> Ringbuf.push q (tok tk)) c.c_tokens;
      t.debt.(ch) <- c.c_debt;
      t.dropped.(ch) <- c.c_dropped;
      t.max_occ.(ch) <- c.c_max_occ)
    s.channels;
  let event = function
    | Snapshot.Tick a -> Tick (aid a)
    | Snapshot.Complete { c_actor; c_outputs; c_record } ->
        Complete
          ( aid c_actor,
            List.map
              (fun (ch, toks) ->
                if
                  ch < 0
                  || ch >= Array.length t.p.chan_exists
                  || not t.p.chan_exists.(ch)
                then fail "snapshot output on unknown channel e%d" ch;
                (ch, List.map tok toks))
              c_outputs,
            firing c_record )
  in
  Event_heap.load t.events ~next_seq:s.heap_seq
    (List.map
       (fun (e : Snapshot.heap_entry) -> (e.h_time, e.h_seq, event e.h_event))
       s.heap);
  t.now <- s.now;
  t.armed <- s.armed;
  t
