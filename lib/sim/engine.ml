module Csdf = Tpdf_csdf
module Tpdf = Tpdf_core
module Digraph = Tpdf_graph.Digraph
module Obs = Tpdf_obs.Obs
module Ev = Tpdf_obs.Event
module Metrics = Tpdf_obs.Metrics
module Om = Tpdf_obs.Openmetrics
module Pool = Tpdf_par.Pool
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
  trace : firing_record list;
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
   binary heap ordered by (time, seq) — FIFO on ties — and scheduling
   uses a dirty-actor worklist instead of a global rescan.  The
   observable semantics (stats, traces, tpdf_obs streams) are bit-for-bit
   those of the seed engine, enforced by test/test_engine_equiv.ml. *)
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
}

(* One runnable instance of a program: the mutable run state, the
   behaviours and the collector.  Everything here is per instance;
   everything reachable through [p] is shared and never written. *)
type 'a t = {
  p : program;
  obs : Obs.t;
  pool : Pool.t option;
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
  dirty : bool array;
  dirty_buf : int array; (* worklist: first [dirty_len] entries are dirty *)
  mutable dirty_len : int;
  sc_prod : int array; (* validate_outputs scratch, per channel; -1 idle *)
  sc_exp : bool array; (* validate_outputs scratch, per channel *)
  mutable remaining : int; (* actors still short of their firing limit *)
  events : 'a event_kind Event_heap.t;
  mutable now : float;
  mutable trace : firing_record list;
  mutable armed : bool; (* clock Ticks scheduled; armed once per engine *)
  (* telemetry (not simulation state; excluded from snapshots) *)
  mutable ran_compiled : bool; (* last run_outcome used the compiled backend *)
  omode : obs_mode;
  s_busy : float array; (* sampled: per-actor busy virtual ms *)
  s_ctrl : int array; (* sampled: per-actor control reads *)
  s_flushed : int array; (* firings already flushed to the registry *)
  s_flushed_ctrl : int array;
  occ_seen : int array; (* per-channel occupancy samples offered *)
  dom_fire : int array; (* staged firings per pool slot; slot 0 = caller *)
  gc_base : Gc.stat option; (* [Some] iff the collector is enabled *)
  exporter : Om.Exporter.t option; (* TPDF_METRICS_OUT *)
}

let first_mode graph kernel =
  match Tpdf.Graph.modes graph kernel with
  | m :: _ -> m.Tpdf.Mode.name
  | [] -> "default"

let default_behavior graph actor default =
  if Tpdf.Graph.is_control graph actor then
    (* Emit the first declared mode of each target kernel; when several
       targets disagree the first channel's target wins — explicit
       behaviours should be given in that case. *)
    let skel = Tpdf.Graph.skeleton graph in
    let target_mode =
      match Csdf.Graph.out_channels skel actor with
      | (e : (string, Csdf.Graph.channel) Digraph.edge) :: _ ->
          first_mode graph e.dst
      | [] -> "default"
    in
    Behavior.emit_mode (fun _ -> target_mode)
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
      if is_ctrl_chan.(e.id) then init_mode.(e.id) <- first_mode graph e.dst)
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
  }

let instantiate_engine ~emit_initial p ?init_token ?(behaviors = [])
    ?(obs = Obs.disabled) ?pool ~default () =
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
      pool;
      behaviors;
      queues;
      debt = Array.make nch 0;
      dropped = Array.make nch 0;
      max_occ;
      count = Array.make n 0;
      completed = Array.make n 0;
      busy = Array.make n false;
      last_mode = Array.copy p.initial_mode;
      dirty = Array.make n false;
      dirty_buf = Array.make (max n 1) 0;
      dirty_len = 0;
      sc_prod = Array.make (max nch 1) (-1);
      sc_exp = Array.make (max nch 1) false;
      remaining = 0;
      events = Event_heap.create ();
      now = 0.0;
      trace = [];
      armed = false;
      ran_compiled = false;
      omode;
      s_busy = Array.make n 0.0;
      s_ctrl = Array.make n 0;
      s_flushed = Array.make n 0;
      s_flushed_ctrl = Array.make n 0;
      occ_seen = Array.make nch 0;
      dom_fire =
        Array.make (match pool with Some p -> Pool.domains p | None -> 1) 0;
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

let instantiate p ?init_token ?behaviors ?obs ?pool ~default () =
  instantiate_engine ~emit_initial:true p ?init_token ?behaviors ?obs ?pool
    ~default ()

let create ~graph ~valuation ?init_token ?behaviors ?obs ?pool ~default () =
  instantiate (compile ~graph ~valuation) ?init_token ?behaviors ?obs ?pool
    ~default ()

let mark_dirty t ai =
  if not t.dirty.(ai) then begin
    t.dirty.(ai) <- true;
    t.dirty_buf.(t.dirty_len) <- ai;
    t.dirty_len <- t.dirty_len + 1
  end

(* In-place ascending sort of [a.(0 .. len-1)].  Worklists are tiny (a
   completion wakes the actor and its consumers) or nearly sorted (a wide
   fan-out marks consumers in channel order), so insertion sort wins; the
   heapsort branch keeps adversarial orders O(k log k).  Either way: no
   allocation, unlike the former [List.sort] per drain. *)
let sort_worklist a len =
  if len > 1 then
    if len <= 32 then
      for i = 1 to len - 1 do
        let v = a.(i) in
        let j = ref (i - 1) in
        while !j >= 0 && a.(!j) > v do
          a.(!j + 1) <- a.(!j);
          decr j
        done;
        a.(!j + 1) <- v
      done
    else begin
      let swap i j =
        let tmp = a.(i) in
        a.(i) <- a.(j);
        a.(j) <- tmp
      in
      let rec sift i len =
        let l = (2 * i) + 1 and r = (2 * i) + 2 in
        let m = ref i in
        if l < len && a.(l) > a.(!m) then m := l;
        if r < len && a.(r) > a.(!m) then m := r;
        if !m <> i then begin
          swap i !m;
          sift !m len
        end
      in
      for i = (len / 2) - 1 downto 0 do
        sift i len
      done;
      for i = len - 1 downto 1 do
        swap 0 i;
        sift 0 i
      done
    end

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

let push_tokens t ch toks =
  let q = t.queues.(ch) in
  List.iter (fun tok -> Ringbuf.push q tok) toks;
  purge t ch;
  let occ = Ringbuf.length q in
  if occ > t.max_occ.(ch) then t.max_occ.(ch) <- occ;
  sample_occupancy t ch;
  (* wakeup rule: the channel's consumer may have become fireable *)
  mark_dirty t t.p.chan_dst.(ch)

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

(* Output-contract checks shared by both implementations below: rate
   errors are reported in expected-list order, then foreign channels and
   token classes in output order; the first binding wins when a behaviour
   repeats a channel (the seed's [List.assoc_opt]). *)
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
   are always restored (even on the error path, so a caught [Error] leaves
   the tables clean), but they are engine-global: parallel staged firings
   use {!validate_outputs_list} instead. *)
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

(* Allocation-free but quadratic in the actor's degree; used only by
   pool-staged firings, which run concurrently and must not share the
   engine's scratch tables. *)
let validate_outputs_list t ai expected outputs =
  let a = t.p.actor_names.(ai) in
  List.iter
    (fun (ch, rate) ->
      let produced =
        match List.assoc_opt ch outputs with Some l -> List.length l | None -> 0
      in
      check_rate a ch rate produced)
    expected;
  List.iter
    (fun (ch, toks) ->
      if not (List.mem_assoc ch expected) then
        raise (Error (Foreign_channel { actor = a; channel = ch }));
      check_classes t a ch toks)
    outputs

(* A firing is split in two.  The {e stage} — consume inputs, run the
   behaviour's [work], validate the outputs — touches only the actor's
   own channels (every channel has exactly one consumer and outputs are
   delivered later, at [Complete]), so the stages of all firings that
   start at the same drain are independent and may run on a domain pool.
   The {e commit} — [duration_ms], the firing record, the event-heap
   push — runs on the orchestrating domain, in ascending actor id, which
   keeps event sequence numbers, traces, supervisor bookkeeping and obs
   streams bit-identical to a sequential run. *)
let fire_stage ?(par = false) t ai cm active =
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
  if par then validate_outputs_list t ai rates outputs
  else validate_outputs t ai rates outputs;
  (ctx, outputs)

let fire_commit t ai (ctx, outputs) =
  let b = t.behaviors.(ai) in
  let d = b.Behavior.duration_ms ctx in
  if d < 0.0 then
    raise
      (Error (Negative_duration { actor = ctx.Behavior.actor; duration_ms = d }));
  let record =
    {
      actor = ctx.Behavior.actor;
      index = ctx.Behavior.index;
      phase = ctx.Behavior.phase;
      mode = ctx.Behavior.mode;
      start_ms = t.now;
      finish_ms = t.now +. d;
    }
  in
  t.count.(ai) <- ctx.Behavior.index + 1;
  t.busy.(ai) <- true;
  Event_heap.add t.events (t.now +. d) (Complete (ai, outputs, record))

let start_firing t ai cm active =
  (match t.omode with
  | Obs_off -> ()
  | _ ->
      (* inline staging always happens on the orchestrating domain *)
      t.dom_fire.(0) <- t.dom_fire.(0) + 1);
  fire_commit t ai (fire_stage t ai cm active)

(* Run the stages of [jobs] (same-instant, independent by construction)
   on the pool, then commit in job order (= ascending actor id).  Each
   task captures its obs/metrics emissions into a private buffer;
   splicing the buffers in job order reconstructs the sequential stream.
   A job may carry an exception instead of work — either pre-raised by
   [fireable] or raised inside the stage: it is re-raised at its commit
   slot, after the buffers of all earlier jobs (and its own partial one)
   have been spliced, exactly where the sequential run would have
   raised.  Later stages have already run by then; their token
   consumption is unobservable because the raise aborts the run. *)
let fire_parallel t pool jobs =
  let span_every =
    match t.omode with Obs_sampled s -> s.Obs.span_every | _ -> 0
  in
  let obs_on = match t.omode with Obs_off -> false | _ -> true in
  let tasks =
    Array.map
      (fun (ai, job) () ->
        let cap = Obs.capture_begin t.obs in
        let di = if obs_on then Pool.self_index () else 0 in
        if obs_on && di < Array.length t.dom_fire then
          t.dom_fire.(di) <- t.dom_fire.(di) + 1;
        (* In sampled mode, 1-in-K staged firings get a wall-clock span
           stamped with the executing domain — the raw material for
           Perfetto's per-domain lanes (see Chrome.domain_of).  Wall
           events never enter the deterministic retained stream (the
           ring excludes them by default). *)
        let t0w = if span_every > 0 then Obs.now_wall_ms () else 0.0 in
        let res =
          match job with
          | `Fire (cm, active) -> (
              try Result.Ok (fire_stage ~par:true t ai cm active)
              with e -> Result.Error e)
          | `Raise e -> Result.Error e
        in
        if span_every > 0 && t.count.(ai) mod span_every = 0 then
          Obs.span t.obs ~clock:Ev.Wall ~cat:"par" ~track:"stage"
            ~name:t.p.actor_names.(ai) ~ts_ms:t0w
            ~dur_ms:(Obs.now_wall_ms () -. t0w)
            ~args:[ ("domain", Ev.Int di); ("index", Ev.Int t.count.(ai)) ]
            ();
        Obs.capture_end t.obs cap;
        (res, cap))
      jobs
  in
  let results = Pool.run pool tasks in
  Array.iteri
    (fun k (res, cap) ->
      Obs.splice t.obs cap;
      match res with
      | Result.Error e -> raise e
      | Result.Ok staged ->
          let ai, _ = jobs.(k) in
          fire_commit t ai staged)
    results

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
let flush_sampled t pool =
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
        t.p.actor_names;
      Array.iteri
        (fun d n ->
          if n > 0 then
            Metrics.set_gauge m
              (Printf.sprintf "domain.%d.firings" d)
              (float_of_int n))
        t.dom_fire;
      (match pool with
      | Some p ->
          Array.iteri
            (fun d n ->
              if n > 0 then
                Metrics.set_gauge m
                  (Printf.sprintf "domain.%d.tasks" d)
                  (float_of_int n))
            (Pool.tasks_per_domain p)
      | None -> ())

(* Process one completion: deliver outputs, wake consumers, record the
   trace and obs span.  Shared verbatim by the event loop and the
   compiled round executor — identical processing order plus identical
   processing code is what makes the two backends byte-equivalent. *)
let complete_event t ~limit ai outputs record =
  t.busy.(ai) <- false;
  let c = t.completed.(ai) + 1 in
  t.completed.(ai) <- c;
  if limit.(ai) <> max_int && c = limit.(ai) then
    t.remaining <- t.remaining - 1;
  List.iter (fun (ch, toks) -> push_tokens t ch toks) outputs;
  mark_dirty t ai;
  t.trace <- record :: t.trace;
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
  List.iter (fun (ch, toks) -> push_tokens t ch toks) outputs;
  t.trace <-
    { actor = a; index; phase; mode = "tick"; start_ms = t.now; finish_ms = t.now }
    :: t.trace;
  if Obs.enabled t.obs then begin
    Obs.instant t.obs ~cat:"clock" ~track:a ~name:(a ^ "/tick") ~ts_ms:t.now
      ~args:[ ("index", Ev.Int index); ("phase", Ev.Int phase) ]
      ();
    Metrics.incr (Obs.metrics t.obs) ("engine.ticks." ^ a)
  end;
  match t.p.clock_period.(ai) with
  | Some p -> Event_heap.add t.events (t.now +. p) (Tick ai)
  | None -> ()

(* Compiled-backend specialisations of the completion path and the output
   check, for [Obs_off] runs.  They replay [complete_event] and
   [validate_outputs] step for step minus the observability hooks — same
   state writes, same token pushes, same errors — but as top-level
   recursive functions, so the per-event closure allocations ([List.iter]
   thunks, the scratch-table passes) disappear from the hot loop. *)
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

(* Delivery without [mark_dirty]: the compiled loop walks the actor's
   precomputed wake list instead of a dirty worklist, so the flags must
   stay untouched (all-false) here. *)
let rec deliver_fast t = function
  | [] -> ()
  | (ch, toks) :: rest ->
      let q = t.queues.(ch) in
      push_all q toks;
      if t.debt.(ch) > 0 then purge t ch;
      let occ = q.Ringbuf.len in
      if occ > t.max_occ.(ch) then t.max_occ.(ch) <- occ;
      deliver_fast t rest

let complete_fast t ~limit ai outputs record =
  t.busy.(ai) <- false;
  let c = t.completed.(ai) + 1 in
  t.completed.(ai) <- c;
  if limit.(ai) <> max_int && c = limit.(ai) then
    t.remaining <- t.remaining - 1;
  deliver_fast t outputs;
  t.trace <- record :: t.trace

(* [true] iff [toks] has exactly [want] tokens, all of channel [ch]'s
   class. *)
let rec toks_ok t ch want = function
  | [] -> want = 0
  | tok :: rest ->
      want > 0
      && Token.is_ctrl tok = t.p.is_ctrl_chan.(ch)
      && toks_ok t ch (want - 1) rest

(* Lockstep output check: [true] when [outputs] lists exactly the expected
   channels in declaration order (rate-0 entries omitted) with the right
   counts and token classes — then [validate_outputs] is guaranteed to
   pass and can be skipped.  Any deviation returns [false] and the caller
   falls back to the full check, which either passes (e.g. an explicit
   [(ch, [])] for a rate-0 channel) or raises with the canonical error. *)
let rec validate_fast t expected outputs =
  match expected with
  | (ch, rate) :: erest -> (
      match outputs with
      | (ch', toks) :: orest when ch' = ch && rate > 0 ->
          toks_ok t ch rate toks && validate_fast t erest orest
      | _ -> rate = 0 && validate_fast t erest outputs)
  | [] -> ( match outputs with [] -> true | _ :: _ -> false)

(* Stats-tail helpers, top-level so the 100k-record walks stay
   closure-free.  [trace_sorted] is conservative under NaN (returns
   [false], falling back to the sort — identical result either way). *)
let rec max_finish acc = function
  | [] -> acc
  | r :: rest -> max_finish (if r.finish_ms > acc then r.finish_ms else acc) rest

let rec trace_sorted = function
  | a :: (b :: _ as rest) ->
      (a.start_ms < b.start_ms
      || (a.start_ms = b.start_ms && a.finish_ms <= b.finish_ms))
      && trace_sorted rest
  | _ -> true

let dummy_record =
  { actor = ""; index = 0; phase = 0; mode = ""; start_ms = 0.0; finish_ms = 0.0 }

let run_outcome ?(backend = `Event) ?(iterations = 1) ?targets ?until_ms
    ?(max_events = 1_000_000) ?pool t =
  if iterations < 1 then invalid_arg "Engine.run: iterations must be >= 1";
  let pool = match pool with Some _ as p -> p | None -> t.pool in
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
  let try_start ai =
    if eligible ai then
      match fireable t ai with
      | Some (cm, active) -> start_firing t ai cm active
      | None -> ()
  in
  (* Drain the dirty worklist in ascending actor id — the same stable
     order as the seed's global rescan, so scheduling decisions and the
     resulting traces are identical.  With a pool, the fireable set is
     decided first (firings that start together cannot enable or disable
     one another: outputs are delivered at [Complete], and consumption
     touches only the firing actor's own input channels), the stages run
     in parallel, and the commits replay in the same ascending order. *)
  (* Sorting and flag-clearing are shared: the worklist prefix is stable
     while it is walked, because nothing inside [try_start] marks actors
     dirty (outputs are delivered at [Complete], not at start). *)
  let take_worklist () =
    let len = t.dirty_len in
    if len > 0 then begin
      sort_worklist t.dirty_buf len;
      t.dirty_len <- 0;
      for k = 0 to len - 1 do
        t.dirty.(t.dirty_buf.(k)) <- false
      done
    end;
    len
  in
  let drain =
    match pool with
    | None ->
        fun () ->
          let len = take_worklist () in
          for k = 0 to len - 1 do
            try_start t.dirty_buf.(k)
          done
    | Some pool -> (
        fun () ->
          let len = take_worklist () in
          if len > 0 then begin
            let jobs = ref [] in
            for k = len - 1 downto 0 do
              let ai = t.dirty_buf.(k) in
              if eligible ai then
                match fireable t ai with
                | Some (cm, active) -> jobs := (ai, `Fire (cm, active)) :: !jobs
                | None -> ()
                | exception e -> jobs := (ai, `Raise e) :: !jobs
            done;
            match !jobs with
            | [] -> ()
            | [ (ai, `Fire (cm, active)) ] -> start_firing t ai cm active
            | [ (_, `Raise e) ] -> raise e
            | jobs -> fire_parallel t pool (Array.of_list jobs)
          end)
  in
  let steps = ref 0 in
  let stop = ref false in
  let budget_hit = ref false in
  let exporter_tick () =
    match t.exporter with
    | Some e when !steps land 1023 = 0 ->
        (* periodic snapshot export: refresh aggregates, then atomically
           rewrite TPDF_METRICS_OUT if the interval elapsed *)
        flush_sampled t pool;
        update_gc_gauges t;
        Om.Exporter.tick e
    | _ -> ()
  in
  (* The compiled static-schedule backend (see Compiled and DESIGN.md §8)
     engages only from a clean start it can fully model: no clocks, no
     pool, nothing in flight.  Everything else — including a run it
     deoptimised out of — goes through the event heap. *)
  let compiled =
    backend = `Compiled && pool = None && (not t.p.has_clock)
    && Event_heap.is_empty t.events
    && Array.for_all not t.busy
  in
  t.ran_compiled <- compiled;
  if compiled then begin
    (* Round executor: pending completions live in two flat FIFOs — the
       round being delivered ([cur], all at one timestamp) and the round
       it enables ([nxt], one uniform duration later).  Pop order equals
       the heap's (time, seq) order as long as every firing takes the
       same duration; the first firing that does not trips [deopt] and
       the pending entries (timestamps and seq numbers intact) reload
       into the heap, where the ordinary loop below resumes. *)
    let cur =
      ref (Compiled.Fifo.create ~dummy_u:[] ~dummy_v:dummy_record ())
    in
    let nxt =
      ref (Compiled.Fifo.create ~dummy_u:[] ~dummy_v:dummy_record ())
    in
    let cseq = ref (Event_heap.next_seq t.events) in
    let dur = ref neg_infinity (* negative = not yet discovered *) in
    let deopt = ref false in
    let commit ai (ctx, outputs) =
      let b = t.behaviors.(ai) in
      let d = b.Behavior.duration_ms ctx in
      if d < 0.0 then
        raise
          (Error
             (Negative_duration { actor = ctx.Behavior.actor; duration_ms = d }));
      let record =
        {
          actor = ctx.Behavior.actor;
          index = ctx.Behavior.index;
          phase = ctx.Behavior.phase;
          mode = ctx.Behavior.mode;
          start_ms = t.now;
          finish_ms = t.now +. d;
        }
      in
      t.count.(ai) <- ctx.Behavior.index + 1;
      t.busy.(ai) <- true;
      if !dur < 0.0 then dur := d else if d <> !dur then deopt := true;
      Compiled.Fifo.push !nxt ~time:(t.now +. d) ~seq:!cseq ~ai outputs record;
      incr cseq
    in
    (* Static actors — no control port, head mode reads [All_inputs] —
       never change mode, never reject an input and never touch the
       control machinery, so (under [Obs_off], where no occupancy
       sampling interleaves) their firings can be fused into one
       allocation-light check-consume-commit.  Everything it does is a
       step-for-step replay of [fireable]/[fire_stage]/[commit] for that
       shape: same pops, same error order, same records. *)
    let static =
      let fast = t.omode = Obs_off in
      Array.init n (fun ai ->
          fast
          && t.p.ctrl_port.(ai) < 0
          && Array.length t.p.cmodes.(ai) > 0
          &&
          match t.p.cmodes.(ai).(0).cm.Tpdf.Mode.inputs with
          | Tpdf.Mode.All_inputs -> true
          | _ -> false)
    in
    let start_static ai =
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
          let d = t.behaviors.(ai).Behavior.duration_ms ctx in
          if d < 0.0 then
            raise
              (Error
                 (Negative_duration
                    { actor = ctx.Behavior.actor; duration_ms = d }));
          let fin = t.now +. d in
          let record =
            {
              actor = ctx.Behavior.actor;
              index;
              phase;
              mode = ctx.Behavior.mode;
              start_ms = t.now;
              finish_ms = fin;
            }
          in
          t.count.(ai) <- index + 1;
          t.busy.(ai) <- true;
          if !dur < 0.0 then dur := d else if d <> !dur then deopt := true;
          (* Cfifo.push, hand-inlined minus the growth branch (ocamlopt
             without flambda will not inline the cross-module call) *)
          let fq = !nxt in
          let cap = Array.length fq.Cfifo.times in
          if fq.Cfifo.len = cap then
            Cfifo.push fq ~time:fin ~seq:!cseq ~ai outputs record
          else begin
            let i = fq.Cfifo.head + fq.Cfifo.len in
            let i = if i >= cap then i - cap else i in
            fq.Cfifo.times.(i) <- fin;
            fq.Cfifo.seqs.(i) <- !cseq;
            fq.Cfifo.ais.(i) <- ai;
            fq.Cfifo.us.(i) <- outputs;
            fq.Cfifo.vs.(i) <- record;
            fq.Cfifo.len <- fq.Cfifo.len + 1
          end;
          incr cseq
        end
      end
    in
    let try_start_gen ai =
      if eligible ai then
        match fireable t ai with
        | Some (cm, active) ->
            (match t.omode with
            | Obs_off -> ()
            | _ -> t.dom_fire.(0) <- t.dom_fire.(0) + 1);
            commit ai (fire_stage t ai cm active)
        | None -> ()
    in
    (* Who a completion of [ai] can wake: [ai] itself plus the consumer
       of every declared output channel, ascending and deduplicated —
       the dirty set [complete_event] would have built, precomputed (a
       superset when a phase produces nothing on some channel, which is
       harmless: an actor outside the true dirty set is never fireable,
       so trying it is a no-op).  Walking this in the steady loop
       replaces the whole mark/sort/clear worklist dance per event. *)
    let wake =
      let seen = Array.make n false in
      Array.init n (fun ai ->
          seen.(ai) <- true;
          let acc = ref [ ai ] in
          Array.iter
            (fun cm ->
              Array.iter
                (List.iter (fun ((ch, _) : int * int) ->
                     let dst = t.p.chan_dst.(ch) in
                     if not seen.(dst) then begin
                       seen.(dst) <- true;
                       acc := dst :: !acc
                     end))
                cm.cm_out_rates)
            t.p.cmodes.(ai);
          let arr = Array.of_list !acc in
          Array.iter (fun a -> seen.(a) <- false) arr;
          Array.sort (fun (a : int) b -> compare a b) arr;
          arr)
    in
    (* [take_worklist] fused in: flags clear before the starts, and
       nothing in either start path marks actors dirty, so the walked
       prefix is stable — same argument as the event loop's drain *)
    let drain_c () =
      let len = t.dirty_len in
      if len > 0 then begin
        sort_worklist t.dirty_buf len;
        t.dirty_len <- 0;
        for k = 0 to len - 1 do
          t.dirty.(t.dirty_buf.(k)) <- false
        done;
        for k = 0 to len - 1 do
          let ai = t.dirty_buf.(k) in
          if static.(ai) then start_static ai else try_start_gen ai
        done
      end
    in
    for ai = 0 to n - 1 do
      mark_dirty t ai
    done;
    drain_c ();
    let obs_off = t.omode = Obs_off in
    let exporter_on = match t.exporter with Some _ -> true | None -> false in
    let cap = match until_ms with Some c -> c | None -> infinity in
    let finished = ref false in
    while
      (not !finished) && (not !deopt)
      && not ((!cur).Cfifo.len = 0 && (!nxt).Cfifo.len = 0)
    do
      if (!cur).Cfifo.len = 0 then begin
        let tmp = !cur in
        cur := !nxt;
        nxt := tmp
      end;
      let q = !cur in
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
          (* Cfifo.advance, hand-inlined *)
          q.Cfifo.us.(h) <- q.Cfifo.dummy_u;
          q.Cfifo.vs.(h) <- q.Cfifo.dummy_v;
          let h1 = h + 1 in
          q.Cfifo.head <-
            (if h1 = Array.length q.Cfifo.times then 0 else h1);
          q.Cfifo.len <- q.Cfifo.len - 1;
          if obs_off then begin
            complete_fast t ~limit ai outputs record;
            let wl = wake.(ai) in
            for k = 0 to Array.length wl - 1 do
              let aj = wl.(k) in
              if static.(aj) then start_static aj else try_start_gen aj
            done
          end
          else begin
            complete_event t ~limit ai outputs record;
            drain_c ()
          end;
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
        (Compiled.Fifo.entries !cur @ Compiled.Fifo.entries !nxt)
    in
    Event_heap.load t.events ~next_seq:!cseq pending
  end
  else begin
    for ai = 0 to n - 1 do
      mark_dirty t ai
    done;
    drain ()
  end;
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
            (match ev with
            | Complete (ai, outputs, record) ->
                complete_event t ~limit ai outputs record
            | Tick ai -> tick_event t ai);
            drain ();
            exporter_tick ()
    end
  done;
  let end_ms = max_finish 0.0 t.trace in
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
    flush_sampled t pool;
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
      trace =
        (let rev = List.rev t.trace in
         (* completion order is already start-time order under uniform
            durations (every compiled run, most event runs); skip the
            sort then — stable_sort leaves a sorted list untouched, so
            the result is identical either way *)
         if trace_sorted rev then rev
         else
           List.stable_sort
             (fun a b ->
               let c = Float.compare a.start_ms b.start_ms in
               if c <> 0 then c else Float.compare a.finish_ms b.finish_ms)
             rev);
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

let run ?backend ?iterations ?targets ?until_ms ?max_events ?pool t =
  match run_outcome ?backend ?iterations ?targets ?until_ms ?max_events ?pool t with
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
    trace = List.rev_map firing t.trace;
  }

let restore ~graph ~valuation ?init_token ?behaviors ?obs ?pool ~default
    ~decode (s : Snapshot.t) =
  let t =
    instantiate_engine ~emit_initial:false
      (compile ~graph ~valuation)
      ?init_token ?behaviors ?obs ?pool ~default ()
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
  if List.length s.actors <> Array.length t.p.actor_names then
    fail "snapshot has %d actor(s), graph has %d" (List.length s.actors)
      (Array.length t.p.actor_names);
  List.iter
    (fun (a : Snapshot.actor_state) ->
      let ai = aid a.a_name in
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
  List.iter
    (fun (c : Snapshot.channel_state) ->
      let ch = c.c_id in
      if ch < 0 || ch >= Array.length t.p.chan_exists || not t.p.chan_exists.(ch)
      then fail "snapshot names unknown channel e%d" ch;
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
  t.trace <- List.rev_map firing s.trace;
  t
