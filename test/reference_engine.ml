(* Byte-for-byte snapshot of the seed discrete-event engine (commit
   00dbc53), kept as the reference semantics oracle: the equivalence
   suite replays every shipped graph on both this engine and the
   optimized lib/sim engine and asserts identical stats, traces and
   observability streams.  Do not optimize this file.  The only edits
   vs the seed are the module aliases below (it now lives outside the
   tpdf_sim library).  *)
module Behavior = Tpdf_sim.Behavior
module Token = Tpdf_sim.Token

module Csdf = Tpdf_csdf
module Tpdf = Tpdf_core
module Digraph = Tpdf_graph.Digraph
module Obs = Tpdf_obs.Obs
module Ev = Tpdf_obs.Event
module Metrics = Tpdf_obs.Metrics

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
  | Complete of string * (int * 'a Token.t list) list * firing_record
  | Tick of string

module Eq = struct
  type 'a t = { mutable seq : int; mutable set : (float * int * 'a) list }
  (* Sorted association list; event volumes here are modest and insertion
     keeps it simple and allocation-light enough. *)

  let create () = { seq = 0; set = [] }

  let add t time v =
    let seq = t.seq in
    t.seq <- seq + 1;
    let rec insert = function
      | [] -> [ (time, seq, v) ]
      | ((t', s', _) as hd) :: rest ->
          if time < t' || (time = t' && seq < s') then (time, seq, v) :: hd :: rest
          else hd :: insert rest
    in
    t.set <- insert t.set

  let pop t =
    match t.set with
    | [] -> None
    | (time, _, v) :: rest ->
        t.set <- rest;
        Some (time, v)

  let is_empty t = t.set = []
end

type 'a t = {
  graph : Tpdf.Graph.t;
  conc : Csdf.Concrete.t;
  behaviors : (string, 'a Behavior.t) Hashtbl.t;
  queues : (int, 'a Token.t Queue.t) Hashtbl.t;
  debt : (int, int) Hashtbl.t;
  dropped : (int, int) Hashtbl.t;
  max_occ : (int, int) Hashtbl.t;
  count : (string, int) Hashtbl.t; (* firings started *)
  completed : (string, int) Hashtbl.t; (* firings finished *)
  busy : (string, bool) Hashtbl.t;
  last_mode : (string, string) Hashtbl.t;
  events : 'a event_kind Eq.t;
  obs : Obs.t;
  mutable now : float;
  mutable trace : firing_record list;
}


let default_behavior graph actor default =
  if Tpdf.Graph.is_control graph actor then Behavior.scenario_control graph []
  else Behavior.fill default

let queue t ch = Hashtbl.find t.queues ch

let get tbl key = match Hashtbl.find_opt tbl key with Some v -> v | None -> 0

let ch_track ch = "e" ^ string_of_int ch
let occ_metric ch = Printf.sprintf "channel.e%d.occupancy" ch

(* All instrumentation below is guarded by [Obs.enabled]: with no collector
   attached the engine allocates nothing for observability. *)
let sample_occupancy t ch =
  if Obs.enabled t.obs then begin
    let occ = float_of_int (Queue.length (queue t ch)) in
    Obs.counter t.obs ~cat:"channel" ~track:(ch_track ch) ~name:"occupancy"
      ~ts_ms:t.now occ;
    Metrics.observe (Obs.metrics t.obs) (occ_metric ch) occ
  end

let create ~graph ~valuation ?init_token ?(behaviors = [])
    ?(obs = Obs.disabled) ~default () =
  (match Tpdf.Graph.validate graph with
  | Ok () -> ()
  | Error msgs ->
      invalid_arg ("Engine.create: invalid graph: " ^ String.concat "; " msgs));
  let conc = Csdf.Concrete.make (Tpdf.Graph.skeleton graph) valuation in
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (a, b) ->
      if not (Csdf.Graph.mem_actor (Tpdf.Graph.skeleton graph) a) then
        invalid_arg (Printf.sprintf "Engine.create: unknown actor %s" a);
      Hashtbl.replace tbl a b)
    behaviors;
  List.iter
    (fun a ->
      if not (Hashtbl.mem tbl a) then
        Hashtbl.replace tbl a (default_behavior graph a default))
    (Tpdf.Graph.actors graph);
  let queues = Hashtbl.create 16 in
  let max_occ = Hashtbl.create 16 in
  List.iter
    (fun (e : (string, Csdf.Graph.channel) Digraph.edge) ->
      let q = Queue.create () in
      let mk =
        match init_token with
        | Some f -> f e.id
        | None ->
            fun _ ->
              if Tpdf.Graph.is_control_channel graph e.id then
                Token.Ctrl (Behavior.first_mode graph e.dst)
              else Token.Data default
      in
      for i = 0 to e.label.init - 1 do
        Queue.add (mk i) q
      done;
      Hashtbl.replace queues e.id q;
      Hashtbl.replace max_occ e.id e.label.init)
    (Csdf.Graph.channels (Tpdf.Graph.skeleton graph));
  let count = Hashtbl.create 16 and busy = Hashtbl.create 16 in
  let last_mode = Hashtbl.create 16 in
  let completed = Hashtbl.create 16 in
  List.iter
    (fun a ->
      Hashtbl.replace count a 0;
      Hashtbl.replace completed a 0;
      Hashtbl.replace busy a false;
      Hashtbl.replace last_mode a (Behavior.first_mode graph a))
    (Tpdf.Graph.actors graph);
  {
    graph;
    conc;
    behaviors = tbl;
    queues;
    debt = Hashtbl.create 16;
    dropped = Hashtbl.create 16;
    max_occ;
    count;
    completed;
    busy;
    last_mode;
    events = Eq.create ();
    obs;
    now = 0.0;
    trace = [];
  }
  |> fun t ->
  (* One occupancy sample per channel at t=0 so every channel has a series
     even if it never carries traffic. *)
  if Obs.enabled obs then
    List.iter
      (fun (e : (string, Csdf.Graph.channel) Digraph.edge) ->
        sample_occupancy t e.id)
      (Csdf.Graph.channels (Tpdf.Graph.skeleton graph));
  t


(* Discharge rejection debt against the tokens currently in the channel. *)
let purge t ch =
  let d = get t.debt ch in
  if d > 0 then begin
    let q = queue t ch in
    let dropped = ref 0 in
    while !dropped < d && not (Queue.is_empty q) do
      ignore (Queue.pop q);
      incr dropped
    done;
    Hashtbl.replace t.debt ch (d - !dropped);
    Hashtbl.replace t.dropped ch (get t.dropped ch + !dropped);
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
  let q = queue t ch in
  List.iter (fun tok -> Queue.add tok q) toks;
  purge t ch;
  let occ = Queue.length q in
  if occ > get t.max_occ ch then Hashtbl.replace t.max_occ ch occ;
  sample_occupancy t ch

let skel t = Tpdf.Graph.skeleton t.graph

let data_in_channels t a =
  List.filter
    (fun (e : (string, Csdf.Graph.channel) Digraph.edge) ->
      not (Tpdf.Graph.is_control_channel t.graph e.id))
    (Csdf.Graph.in_channels (skel t) a)

let cons_rate t ch phase =
  (Csdf.Concrete.chan t.conc ch).Csdf.Concrete.cons.(phase)

let prod_rate t ch phase =
  (Csdf.Concrete.chan t.conc ch).Csdf.Concrete.prod.(phase)

let mode_of_token t a =
  match Tpdf.Graph.control_port t.graph a with
  | None -> List.hd (Tpdf.Graph.modes t.graph a)
  | Some cid -> (
      let phase = get t.count a mod Csdf.Graph.phases (skel t) a in
      let rate = cons_rate t cid phase in
      if rate = 0 then
        (* No control token this phase: the previous mode persists. *)
        Tpdf.Graph.find_mode t.graph a (Hashtbl.find t.last_mode a)
      else
        let q = queue t cid in
        if Queue.is_empty q then raise Exit
        else
          match Queue.peek q with
          | Token.Ctrl name -> (
              match Tpdf.Graph.find_mode t.graph a name with
              | m -> m
              | exception Not_found ->
                  raise (Error (Unknown_mode { actor = a; token = name })))
          | Token.Data _ -> raise (Error (Data_on_control_port { actor = a })))

(* Decide whether actor [a] can fire now; if so return the mode and the
   selected active input channels. *)
let fireable t a =
  match mode_of_token t a with
  | exception Exit -> None (* waiting for a control token *)
  | mode -> (
      let phase = get t.count a mod Csdf.Graph.phases (skel t) a in
      let ins = data_in_channels t a in
      let has_enough (e : (string, Csdf.Graph.channel) Digraph.edge) =
        Queue.length (queue t e.id) >= cons_rate t e.id phase
      in
      match mode.Tpdf.Mode.inputs with
      | Tpdf.Mode.All_inputs ->
          if List.for_all has_enough ins then
            Some (mode, List.map (fun (e : (_, _) Digraph.edge) -> e.id) ins)
          else None
      | Tpdf.Mode.Input_subset l ->
          let selected = List.filter (fun e -> List.mem e.Digraph.id l) ins in
          if List.for_all has_enough selected then
            Some (mode, List.map (fun (e : (_, _) Digraph.edge) -> e.id) selected)
          else None
      | Tpdf.Mode.Highest_priority_available -> (
          let ready = List.filter has_enough ins in
          match ready with
          | [] -> None (* wait for the first input to become available *)
          | _ ->
              let best =
                List.fold_left
                  (fun best e ->
                    if
                      Tpdf.Graph.priority t.graph e.Digraph.id
                      > Tpdf.Graph.priority t.graph best.Digraph.id
                    then e
                    else best)
                  (List.hd ready) (List.tl ready)
              in
              Some (mode, [ best.Digraph.id ])))

let consume t a mode active phase =
  (* Control token first. *)
  (match Tpdf.Graph.control_port t.graph a with
  | Some cid when cons_rate t cid phase > 0 ->
      ignore (Queue.pop (queue t cid));
      Hashtbl.replace t.last_mode a mode.Tpdf.Mode.name;
      if Obs.enabled t.obs then begin
        Obs.instant t.obs ~cat:"control" ~track:a ~name:"ctrl-read"
          ~ts_ms:t.now
          ~args:
            [ ("mode", Ev.Str mode.Tpdf.Mode.name); ("channel", Ev.Int cid) ]
          ();
        Metrics.incr (Obs.metrics t.obs) ("engine.ctrl_reads." ^ a);
        sample_occupancy t cid
      end
  | _ -> ());
  let inputs =
    List.filter_map
      (fun (e : (string, Csdf.Graph.channel) Digraph.edge) ->
        let rate = cons_rate t e.id phase in
        if List.mem e.id active then begin
          let toks = List.init rate (fun _ -> Queue.pop (queue t e.id)) in
          if rate > 0 then sample_occupancy t e.id;
          if rate = 0 then None else Some (e.id, toks)
        end
        else begin
          (* Rejected input: its tokens are discarded as they arrive. *)
          if rate > 0 then begin
            Hashtbl.replace t.debt e.id (get t.debt e.id + rate);
            purge t e.id;
            sample_occupancy t e.id
          end;
          None
        end)
      (data_in_channels t a)
  in
  inputs

let out_rates t a mode phase =
  List.map
    (fun (e : (string, Csdf.Graph.channel) Digraph.edge) ->
      let rate = prod_rate t e.id phase in
      let rate =
        if
          Tpdf.Graph.is_control_channel t.graph e.id
          || Tpdf.Mode.output_may_be_active mode e.id
        then rate
        else 0
      in
      (e.id, rate))
    (Csdf.Graph.out_channels (skel t) a)

let validate_outputs t a expected outputs =
  List.iter
    (fun (ch, rate) ->
      let produced =
        match List.assoc_opt ch outputs with Some l -> List.length l | None -> 0
      in
      if produced <> rate then
        raise
          (Error
             (Rate_mismatch
                { actor = a; channel = ch; expected = rate; produced })))
    expected;
  List.iter
    (fun (ch, toks) ->
      if not (List.mem_assoc ch expected) then
        raise (Error (Foreign_channel { actor = a; channel = ch }));
      let is_ctrl_chan = Tpdf.Graph.is_control_channel t.graph ch in
      List.iter
        (fun tok ->
          if Token.is_ctrl tok <> is_ctrl_chan then
            raise
              (Error
                 (Token_class_mismatch
                    { actor = a; channel = ch; control_channel = is_ctrl_chan })))
        toks)
    outputs

let start_firing t a (mode : Tpdf.Mode.t) active =
  let index = get t.count a in
  let phase = index mod Csdf.Graph.phases (skel t) a in
  let inputs = consume t a mode active phase in
  let rates = out_rates t a mode phase in
  let ctx =
    {
      Behavior.actor = a;
      mode = mode.Tpdf.Mode.name;
      phase;
      index;
      now_ms = t.now;
      inputs;
      out_rates = rates;
    }
  in
  let b = Hashtbl.find t.behaviors a in
  let outputs = b.Behavior.work ctx in
  validate_outputs t a rates outputs;
  let d = b.Behavior.duration_ms ctx in
  if d < 0.0 then
    raise (Error (Negative_duration { actor = a; duration_ms = d }));
  let record =
    {
      actor = a;
      index;
      phase;
      mode = mode.Tpdf.Mode.name;
      start_ms = t.now;
      finish_ms = t.now +. d;
    }
  in
  Hashtbl.replace t.count a (index + 1);
  Hashtbl.replace t.busy a true;
  Eq.add t.events (t.now +. d) (Complete (a, outputs, record))

let run_outcome ?(iterations = 1) ?targets ?until_ms ?(max_events = 1_000_000)
    t =
  if iterations < 1 then invalid_arg "Engine.run: iterations must be >= 1";
  (match targets with
  | None -> ()
  | Some l ->
      List.iter
        (fun (a, n) ->
          if not (Csdf.Graph.mem_actor (skel t) a) then
            invalid_arg
              (Printf.sprintf "Engine.run: unknown target actor %s" a);
          if n < 0 then
            invalid_arg
              (Printf.sprintf "Engine.run: negative target %d for %s" n a))
        l);
  let base a =
    match targets with
    | None -> Csdf.Concrete.q t.conc a
    | Some l -> (
        match List.assoc_opt a l with
        | Some n -> n
        | None -> Csdf.Concrete.q t.conc a)
  in
  let limit a =
    if Tpdf.Graph.clock_period_ms t.graph a <> None then max_int
    else iterations * base a
  in
  (* An iteration is done when every firing has also *completed*: in-flight
     firings still deliver their tokens (e.g. a slow speculative path whose
     result must be rejected). *)
  let finished () =
    List.for_all
      (fun a -> limit a = max_int || get t.completed a >= limit a)
      (Tpdf.Graph.actors t.graph)
  in
  (* Arm the clocks. *)
  List.iter
    (fun a ->
      match Tpdf.Graph.clock_period_ms t.graph a with
      | Some p -> Eq.add t.events p (Tick a)
      | None -> ())
    (Tpdf.Graph.control_actors t.graph);
  let try_start_all () =
    List.iter
      (fun a ->
        if
          (not (Hashtbl.find t.busy a))
          && Tpdf.Graph.clock_period_ms t.graph a = None
          && get t.count a < limit a
        then
          match fireable t a with
          | Some (mode, active) -> start_firing t a mode active
          | None -> ())
      (Tpdf.Graph.actors t.graph)
  in
  try_start_all ();
  let steps = ref 0 in
  let stop = ref false in
  let budget_hit = ref false in
  while (not !stop) && not (Eq.is_empty t.events) do
    incr steps;
    if !steps > max_events then begin
      budget_hit := true;
      stop := true
    end
    else if finished () then stop := true
    else
      match Eq.pop t.events with
      | None -> stop := true
      | Some (time, ev) -> (
          (match until_ms with
          | Some cap when time > cap -> stop := true
          | _ -> ());
          if not !stop then begin
            t.now <- time;
            (match ev with
            | Complete (a, outputs, record) ->
                Hashtbl.replace t.busy a false;
                Hashtbl.replace t.completed a (get t.completed a + 1);
                List.iter (fun (ch, toks) -> push_tokens t ch toks) outputs;
                t.trace <- record :: t.trace;
                if Obs.enabled t.obs then begin
                  Obs.span t.obs ~cat:"firing" ~track:a
                    ~name:(a ^ "/" ^ record.mode) ~ts_ms:record.start_ms
                    ~dur_ms:(record.finish_ms -. record.start_ms)
                    ~args:
                      [
                        ("index", Ev.Int record.index);
                        ("phase", Ev.Int record.phase);
                        ("mode", Ev.Str record.mode);
                      ]
                    ();
                  Metrics.incr (Obs.metrics t.obs) ("engine.firings." ^ a);
                  Metrics.observe (Obs.metrics t.obs)
                    ("engine.firing_ms." ^ a)
                    (record.finish_ms -. record.start_ms)
                end
            | Tick a ->
                (* A clock firing: no inputs, emits control tokens now. *)
                let index = get t.count a in
                let phase = index mod Csdf.Graph.phases (skel t) a in
                let mode = List.hd (Tpdf.Graph.modes t.graph a) in
                ignore mode;
                let rates = out_rates t a (Tpdf.Mode.default) phase in
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
                let b = Hashtbl.find t.behaviors a in
                let outputs = b.Behavior.work ctx in
                validate_outputs t a rates outputs;
                Hashtbl.replace t.count a (index + 1);
                List.iter (fun (ch, toks) -> push_tokens t ch toks) outputs;
                t.trace <-
                  {
                    actor = a;
                    index;
                    phase;
                    mode = "tick";
                    start_ms = t.now;
                    finish_ms = t.now;
                  }
                  :: t.trace;
                if Obs.enabled t.obs then begin
                  Obs.instant t.obs ~cat:"clock" ~track:a ~name:(a ^ "/tick")
                    ~ts_ms:t.now
                    ~args:[ ("index", Ev.Int index); ("phase", Ev.Int phase) ]
                    ();
                  Metrics.incr (Obs.metrics t.obs) ("engine.ticks." ^ a)
                end;
                (match Tpdf.Graph.clock_period_ms t.graph a with
                | Some p -> Eq.add t.events (t.now +. p) (Tick a)
                | None -> ()));
            try_start_all ()
          end)
  done;
  let end_ms =
    List.fold_left (fun acc r -> max acc r.finish_ms) 0.0 t.trace
  in
  if Obs.enabled t.obs then begin
    let m = Obs.metrics t.obs in
    Metrics.set_gauge m "engine.end_ms" end_ms;
    Metrics.set_gauge m "engine.steps" (float_of_int !steps)
  end;
  let stats =
    {
      end_ms;
      firings =
        List.map (fun a -> (a, get t.count a)) (Tpdf.Graph.actors t.graph);
      max_occupancy =
        List.map
          (fun (e : (string, Csdf.Graph.channel) Digraph.edge) ->
            (e.id, get t.max_occ e.id))
          (Csdf.Graph.channels (skel t));
      dropped =
        List.map
          (fun (e : (string, Csdf.Graph.channel) Digraph.edge) ->
            (e.id, get t.dropped e.id))
          (Csdf.Graph.channels (skel t));
      trace =
        List.stable_sort
          (fun a b ->
            compare (a.start_ms, a.finish_ms) (b.start_ms, b.finish_ms))
          (List.rev t.trace);
    }
  in
  if !budget_hit then
    Budget_exceeded { steps = !steps; at_ms = t.now; partial = stats }
  else if not (finished ()) then
    Stalled
      ( {
          at_ms = t.now;
          blocked_actors =
            List.filter_map
              (fun a ->
                let l = limit a in
                if l <> max_int && get t.completed a < l then
                  Some (a, get t.completed a, l)
                else None)
              (Tpdf.Graph.actors t.graph);
          channel_states =
            List.map
              (fun (e : (string, Csdf.Graph.channel) Digraph.edge) ->
                (e.id, Queue.length (queue t e.id)))
              (Csdf.Graph.channels (skel t));
        },
        stats )
  else Completed stats

let run ?iterations ?targets ?until_ms ?max_events t =
  match run_outcome ?iterations ?targets ?until_ms ?max_events t with
  | Completed stats -> stats
  | Stalled (s, _) ->
      failwith
        (Printf.sprintf "Engine.run: stalled at %.3f ms (stuck: %s)" s.at_ms
           (String.concat ", "
              (List.map (fun (a, _, _) -> a) s.blocked_actors)))
  | Budget_exceeded _ ->
      failwith "Engine.run: event budget exceeded (runaway simulation?)"
  | exception Error e -> failwith (error_message e)

let channel_tokens t ch = List.of_seq (Queue.to_seq (queue t ch))
