type sink = Event.t -> unit

type store = {
  mutable rev_events : Event.t list;
  mutable n_events : int;
  mutable sinks : sink list;
  keep : bool;
}

(* Sampling policy advertised to instrumented hot paths (the engine):
   emit one of every [span_every] firing spans, and one of every
   [occupancy_every] channel-occupancy samples (0 = none).  The policy
   lives on the collector so that every component the collector is
   threaded through — supervisors and reconfiguration sequences create
   engines internally — inherits it without new plumbing. *)
type sampling = { span_every : int; occupancy_every : int }

let default_sampling = { span_every = 64; occupancy_every = 0 }

type t = {
  enabled : bool;
  offset_ms : float; (* added to virtual timestamps; see [shift] *)
  store : store;
  metrics : Metrics.t;
  sampling : sampling option; (* None = full capture *)
}

let disabled =
  {
    enabled = false;
    offset_ms = 0.0;
    store = { rev_events = []; n_events = 0; sinks = []; keep = false };
    metrics = Metrics.create ();
    sampling = None;
  }

let create ?(keep_events = true) ?sampling () =
  (match sampling with
  | Some s when s.span_every < 1 || s.occupancy_every < 0 ->
      invalid_arg "Obs.create: span_every >= 1, occupancy_every >= 0"
  | _ -> ());
  {
    enabled = true;
    offset_ms = 0.0;
    store = { rev_events = []; n_events = 0; sinks = []; keep = keep_events };
    metrics = Metrics.create ();
    sampling;
  }

let enabled t = t.enabled
let metrics t = t.metrics
let sampling t = t.sampling
let events t = List.rev t.store.rev_events
let event_count t = t.store.n_events

let add_sink t sink =
  if t.enabled then t.store.sinks <- t.store.sinks @ [ sink ]

let shift t offset_ms =
  if not t.enabled then t
  else { t with offset_ms = t.offset_ms +. offset_ms }

(* Domain-local capture (see the .mli): while active on the current
   domain, events bound for the captured store are diverted — already
   offset-adjusted, so [shift] views behave identically — into a buffer
   that [splice] later feeds through the normal store path (in-memory
   sink, event counting, attached sinks).  Metrics updates are captured
   alongside through [Metrics].  The store itself is never touched from
   more than one domain: capturing tasks write only their own buffers. *)
type capture = {
  cap_store : store;
  mutable rev_captured : Event.t list;
  cap_metrics : Metrics.capture option; (* None on a disabled collector *)
}

(* Captures nest as a per-domain stack (mirroring [Metrics]): the
   innermost capture targeting a store receives its events, and a
   [splice] executed while an enclosing capture is active re-stages the
   buffer into it instead of delivering — so a reconfiguration
   transaction and a supervised iteration can each stage their events
   for possible rollback, one inside the other. *)
let capture_slot : capture list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

let active_capture store =
  let rec find = function
    | [] -> None
    | c :: rest -> if c.cap_store == store then Some c else find rest
  in
  find !(Domain.DLS.get capture_slot)

let capture_begin t =
  if not t.enabled then
    { cap_store = t.store; rev_captured = []; cap_metrics = None }
  else begin
    let slot = Domain.DLS.get capture_slot in
    let c =
      {
        cap_store = t.store;
        rev_captured = [];
        cap_metrics = Some (Metrics.capture_begin t.metrics);
      }
    in
    slot := c :: !slot;
    c
  end

let capture_end t c =
  if t.enabled then begin
    let slot = Domain.DLS.get capture_slot in
    (match !slot with
    | active :: rest when active == c -> slot := rest
    | _ -> invalid_arg "Obs.capture_end: capture not innermost on this domain");
    match c.cap_metrics with
    | Some mc -> Metrics.capture_end mc
    | None -> ()
  end

let deliver store ev =
  if store.keep then store.rev_events <- ev :: store.rev_events;
  store.n_events <- store.n_events + 1;
  List.iter (fun s -> s ev) store.sinks

let splice t c =
  if t.enabled then begin
    if not (c.cap_store == t.store) then
      invalid_arg "Obs.splice: buffer belongs to another store";
    (match active_capture t.store with
    | Some outer -> outer.rev_captured <- c.rev_captured @ outer.rev_captured
    | None -> List.iter (deliver t.store) (List.rev c.rev_captured));
    match c.cap_metrics with
    | Some mc -> Metrics.replay t.metrics mc
    | None -> ()
  end

let emit t (ev : Event.t) =
  if t.enabled then begin
    let ev =
      if ev.Event.clock = Event.Virtual && t.offset_ms <> 0.0 then
        { ev with Event.ts_ms = ev.Event.ts_ms +. t.offset_ms }
      else ev
    in
    match active_capture t.store with
    | Some c -> c.rev_captured <- ev :: c.rev_captured
    | None -> deliver t.store ev
  end

let span ?(clock = Event.Virtual) ?(args = []) t ~cat ~track ~name ~ts_ms
    ~dur_ms () =
  if t.enabled then
    emit t
      {
        Event.name;
        cat;
        track;
        clock;
        ts_ms;
        payload = Event.Span dur_ms;
        args;
      }

let instant ?(clock = Event.Virtual) ?(args = []) t ~cat ~track ~name ~ts_ms ()
    =
  if t.enabled then
    emit t
      { Event.name; cat; track; clock; ts_ms; payload = Event.Instant; args }

let counter ?(clock = Event.Virtual) ?(args = []) t ~cat ~track ~name ~ts_ms
    value =
  if t.enabled then
    emit t
      {
        Event.name;
        cat;
        track;
        clock;
        ts_ms;
        payload = Event.Counter value;
        args;
      }

let now_wall_ms () = Unix.gettimeofday () *. 1000.0

let wall_span ?(cat = "analysis") ?(track = "analysis") t name f =
  if not t.enabled then f ()
  else begin
    let t0 = now_wall_ms () in
    let finally () =
      let t1 = now_wall_ms () in
      span ~clock:Event.Wall t ~cat ~track ~name ~ts_ms:t0 ~dur_ms:(t1 -. t0)
        ();
      Metrics.observe t.metrics (name ^ "_ms") (t1 -. t0)
    in
    match f () with
    | v ->
        finally ();
        v
    | exception e ->
        finally ();
        raise e
  end
