(** Observability collector: a stream of {!Event.t} plus a {!Metrics.t}
    registry, with pluggable sinks.

    The collector is either {e enabled} ({!create}) or the shared
    {!disabled} instance.  Every emission function returns immediately on a
    disabled collector; instrumented hot paths additionally guard argument
    construction behind {!enabled} so that running with no collector
    attached allocates nothing and costs one branch. *)

type t

type sink = Event.t -> unit
(** Streaming consumers attached with {!add_sink}; called once per event in
    emission order.  The built-in in-memory sink (see {!events}) is
    independent of attached sinks. *)

val disabled : t
(** The shared no-op collector: {!enabled} is [false], nothing is recorded. *)

type sampling = {
  span_every : int;  (** emit one of every K firing spans (K >= 1) *)
  occupancy_every : int;
      (** emit one of every K per-channel occupancy samples; 0 = none *)
}
(** Production sampling policy.  A collector created with a policy tells
    instrumented hot paths (the simulation engine) to emit a
    deterministic 1-in-K subset of high-frequency events and to keep
    per-firing bookkeeping in dense aggregates flushed at run end,
    instead of one event + registry update per firing.  Rare events —
    reconfigure, transaction, fault/supervisor and drop instants — are
    always emitted.  The subset is chosen by counters, never randomness,
    so the emitted stream is identical run to run and at any domain
    count. *)

val default_sampling : sampling
(** [{ span_every = 64; occupancy_every = 0 }] — the always-on profile
    benchmarked by E20.  1-in-64 keeps the overhead on an engine that
    completes a firing every ~800 ns under 5%: a retained span costs
    about 1 us end to end (event construction, ring admission, and the
    extra minor-GC pressure of the survivors the ring keeps alive). *)

val create : ?keep_events:bool -> ?sampling:sampling -> unit -> t
(** An enabled collector.  [keep_events] (default [true]) controls the
    in-memory sink; pass [false] for long runs feeding a streaming sink
    such as {!Ring}.  [sampling] (default [None] = full capture)
    advertises a sampling policy to instrumented components; the
    collector itself records whatever is emitted either way. *)

val enabled : t -> bool
val metrics : t -> Metrics.t

val sampling : t -> sampling option
(** The policy given to {!create}; [None] on {!disabled} and on
    full-capture collectors. *)

val events : t -> Event.t list
(** Recorded events, oldest first. *)

val event_count : t -> int
(** Total events emitted (counted even when [keep_events] is [false]). *)

val add_sink : t -> sink -> unit
(** No-op on the disabled collector. *)

val shift : t -> float -> t
(** [shift t d] is a view of [t] adding [d] milliseconds to the virtual
    timestamp of every event emitted through it (wall-clock events are
    untouched).  The view shares the store and metrics of [t].  Used to
    concatenate consecutive simulator runs — e.g. reconfiguration
    sequences — on one global timeline. *)

val emit : t -> Event.t -> unit

(** {2 Domain-local capture}

    Staging for work that may be rolled back: code running on any
    domain brackets its instrumentation with
    {!capture_begin}/{!capture_end}, which diverts every event bound for
    this collector's store — including emissions through {!shift} views,
    which share the store — into a private buffer, together with the
    collector's metrics updates (see [Metrics] capture).  {!splice} then
    delivers a buffer as if it had been emitted directly, and dropping a
    buffer discards it.  The store itself is only ever touched by one
    domain at a time: capturing code writes its own buffer.

    Captures {e nest} (a per-domain stack): the innermost capture of a
    store receives emissions, and a {!splice} performed while an
    enclosing capture is active re-stages the buffer into the enclosing
    one instead of delivering.  [Tpdf_sim.Reconfigure] and
    [Tpdf_fault.Supervisor] rely on this to stage a whole iteration and
    discard it on transaction abort. *)

type capture

val capture_begin : t -> capture
(** Start diverting this collector's emissions on the current domain
    (pushed on the domain's capture stack).  On a disabled collector
    this is a no-op returning an empty buffer. *)

val capture_end : t -> capture -> unit
(** Stop diverting.  Call before handing the buffer to another domain.
    @raise Invalid_argument if [capture] is not the innermost capture of
    the current domain. *)

val splice : t -> capture -> unit
(** Feed the buffered events through the store (in-memory sink, event
    count, attached sinks, in buffered order) and replay the buffered
    metrics updates; if a capture of the same store is still active on
    this domain the buffer is appended to it instead (see nesting
    above).  Discarding a buffer without splicing rolls its events and
    metrics back.  No-op on a disabled collector.
    @raise Invalid_argument if the buffer was captured from a different
    collector's store. *)

val span :
  ?clock:Event.clock ->
  ?args:(string * Event.arg) list ->
  t ->
  cat:string ->
  track:string ->
  name:string ->
  ts_ms:float ->
  dur_ms:float ->
  unit ->
  unit

val instant :
  ?clock:Event.clock ->
  ?args:(string * Event.arg) list ->
  t ->
  cat:string ->
  track:string ->
  name:string ->
  ts_ms:float ->
  unit ->
  unit

val counter :
  ?clock:Event.clock ->
  ?args:(string * Event.arg) list ->
  t ->
  cat:string ->
  track:string ->
  name:string ->
  ts_ms:float ->
  float ->
  unit

val now_wall_ms : unit -> float
(** Wall-clock milliseconds since an arbitrary origin. *)

val wall_span : ?cat:string -> ?track:string -> t -> string -> (unit -> 'a) -> 'a
(** [wall_span t name f] runs [f] and, on an enabled collector, records a
    wall-clock span named [name] (default category and track ["analysis"])
    plus a [name ^ "_ms"] histogram observation.  Exceptions propagate, the
    span is still recorded. *)
