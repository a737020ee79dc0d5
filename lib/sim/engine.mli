(** Discrete-event execution of TPDF graphs.

    The engine implements the runtime semantics of §II-B and §III-D on an
    unbounded-parallelism platform (every actor is its own sequential
    process; firings take the durations given by the behaviours):

    - a kernel with a control port first reads one control token (when the
      current phase's control rate is 1), which selects its mode;
    - depending on the mode it waits for all inputs, a subset, or — for the
      Transaction box's deadline behaviour — the {e highest-priority input
      available} at that moment (falling back to the first input to become
      available when none is ready);
    - tokens on rejected inputs are {e discarded}, keeping every buffer
      bounded exactly as Theorem 2 promises;
    - {e clock} control actors fire on their period, independently of data;
    - everything is deterministic given the behaviours.

    Internally the graph is compiled once per valuation into a {!program}
    of dense arrays (rates, control ports, adjacency, per-mode tables)
    that every instance of it shares, events live in an
    {!Event_heap} ordered by [(time, seq)], and scheduling re-examines only
    actors woken by token arrivals or their own completion — see DESIGN.md,
    "Engine internals", for the structure and the determinism contract. *)

type firing_record = {
  actor : string;
  index : int;
  phase : int;
  mode : string;
  start_ms : float;
  finish_ms : float;
}

type stats = {
  end_ms : float;  (** completion time of the last firing *)
  firings : (string * int) list;  (** per actor *)
  max_occupancy : (int * int) list;  (** per channel id, incl. initial *)
  dropped : (int * int) list;  (** rejected tokens per channel id *)
  trace : firing_record list;  (** in start order *)
}

(** {2 Typed run diagnoses}

    Behaviour-contract violations are programming errors and carry a typed
    {!error}; abnormal run terminations (deadlock, runaway) are execution
    facts and are reported as an {!outcome} so a supervisor can react to
    them — see [Tpdf_fault.Supervisor]. *)

type error =
  | Unknown_mode of { actor : string; token : string }
      (** a control token named a mode the kernel does not declare *)
  | Data_on_control_port of { actor : string }
  | Rate_mismatch of {
      actor : string;
      channel : int;
      expected : int;
      produced : int;
    }  (** behaviour produced the wrong token count on a channel *)
  | Foreign_channel of { actor : string; channel : int }
  | Token_class_mismatch of {
      actor : string;
      channel : int;
      control_channel : bool;
    }  (** data token on a control channel or vice versa *)
  | Negative_duration of { actor : string; duration_ms : float }

exception Error of error

val error_message : error -> string
(** The human-readable rendering {!run} uses when re-raising as [Failure]. *)

type stall = {
  at_ms : float;  (** virtual time at which no event remained *)
  blocked_actors : (string * int * int) list;
      (** [(actor, completed, required)] for every actor short of its
          firing target *)
  channel_states : (int * int) list;
      (** per-channel occupancy at stall time *)
}

type outcome =
  | Completed of stats
  | Stalled of stall * stats  (** deadlock; partial stats included *)
  | Budget_exceeded of { steps : int; at_ms : float; partial : stats }
      (** [max_events] exhausted (runaway guard) *)

val pp_stall : Format.formatter -> stall -> unit

type program
(** The immutable compiled form of one (graph, valuation): validated
    graph, concrete rates, dense actor and channel tables, per-mode
    tables and buffer capacity hints.  Parameters are fixed within an
    iteration and change only at its boundary, so a program stays valid
    for every iteration until the valuation changes; any number of
    instances may share it, concurrently included. *)

type 'a t
(** A runnable instance: the mutable run state of one program. *)

val compile :
  graph:Tpdf_core.Graph.t -> valuation:Tpdf_param.Valuation.t -> program
(** @raise Invalid_argument if the graph fails
    {!Tpdf_core.Graph.validate}. *)

val instantiate :
  program ->
  ?init_token:(int -> int -> 'a Token.t) ->
  ?behaviors:(string * 'a Behavior.t) list ->
  ?obs:Tpdf_obs.Obs.t ->
  ?pool:Tpdf_par.Pool.t ->
  default:'a ->
  unit ->
  'a t
(** A fresh instance of [program] at t=0: only the run state (ring
    buffers, initial tokens, counters, event heap) is allocated.
    Arguments as {!create}.
    @raise Invalid_argument on unknown behaviour actors. *)

val create :
  graph:Tpdf_core.Graph.t ->
  valuation:Tpdf_param.Valuation.t ->
  ?init_token:(int -> int -> 'a Token.t) ->
  ?behaviors:(string * 'a Behavior.t) list ->
  ?obs:Tpdf_obs.Obs.t ->
  ?pool:Tpdf_par.Pool.t ->
  default:'a ->
  unit ->
  'a t
(** [instantiate (compile ~graph ~valuation)]: builds a runnable
    instance.  [init_token ch i] gives the i-th initial
    token of channel [ch] (default: [Data default] on data channels and the
    first mode name on control channels).  Actors without an explicit
    behaviour source [default] values ({!Behavior.fill}); control actors
    default to emitting their destination's first mode name.

    [obs] (default {!Tpdf_obs.Obs.disabled}) receives the run's virtual-time
    event stream: one ["firing"] span per completed firing, ["clock"] tick
    instants, ["control"] token-read instants, ["channel"] occupancy counter
    samples (one per channel at t=0, then on every push/pop) and token-drop
    instants, plus per-actor/per-channel metrics.  With the disabled
    collector every instrumentation point is a single branch and allocates
    nothing, so simulation results and timings are unchanged.

    [pool] turns on deterministic parallel execution: the behaviours of
    all firings that start at the same drain — independent by
    construction, since outputs are delivered at completion and each
    channel has a single consumer — run on the pool's domains, and their
    results are committed in ascending actor id.  Outcomes, stats,
    traces, metrics and obs event streams are bit-identical to a
    sequential run (enforced by [test/test_engine_equiv.ml]); behaviours
    must only be thread-safe {e against each other} (shared mutable state
    between different actors' behaviours needs locking — see
    [Tpdf_fault.Supervisor]).
    @raise Invalid_argument on unknown behaviour actors, or if the graph
    fails {!Tpdf_core.Graph.validate}. *)

val run_outcome :
  ?backend:[ `Event | `Compiled ] ->
  ?iterations:int ->
  ?targets:(string * int) list ->
  ?until_ms:float ->
  ?max_events:int ->
  ?pool:Tpdf_par.Pool.t ->
  'a t ->
  outcome
(** Execute [iterations] (default 1) graph iterations: every non-clock
    actor fires [iterations × q] times; clocks tick until the rest of the
    graph finishes.  [targets] overrides the per-iteration count of listed
    actors — pass 0 for actors on a branch the scenario never activates.
    [until_ms] caps simulated time, [max_events] (default 1_000_000) caps
    engine steps as a runaway guard.  When [until_ms] cuts a run short the
    first event past the cap stays queued, so a later [run_outcome] call on
    the same instance resumes where the capped run stopped.

    [backend] (default [`Event]) selects the execution strategy, never
    the semantics: [`Compiled] replays the static-schedule rounds of
    §III-D with two flat FIFOs instead of the event heap, and is
    byte-equivalent to [`Event] — outcomes, stats, traces, obs streams
    and snapshot images are identical (enforced by
    [test/test_engine_equiv.ml]).  It engages when the run starts clean
    (no clocked actors, no pool, no pending events or in-flight firings)
    and firing durations are uniform; any other situation — including
    the first non-uniform duration mid-run — falls back to the event
    interpreter transparently, continuing the same run.  See DESIGN.md
    §8.

    A run that cannot complete its firing targets returns {!Stalled} with a
    full diagnosis (blocked actors with their completed/required counts,
    per-channel occupancy at stall time); exhausting the event budget
    returns {!Budget_exceeded}.  Partial statistics are carried in both.
    [pool] overrides the pool given at {!create} for this run (the engine
    stays usable sequentially and in parallel on the same instance).
    @raise Invalid_argument on a [targets] entry naming an unknown actor or
    carrying a negative count, or if [iterations < 1].
    @raise Error if a behaviour violates its contract (wrong token counts,
    bad control tokens, negative durations). *)

val run :
  ?backend:[ `Event | `Compiled ] ->
  ?iterations:int ->
  ?targets:(string * int) list ->
  ?until_ms:float ->
  ?max_events:int ->
  ?pool:Tpdf_par.Pool.t ->
  'a t ->
  stats
(** Compatibility wrapper around {!run_outcome}: returns the stats of a
    {!Completed} run.
    @raise Invalid_argument as {!run_outcome}.
    @raise Failure if the graph stalls before completing the iterations
    (deadlock at run time), the event budget is exhausted, or a behaviour
    violates its contract ({!Error} is rendered with {!error_message}). *)

val channel_tokens : 'a t -> int -> 'a Token.t list
(** Current contents of a channel (after {!run}: leftovers). *)

val pending_events : 'a t -> int
(** Events still queued.  After a capped {!run_outcome} this is how a
    caller distinguishes "stopped at [until_ms]" (events pending) from a
    genuine deadlock (queue drained). *)

(** {2 Snapshot / restore}

    The engine's complete deterministic run state as plain data (see
    {!Snapshot}): restore-then-continue is byte-identical to an
    uninterrupted run — outcomes, stats, traces and [tpdf_obs] streams —
    at any iteration boundary or mid-iteration point, sequentially or on
    a pool.  Enforced by [test/test_ckpt.ml]. *)

val at_boundary : 'a t -> bool
(** The iteration-boundary invariant (PAPER §III): no firing in flight,
    no undischarged rejection debt, every channel back to its initial
    token {e count}, and no pending event other than clock ticks.  This
    is the state in which a parameter change is safe. *)

val snapshot : encode:('a -> string) -> 'a t -> Snapshot.t
(** Capture the run state.  [encode] serializes data-token payloads;
    it must be the inverse of the [decode] later given to {!restore}. *)

val restore :
  graph:Tpdf_core.Graph.t ->
  valuation:Tpdf_param.Valuation.t ->
  ?init_token:(int -> int -> 'a Token.t) ->
  ?behaviors:(string * 'a Behavior.t) list ->
  ?obs:Tpdf_obs.Obs.t ->
  ?pool:Tpdf_par.Pool.t ->
  default:'a ->
  decode:(string -> 'a) ->
  Snapshot.t ->
  'a t
(** Rebuild a runnable engine in the snapshotted state.  [graph],
    [valuation] and [behaviors] must match the original {!create} call
    (the snapshot carries state, not code); the t=0 occupancy samples
    are {e not} re-emitted, so the [obs] stream of the restored engine
    continues exactly where the original's left off.
    @raise Invalid_argument when the snapshot does not fit the graph
    (unknown actors/channels/modes, wrong counts). *)
