(** Supervised execution: fault-injected runs with recovery and graceful
    degradation.

    The supervisor layers on {!Tpdf_sim.Engine} without changing its
    semantics: it wraps every actor behaviour so that the faults drawn from
    a {!Plan} are injected into the firing's work and duration, and applies
    the {!Policy}:

    - {b bounded retry}: a firing hit by transient failures within the
      retry budget succeeds after the injected failures, its duration
      extended by [retry_backoff_ms] per retry (virtual-time backoff);
    - {b skip-and-substitute}: past the budget, the firing is skipped and
      the supervisor re-emits the declared rates with default tokens, so
      rate consistency — and with it Theorem 2's boundedness — is
      preserved;
    - {b deadline watchdog}: firings of actors with a declared deadline are
      checked against it (after overrun/jitter/backoff);
    - {b mode fallback}: after [degrade_after] consecutive deadline misses
      or skips in a watched actor, the fallback's [(kernel, mode)] pins are
      applied at the next iteration boundary by steering the kernels'
      control actors ({!Tpdf_sim.Reconfigure.scenario_control_behavior}),
      and a ["degrade"] instant is recorded.

    Execution proceeds one graph iteration per activation, exactly like
    {!Tpdf_sim.Reconfigure.run_scenarios}: reconfiguration — including
    degradation — happens at iteration boundaries, where the boundary
    invariant makes it safe.  Everything is deterministic given the plan
    seed: two runs with equal arguments produce byte-identical statistics
    and event streams. *)

(** Everything needed to continue a supervised run in a fresh process:
    summary counters, recovery tables, the effective scenario of the most
    recent (possibly in-flight) iteration, and — for a mid-iteration kill
    — the engine snapshot.  Produced at iteration boundaries
    ([checkpoint_every]/[on_checkpoint]) and at the kill instant
    ([kill_at_ms]); fed back through [resume].  [Tpdf_ckpt] persists it
    (see {!checkpoint_meta}). *)
type checkpoint = {
  ck_iterations_run : int;  (** iterations fully completed *)
  ck_offset_ms : float;  (** accumulated virtual time at the boundary *)
  ck_retries : int;
  ck_skips : int;
  ck_corrupted : int;
  ck_ctrl_lost : int;
  ck_deadline_misses : int;
  ck_deadline_hits : int;
  ck_restarts : int;
  ck_degrades : (string * string) list;  (** newest first *)
  ck_consecutive : (string * int) list;
  ck_tripped : string list;
  ck_degraded : (string * string) list;
  ck_base_index : (string * int) list;
  ck_last_ctrl : (int * string) list;
  ck_scenario : Tpdf_sim.Reconfigure.scenario;
      (** effective scenario of the most recent iteration *)
  ck_engine : Tpdf_sim.Snapshot.t option;
      (** [Some] iff the kill landed mid-iteration *)
}

val checkpoint_meta : checkpoint -> (string * string) list
(** Everything except [ck_engine] as string metadata (for
    [Tpdf_ckpt.t.meta]; the snapshot travels in [Tpdf_ckpt.t.snapshot]).
    @raise Invalid_argument if an actor or mode name contains a tab or
    newline (the list separators; impossible for parsed graphs). *)

val checkpoint_of_meta :
  ?snapshot:Tpdf_sim.Snapshot.t ->
  (string * string) list ->
  (checkpoint, string) result
(** Inverse of {!checkpoint_meta}; [snapshot] becomes [ck_engine]. *)

type summary = {
  iterations_run : int;
  total_end_ms : float;
  retries : int;  (** transient failures absorbed by retry *)
  skips : int;  (** firings substituted after exhausting the budget *)
  corrupted : int;  (** data tokens corrupted *)
  ctrl_lost : int;  (** control tokens whose mode update was lost *)
  deadline_misses : int;
  deadline_hits : int;
  restarts : int;  (** failed iterations rolled back and retried *)
  degrades : (string * string) list;
      (** [(kernel, degraded_mode)] in trip order *)
  unrecovered : string option;
      (** stall / budget / behaviour-error diagnosis when the run could not
          complete; [None] on full recovery *)
  killed : checkpoint option;
      (** the checkpoint taken when [kill_at_ms] ended the run early *)
  per_iteration : Tpdf_sim.Engine.stats list;
}

val pp_summary : Format.formatter -> summary -> unit

val run :
  graph:Tpdf_core.Graph.t ->
  plan:Plan.t ->
  ?backend:[ `Event | `Compiled ] ->
  ?policy:Policy.t ->
  ?obs:Tpdf_obs.Obs.t ->
  ?behaviors:(string * 'a Tpdf_sim.Behavior.t) list ->
  ?scenario:Tpdf_sim.Reconfigure.scenario ->
  ?iterations:int ->
  ?corrupt:('a -> 'a) ->
  ?pool:Tpdf_par.Pool.t ->
  ?kill_at_ms:float ->
  ?checkpoint_every:int ->
  ?on_checkpoint:(checkpoint -> unit) ->
  ?resume:checkpoint ->
  ?encode:('a -> string) ->
  ?decode:(string -> 'a) ->
  valuation:Tpdf_param.Valuation.t ->
  default:'a ->
  unit ->
  summary
(** Run [iterations] (default 1) supervised graph iterations.  [scenario]
    pins the initial modes of controlled kernels (their first declared mode
    when unpinned); fallback pins override it once tripped.  Actors without
    an explicit behaviour get {!Tpdf_sim.Behavior.fill}[ default] (kernels)
    or the scenario control behaviour (control actors, clocks included).
    [corrupt] transforms a data payload hit by a [Corrupt] fault (default:
    replace with [default]).

    [obs] records the whole run on one timeline: engine events per
    iteration (shifted as in {!Tpdf_sim.Reconfigure}), ["reconfig"]
    instants at boundaries where the effective scenario changed, ["fault"]
    instants (["retry"], ["corrupt"], ["ctrl-loss"]) and ["supervisor"]
    instants (["skip"], ["deadline-miss"], ["degrade"], ["stall"]), plus
    [supervisor.*] counters in the metrics registry.

    [pool] is handed to every engine the supervisor creates: iterations
    execute in deterministic parallel mode (see {!Tpdf_sim.Engine.create})
    and the summary and event streams stay byte-identical to a sequential
    run.  The wrappers' bookkeeping is lock-protected for this; the one
    caveat is the order of [degrades] entries when two distinct watch
    actors trip at the same virtual instant.

    Stalls, event-budget exhaustion and behaviour-contract violations do
    not raise: while the policy's restart budget lasts, the failed
    iteration is {e rolled back} — its staged obs events and metrics
    discarded, its counter and table updates undone — every fallback pin
    is applied (escalation, with a ["restart"] instant and a
    [supervisor.restarts] counter), and the iteration is retried from
    the boundary; past the budget they end the run early with the
    diagnosis in [unrecovered] (the final attempt's events are kept).

    {b Checkpoints.}  With [checkpoint_every = n], [on_checkpoint]
    receives a boundary {!checkpoint} after every [n]-th completed
    iteration.  [kill_at_ms] simulates a crash at a virtual instant on
    the global timeline: the run stops there — mid-iteration if the
    instant falls inside one, with the engine snapshotted via [encode] —
    and the checkpoint is returned in [summary.killed].  Feeding it back
    through [resume] (same graph, plan, policy, behaviours, [decode]
    inverse of [encode]) continues the run so that outcomes, stats and
    obs streams are byte-identical to the uninterrupted run.
    [run] is {!session} followed by {!step} until [iterations] are done
    or a step ends the run.
    @raise Invalid_argument on an invalid scenario or policy,
    [iterations < 1], [checkpoint_every < 1], a negative [kill_at_ms],
    [kill_at_ms] without [encode], or a mid-iteration [resume] without
    [decode]. *)

(** {2 Sessions}

    A session is a supervised run taken one iteration at a time.  It is
    set up once — scenario and policy validated, state tables built,
    the engine {!Tpdf_sim.Engine.program} compiled on first use,
    behaviours wrapped once per effective scenario — and each {!step}
    then costs one engine instance and one iteration.  Stepping a
    session [k] times is byte-identical to [run ~iterations:k] and to
    [k] single-iteration [run]s each resumed from the previous one's
    boundary checkpoint. *)

type 'a session

type step =
  | Stepped of Tpdf_sim.Engine.stats * checkpoint
      (** the iteration completed; the checkpoint is the boundary after
          it *)
  | Killed of checkpoint  (** [kill_at_ms] was reached; as [summary.killed] *)
  | Gave_up of string * Tpdf_sim.Engine.stats option
      (** the restart budget is spent: the diagnosis and the failed
          attempt's partial stats (none for a behaviour-contract
          violation) *)

val session :
  graph:Tpdf_core.Graph.t ->
  plan:Plan.t ->
  ?backend:[ `Event | `Compiled ] ->
  ?policy:Policy.t ->
  ?obs:Tpdf_obs.Obs.t ->
  ?behaviors:(string * 'a Tpdf_sim.Behavior.t) list ->
  ?scenario:Tpdf_sim.Reconfigure.scenario ->
  ?corrupt:('a -> 'a) ->
  ?pool:Tpdf_par.Pool.t ->
  ?kill_at_ms:float ->
  ?resume:checkpoint ->
  ?encode:('a -> string) ->
  ?decode:(string -> 'a) ->
  valuation:Tpdf_param.Valuation.t ->
  default:'a ->
  unit ->
  'a session
(** A session positioned at [resume] (default: the start).  Arguments
    as {!run}.
    @raise Invalid_argument as {!run}. *)

val step : 'a session -> step
(** Run the next supervised iteration.  After [Killed] or [Gave_up] the
    session has ended.
    @raise Invalid_argument if the session has ended. *)
