(** Chaos harness: seeded fault-injection runs with sensible defaults.

    This is the entry point behind [tpdf_tool chaos] and the resilience
    benchmarks: given a graph, a seed and fault specs, it assembles a
    {!Plan} and a default degradation story — start every controlled
    kernel in its {e last} declared mode (by convention the most ambitious
    one, e.g. 16-QAM in the OFDM demodulator) and fall back to its
    {e first} declared mode (QPSK) when the supervisor trips — then runs
    {!Supervisor.run}.  Token payloads are [int] with default [0]. *)

val default_scenario : Tpdf_core.Graph.t -> Tpdf_sim.Reconfigure.scenario
(** Pin every controlled kernel to its last declared mode. *)

val default_fallbacks : Tpdf_core.Graph.t -> Policy.fallback list
(** The generic degradation story: pin every controlled kernel with at
    least two declared modes to its first one.  The trip is watched on the
    controlled kernels themselves {e and} on every actor the degraded
    scenario starves ({!Tpdf_sim.Reconfigure.starved_actors}) — the
    ambitious-branch actors, such as the 16-QAM demapper, whose consecutive
    deadline misses or skips should trigger the fallback.  Empty when no
    kernel has a mode to fall back to. *)

val run :
  graph:Tpdf_core.Graph.t ->
  seed:int ->
  specs:Fault.spec list ->
  ?backend:[ `Event | `Compiled ] ->
  ?policy:Policy.t ->
  ?scenario:Tpdf_sim.Reconfigure.scenario ->
  ?iterations:int ->
  ?obs:Tpdf_obs.Obs.t ->
  ?behaviors:(string * int Tpdf_sim.Behavior.t) list ->
  ?kill_at_ms:float ->
  ?checkpoint_every:int ->
  ?on_checkpoint:(Supervisor.checkpoint -> unit) ->
  ?resume:Supervisor.checkpoint ->
  valuation:Tpdf_param.Valuation.t ->
  unit ->
  Supervisor.summary
(** Run the supervised chaos experiment.  [scenario] defaults to
    {!default_scenario}; [policy] defaults to {!Policy.default} extended
    with {!default_fallbacks}; [iterations] defaults to 1; [behaviors]
    (e.g. realistic durations) are passed through to the supervisor.
    [kill_at_ms], [checkpoint_every], [on_checkpoint] and [resume] are
    {!Supervisor.run}'s checkpointing controls, with the [int] payload
    codec supplied ([string_of_int]/[int_of_string]).  Deterministic:
    equal arguments produce byte-identical summaries and event streams,
    and a killed run resumed from its checkpoint matches the
    uninterrupted one byte for byte.
    @raise Invalid_argument as {!Supervisor.run}. *)

val session :
  graph:Tpdf_core.Graph.t ->
  seed:int ->
  specs:Fault.spec list ->
  ?policy:Policy.t ->
  ?resume:Supervisor.checkpoint ->
  valuation:Tpdf_param.Valuation.t ->
  unit ->
  int Supervisor.session
(** The {!Supervisor.session} behind {!run}, with the same defaults:
    stepping it [k] times equals [run ~iterations:k] with the same
    arguments.
    @raise Invalid_argument as {!Supervisor.session}. *)

val recovered : Supervisor.summary -> bool
(** [true] when the run completed every iteration ([unrecovered = None]). *)
