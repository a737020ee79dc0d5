(** Iteration-boundary reconfiguration.

    TPDF parameters are set at run time: in the OFDM demodulator the
    vectorization degree β “varies between 1 and 100” across activations.
    Rate consistency guarantees that a (consistent, safe, live) graph
    returns to its initial channel state after every iteration — which is
    exactly the moment a parameter may change without breaking any firing
    in flight.  This module runs a sequence of iterations, each under its
    own valuation, checking the boundary invariant between them. *)

type iteration_stats = {
  valuation : Tpdf_param.Valuation.t;
  stats : Engine.stats;
}

type abort = {
  abort_index : int;  (** position in the requested sequence *)
  abort_what : string;  (** the rejected valuation or scenario, rendered *)
  abort_reason : string;
}

type report = {
  iterations : iteration_stats list;
  total_end_ms : float;  (** sum of per-iteration end times *)
  max_occupancy : (int * int) list;  (** per channel, across iterations *)
  aborts : abort list;  (** transactions rolled back ([] when [txn] off) *)
}

val run_sequence :
  graph:Tpdf_core.Graph.t ->
  ?backend:[ `Event | `Compiled ] ->
  ?obs:Tpdf_obs.Obs.t ->
  ?behaviors:(string * 'a Behavior.t) list ->
  ?targets:(Tpdf_param.Valuation.t -> (string * int) list) ->
  ?txn:bool ->
  default:'a ->
  Tpdf_param.Valuation.t list ->
  report
(** Execute one iteration per valuation.  Each iteration starts from the
    graph's initial channel state (the boundary invariant the analyses
    guarantee); behaviours are re-instantiated per iteration with the
    current valuation's rates.  [targets] can deselect branch actors per
    valuation (see {!Engine.run}).

    [obs] records the whole sequence on one virtual timeline: a
    ["reconfig"] instant (with the valuation) marks each iteration
    boundary, and each iteration's engine events are shifted by the
    accumulated end time of the previous ones.

    [txn] (default [false]) makes each reconfiguration a {e transaction}
    with validate-then-commit semantics.  A ["txn.begin"] instant opens
    the boundary; the new valuation is re-validated (all parameters
    bound, rate safety, boundedness with the valuation as liveness
    sample) and the iteration runs with its events and metrics staged in
    an [Obs] capture.  If validation passes, the run completes, and the
    engine ends back at the iteration boundary, the capture is spliced
    and a ["txn.commit"] instant recorded; otherwise {e nothing} of the
    attempt reaches [obs] — a ["txn.abort"] instant (with the reason) and
    a [reconfigure.aborts] counter bump are recorded, the abort is
    appended to {!field:report.aborts}, and the iteration re-runs under
    the previous committed valuation.
    @raise Invalid_argument on an empty sequence
    @raise Failure if any iteration stalls irrecoverably — with [txn],
    only when the very first valuation is rejected (nothing to roll back
    to) or the rollback run itself stalls. *)

(** {2 Mode-scenario sweeps}

    Reconfiguration of the {e topology} rather than the parameters: run the
    same graph and valuation under a sequence of mode scenarios (one mode
    pinned per controlled kernel), e.g. the OFDM demodulator switching from
    QPSK to 16-QAM between iterations. *)

type scenario = (string * string) list
(** [(kernel, mode)] pins, as in {!Tpdf_core.Buffers.scenario}. *)

val mode_scenarios : Tpdf_core.Graph.t -> scenario list
(** A covering sweep: scenario [i] pins every controlled kernel to its
    [i]-th declared mode (modulo its mode count); the number of scenarios
    is the largest mode count.  [[[]]] when the graph has no controlled
    kernel, so the sweep degenerates to one plain run. *)

val pp_scenario : scenario -> string

val validate_scenario : Tpdf_core.Graph.t -> scenario -> unit
(** @raise Invalid_argument when a pin names an unknown actor or a mode the
    kernel does not declare.  Called by {!starved_actors} and
    {!run_scenarios}. *)

val scenario_control_behavior : Tpdf_core.Graph.t -> scenario -> 'a Behavior.t
(** {!Behavior.scenario_control}: what {!run_scenarios} installs on control
    actors without an explicit behaviour, and how supervisors steer
    kernels into a degraded mode through the model's own control
    machinery. *)

val starved_actors : Tpdf_core.Graph.t -> scenario -> string list
(** Actors that cannot fire under the scenario because a pinned mode
    upstream suppresses (transitively) an input they need.  Used to zero
    their firing targets when executing the scenario. *)

val run_scenarios :
  graph:Tpdf_core.Graph.t ->
  ?backend:[ `Event | `Compiled ] ->
  ?obs:Tpdf_obs.Obs.t ->
  ?behaviors:(string * 'a Behavior.t) list ->
  ?iterations:int ->
  ?txn:bool ->
  valuation:Tpdf_param.Valuation.t ->
  default:'a ->
  scenario list ->
  report
(** Execute [iterations] (default 1) graph iterations per scenario, on one
    virtual timeline with ["reconfig"] instants at scenario boundaries (see
    [run_sequence]).  Control actors not given an explicit behaviour emit
    the scenario's pinned mode of each target kernel; actors starved by the
    scenario get a zero firing target.

    With [txn] (default [false]) each scenario switch is a transaction:
    the pins are validated at the boundary (instead of up front, so an
    invalid scenario mid-sequence aborts rather than raises), the run is
    staged in an [Obs] capture, and a failed or non-boundary run is
    rolled back and re-run under the previous committed scenario — see
    {!run_sequence} for the protocol and {!field:report.aborts}.
    @raise Invalid_argument on an empty scenario list (or, without
    [txn], an invalid scenario anywhere in it)
    @raise Failure if a run stalls irrecoverably (see {!run_sequence}). *)
