(** Intrinsic throughput bound and one-iteration latency, exactly, by one
    max-plus pass over an iteration.

    With unlimited processors, firing (a, i) of iteration k completes at
    its duration plus the latest completion among its producers: the
    ADF's ({!Adf.producer}: firing m of b, d iterations back) and the
    actor's own previous firing (its last one, one iteration back, for
    i = 0).  Only a few firings are ever read by a later iteration: each
    actor's last firing and each producer with d ≥ 1.  Those (firing, d)
    pairs are the {e state}; it does not grow with the rates (fig2 has 6
    keys at every p).

    One pass over a complete one-iteration firing order gives each
    firing's completion time as a max-plus vector over the state: the
    entry-wise max of its same-iteration producers' vectors, 0 at each
    delayed producer's key, plus its duration.  An edge from key
    (b, m, d) to state firing (a, i), of weight that entry of (a, i)'s
    vector and transit d, wherever the entry is finite, makes a small
    ratio graph.  Its maximum cycle ratio

    {v MCR = max over cycles (Σ weights / Σ transits) v}

    is the maximum cycle ratio of the iteration's HSDF expansion, that is
    the self-timed iteration period.  Howard policy iteration finds it as
    the ratio of one cycle, so integer durations give it exactly.  The
    largest entry of any vector is the {e one-iteration latency}: the
    makespan of one iteration started from the boundary state, every
    token present at time 0, as a served step runs it.

    Every real schedule's steady-state period is ≥ MCR, so
    {!Throughput.iteration_period_ms} is validated against it. *)

type node = Canonical_period.node = { actor : string; index : int }

type t
(** One iteration compiled for the pass: its firings in order, each with
    its same-iteration producers and the state keys its delayed producers
    name.  It does not depend on the durations. *)

val build : ?obs:Tpdf_obs.Obs.t -> Tpdf_csdf.Concrete.t -> t
(** Walk one iteration ({!Tpdf_csdf.Schedule.run}) and compile it.  The
    graph must be live (one iteration completes); @raise Failure
    otherwise.  With an enabled [obs], the walk and the compilation are
    timed as a wall-clock ["mcr.build"] span and the number of state keys
    is recorded as the [mcr.state] gauge. *)

val of_firings :
  ?obs:Tpdf_obs.Obs.t ->
  Tpdf_csdf.Concrete.t ->
  Tpdf_csdf.Schedule.firing list ->
  t
(** {!build} over a firing order the caller already has, such as the
    firings of a completed one-iteration {!Tpdf_csdf.Schedule.run} under
    any policy.
    @raise Invalid_argument unless the order fires every actor its
    repetition count, each firing after its same-iteration producers. *)

type bound = {
  period_ms : float;  (** the maximum cycle ratio *)
  latency_ms : float;  (** one iteration from the boundary state *)
}

val solve : ?durations:(node -> float) -> ?obs:Tpdf_obs.Obs.t -> t -> bound
(** Both numbers under the given non-negative per-firing durations
    (default 1.0 per firing).  With an enabled [obs], the pass and the
    policy iteration are timed as a wall-clock ["mcr.solve"] span, the
    policy iterations are counted under [mcr.policy_iterations] and the
    period is recorded as the [mcr.period_ms] gauge. *)

val iteration_period_ms :
  ?durations:(node -> float) -> ?obs:Tpdf_obs.Obs.t -> t -> float
(** [(solve ?durations ?obs t).period_ms]. *)
