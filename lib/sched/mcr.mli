(** Intrinsic throughput bound via maximum cycle ratio.

    Expanding one iteration into its firings (the canonical period) and
    adding the {e inter-iteration} dependencies — the edges whose token
    needs reach back across iteration boundaries, including each actor's
    sequential self-loop — yields a homogeneous (HSDF) dependency graph
    whose edges carry {e delays} (how many iterations back the producer
    firing lives).  The self-timed iteration period with unlimited
    processors is the {e maximum cycle ratio}

    {v MCR = max over cycles (Σ firing durations / Σ delays) v}

    computed here by Lawler's binary search with a Bellman-Ford positive-
    cycle oracle.  Every real schedule's steady-state period is ≥ MCR, so
    {!Throughput.iteration_period_ms} is validated against it. *)

type node = Canonical_period.node = { actor : string; index : int }

type edge = {
  src : node;
  dst : node;
  delay : int;  (** iterations separating producer and consumer firing *)
}

type t

val build : ?obs:Tpdf_obs.Obs.t -> Tpdf_csdf.Concrete.t -> t
(** HSDF expansion with inter-iteration delays.  The graph must be live
    (one iteration completes); @raise Failure otherwise.  With an enabled
    [obs], the expansion is timed as a wall-clock ["mcr.build"] span and
    the node/edge counts are recorded as gauges. *)

val edges : t -> edge list

val iteration_period_ms :
  ?durations:(node -> float) -> ?obs:Tpdf_obs.Obs.t -> t -> float
(** The maximum cycle ratio under the given per-firing durations
    (default 1.0 per firing).  0 when the graph has no cycle with positive
    delay (a DAG pipeline: unbounded throughput with unlimited buffering
    and processors).  With an enabled [obs], the binary search is timed as
    a wall-clock ["mcr.solve"] span and the number of Bellman-Ford oracle
    calls is counted under [mcr.oracle_calls]. *)
