(** Admission control: decide at submit time whether a tenant graph can
    be served at all.

    The paper's static analyses double as an admission test (Zhai/
    Niknam/Stefanov, arXiv 1807.04835): a graph the daemon accepts has
    already passed rate consistency, rate safety (Definition 5) and the
    boundedness conjunction of Theorem 2 on the submitted valuation, so
    a running tenant cannot stall or grow its buffers without a fault —
    misbehaviour past admission is the supervisor's department, not the
    scheduler's.  On top of the qualitative checks the verdict carries a
    quantitative cost model: the per-iteration firing count (the token
    budget admission currency) and the MCR iteration-period bound
    checked against an optional per-tenant deadline. *)

type verdict = {
  cost : int;
      (** firings per graph iteration under the valuation (sum of the
          integer repetition vector) — the capacity unit the daemon
          budgets *)
  period_ms : float;
      (** MCR lower bound on the iteration period at 1 ms/firing; [0.]
          on acyclic pipelines (unbounded pipelined throughput), [nan]
          when the bound is unavailable *)
}

type outcome = Admitted of verdict | Rejected of string

val check :
  graph:Tpdf_core.Graph.t ->
  valuation:Tpdf_param.Valuation.t ->
  ?deadline_ms:float ->
  ?max_cost:int ->
  unit ->
  outcome
(** Run the full ladder: structural validation, complete valuation,
    rate consistency and rate safety (symbolic, whatever the valuation),
    then the cost (overflow-checked), the [max_cost] token budget and the
    concrete channel rates (overflow-checked), and only then the rungs
    that walk one iteration: boundedness (liveness on the submitted
    valuation) and the [deadline_ms] MCR check.  The first failing rung
    rejects with a one-line reason. *)
