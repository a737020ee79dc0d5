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
    budget admission currency), the exact max-plus iteration period and
    the one-iteration latency ({!Tpdf_sched.Mcr}), which an optional
    per-tenant deadline bounds. *)

type verdict = {
  cost : int;
      (** firings per graph iteration under the valuation (sum of the
          integer repetition vector) — the capacity unit the daemon
          budgets *)
  period_ms : float;
      (** maximum cycle ratio at 1 ms/firing: the self-timed period of
          pipelined iterations *)
  latency_ms : float;
      (** one iteration from the boundary state at 1 ms/firing: what a
          served step, one iteration on a fresh engine, takes in virtual
          time (a clock's wait is not counted) *)
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
    concrete channel rates (overflow-checked), and only then one walk of
    the iteration: boundedness (liveness on the submitted valuation),
    whose firing order the max-plus pass prices, and the [deadline_ms]
    check against the latency.  The first failing rung rejects with a
    one-line reason. *)
