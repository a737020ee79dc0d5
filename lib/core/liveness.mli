(** Liveness analysis (§III-C of the paper).

    Control tokens never add firing constraints (selection only rejects
    data), so a TPDF graph can deadlock only through its cycles.  Following
    the paper we:

    + decompose the skeleton into strongly connected components;
    + for every non-trivial component, compute the {e local solution}
      (Definition 4, concretely: q{^L}{_a} = q{_a} / gcd{_Z}(q/τ)) and look
      for a local schedule assuming external inputs are abundant — the
      [Late_first] policy reproduces the {e late schedules} of ref.\[8\]
      ([B C C B] for Fig. 4(b));
    + cluster each live cycle into a single actor Ω with external rates
      adjusted to one local iteration (Fig. 4(c)) — the condensed graph is
      acyclic, hence live.

    Parametric firing counts are validated on sample valuations, the
    paper's “inductive reasoning” made executable. *)

open Tpdf_param

type cycle_report = {
  members : string list;  (** sorted *)
  local_counts : (string * int) list;  (** q{^L} under the valuation *)
  local_schedule : (string * int) list option;
      (** compressed late schedule when the cycle is live, [None] when it
          deadlocks *)
}

type report = {
  valuation : Valuation.t;
  cycles : cycle_report list;
  live : bool;
  stuck : string list;  (** actors unable to finish when not live *)
}

val check : ?obs:Tpdf_obs.Obs.t -> Graph.t -> Valuation.t -> report
(** Full analysis under one valuation: per-cycle local schedules plus a
    whole-graph schedule run as the final word.  With an enabled [obs],
    records a wall-clock ["liveness.check"] span and solver counters
    (cycles checked, abstract firings, deadlocks). *)

val is_live : Graph.t -> Valuation.t -> bool

val default_samples : Graph.t -> Valuation.t list
(** Valuations assigning each parameter the values 1, 2, 3 and 7 —
    exercising the degenerate and generic cases. *)

val cluster_cycle :
  Graph.t -> Tpdf_csdf.Repetition.t -> string list -> (Tpdf_csdf.Graph.t, string) result
(** Replace the given cycle by a single actor [Ω] whose external rates are
    the per-local-iteration totals (the clustering of §III-C, Fig. 4(c)).
    Fails with an explanation when a rate total cannot be expressed
    symbolically. *)

val pp_report : Format.formatter -> report -> unit
