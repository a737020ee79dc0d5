(** One graph's analyses, schedule and simulation under one collector:
    what [tpdf_tool profile] summarises and exports, and what
    [tpdf_tool trace] writes out. *)

val run :
  graph:Tpdf_core.Graph.t ->
  valuation:Tpdf_param.Valuation.t ->
  pes:int ->
  iterations:int ->
  ?backend:[ `Event | `Compiled ] ->
  unit ->
  Tpdf_obs.Obs.t
(** Run, each reporting to a fresh collector: the static analyses
    (repetition vector, rate safety, boundedness over the graph's default
    samples), the scheduling analyses at [valuation] (maximum cycle ratio,
    a list schedule and its iteration period on [pes] uniform PEs), and a
    simulation of [iterations] graph iterations per mode scenario, so each
    kernel runs in each of its modes.  Analyses that do not apply to the
    graph (an inconsistent or disconnected graph, a schedule that cannot
    be built) are left out of the collector.
    @raise Failure if the simulation stalls. *)
