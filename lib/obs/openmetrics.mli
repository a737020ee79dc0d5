(** OpenMetrics / Prometheus text exposition for a {!Metrics} registry.

    {b Naming scheme.}  Registry names are dotted
    [subsystem.metric.subject]; the renderer maps known prefixes to one
    family per metric with the subject as a label:
    {ul
    {- [engine.firings.FFT] → [tpdf_engine_firings_total{actor="FFT"}]}
    {- [channel.e3.dropped] → [tpdf_channel_dropped_total{channel="e3"}]}
    {- [supervisor.retries.EQ] → [tpdf_supervisor_retries_total{actor="EQ"}]}}
    Anything else becomes its own sanitized [tpdf_]-prefixed family.
    Counters render with the ["_total"] sample suffix, gauges as-is,
    histograms as summaries ([{quantile="0.5"}], [{quantile="0.95"}],
    [_sum], [_count]).  The mapping is injective — no two registry
    entries collide into one series — and the output is fully sorted,
    ending with [# EOF]. *)

val render : Metrics.t -> string

val render_with : gauges:(string * float) list -> Metrics.t -> string
(** {!render} of the registry plus [gauges]: values the caller derives
    from live state at render time instead of holding them in the
    registry, so nothing outlives the state they describe.  Their names
    must not also be gauges of the registry. *)

val family_of : string -> string * (string * string) list
(** The family name and labels a registry name maps to (exposed for
    tests and tooling). *)

(** Periodic snapshot export to a file, for scrape-by-file collectors
    (e.g. node_exporter's textfile collector).  Each rewrite goes
    through [Tpdf_util.Atomic_file] — the checkpoint layer's temp +
    fsync + rename path — so readers never observe a torn exposition.
    The simulation engine drives this from its run loop when
    [TPDF_METRICS_OUT] is set. *)
module Exporter : sig
  type t

  val create : path:string -> ?interval_ms:float -> Metrics.t -> t
  (** [interval_ms] defaults to 1000. *)

  val tick : t -> unit
  (** Rewrite if at least [interval_ms] of wall time has passed since
      the last rewrite; cheap otherwise. *)

  val flush : t -> unit
  (** Unconditional rewrite (used at end of run).
      @raise Unix.Unix_error on IO failure. *)
end
