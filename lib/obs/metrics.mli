(** Metrics registry: monotonic counters, gauges and summary histograms,
    keyed by name.  The convention used across the instrumented layers is
    dotted names scoped by subsystem and subject, e.g.
    ["engine.firings.FFT"], ["channel.e3.dropped"], ["analysis.liveness_ms"]. *)

type t

val create : unit -> t

val incr : ?by:int -> t -> string -> unit
(** Bump a counter.  @raise Invalid_argument on negative [by]: counters are
    monotonic. *)

val set_gauge : t -> string -> float -> unit
val observe : t -> string -> float -> unit

val counter : t -> string -> int
(** 0 when never incremented. *)

val gauge : t -> string -> float option

val window_cap : int
(** 65536: how many of a histogram's most recent samples its percentiles
    are taken over. *)

type histogram_stats = {
  count : int;  (** every observation; likewise [sum], [min], [max] *)
  window : int;  (** samples [p50]/[p95] are over: [min count window_cap] *)
  sum : float;
  min : float;
  max : float;
  p50 : float;  (** interpolated median *)
  p95 : float;
      (** interpolated 95th percentile (Hyndman–Fan type 7): small
          sample counts interpolate between straddling order statistics
          instead of degenerating to the max *)
}

val histogram : t -> string -> histogram_stats option

(** {2 Domain-local capture}

    Staging for work that may be rolled back (used through [Obs]
    capture): between {!capture_begin} and {!capture_end}, updates to
    the captured registry made {e on the current domain} are recorded
    into the returned buffer instead of being applied; {!replay} later
    applies them in recorded order, and dropping the buffer discards
    them.  Captures nest as a
    per-domain stack — the innermost capture of a registry receives its
    updates, and a {!replay} under an enclosing capture re-stages into
    it (mirroring [Obs] capture nesting).  A registry is not otherwise
    thread-safe: uncaptured updates must stay on the domain that owns
    it. *)

type capture

val capture_begin : t -> capture
(** Start capturing this registry's updates on the current domain
    (pushed on the domain's capture stack). *)

val capture_end : capture -> unit
(** Stop capturing.  @raise Invalid_argument if [capture] is not the
    innermost capture of the current domain. *)

val replay : t -> capture -> unit
(** Apply the buffered updates in the order they were recorded — or,
    when a capture of the same registry is still active on this domain,
    append them to its buffer (kept staged for the enclosing scope).
    @raise Invalid_argument if the buffer was captured from another
    registry. *)

val counters : t -> (string * int) list
(** Sorted by name; likewise below. *)

val gauges : t -> (string * float) list
val histograms : t -> (string * histogram_stats) list
val is_empty : t -> bool
