(** Rendering and exporting execution traces of the runtime engine.

    The trace of a run is the [tpdf_obs] event stream the engine emits
    when it runs with an enabled {!Tpdf_obs.Obs.t} collector that keeps
    every firing (no sampling policy): one ["firing"] span per completed
    firing and one ["clock"] instant per tick.  The engine itself keeps
    no firing history. *)

val records_of_events : Tpdf_obs.Event.t list -> Engine.firing_record list
(** Reconstruct the firing records from the engine's ["firing"] spans and
    ["clock"] tick instants (a tick is a record with mode ["tick"] and
    zero duration), sorted stably by start time, then finish time.
    Events of other categories are ignored. *)

val gantt_of_events : ?width:int -> Tpdf_obs.Event.t list -> string
(** ASCII Gantt chart of {!records_of_events}, one row per actor (actors
    in first-firing order); instantaneous firings (clock ticks) are
    marked with ['|'].  [width] is the time-axis width (default 72). *)

val csv_of_events : Tpdf_obs.Event.t list -> string
(** One line per firing of {!records_of_events}:
    [actor,index,phase,mode,start_ms,finish_ms], with a header row. *)

val gantt_of_records : ?width:int -> Engine.firing_record list -> string
val csv_of_records : Engine.firing_record list -> string
