(** Chrome trace-event JSON export ([chrome://tracing] / Perfetto).

    Spans become complete ("X") events, instants "i" events and counters
    "C" series.  Virtual-time events live in process 1, wall-clock events
    in process 2, and every {!Event.t.track} becomes a named thread. *)

val json_of_events : ?process_names:string * string -> Event.t list -> string
(** [process_names] are the (virtual, wall) process labels. *)

val write_file : string -> Event.t list -> unit
