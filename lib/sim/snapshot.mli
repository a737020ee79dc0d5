(** Plain-data image of a running {!Engine}.

    Captures the complete deterministic run state: the virtual clock,
    every pending event-heap entry with its [(time, seq)] key (and the
    heap's insertion counter, so FIFO ties against future events are
    preserved), per-channel token queues and drop/occupancy statistics,
    and per-actor firing indices and last-read control modes.  It
    holds live state only — no firing history — so its size does not
    grow with the age of the run; the [tpdf_obs] stream is the trace.
    [Engine.snapshot]/[Engine.restore] convert to/from a live engine;
    [Tpdf_ckpt] serializes this type to the versioned, checksummed
    on-disk checkpoint format.

    Token payloads are pre-encoded to strings (the caller supplies the
    codec), so the type is monomorphic. *)

type token = Data of string | Ctrl of string

(** The record of an in-flight firing (see {!Engine.firing_record}). *)
type firing = {
  f_actor : string;
  f_index : int;
  f_phase : int;
  f_mode : string;
  f_start_ms : float;
  f_finish_ms : float;
}

type heap_event =
  | Complete of {
      c_actor : string;
      c_outputs : (int * token list) list;
      c_record : firing;
    }  (** an in-flight firing and the tokens it will deliver *)
  | Tick of string  (** a scheduled clock tick of the named control actor *)

type heap_entry = { h_time : float; h_seq : int; h_event : heap_event }

type actor_state = {
  a_name : string;
  a_count : int;  (** firings started *)
  a_completed : int;  (** firings finished *)
  a_busy : bool;
  a_last_mode : string;  (** mode persisting across zero-rate control phases *)
}

type channel_state = {
  c_id : int;
  c_tokens : token list;  (** front of the queue first *)
  c_debt : int;  (** rejection debt not yet discharged *)
  c_dropped : int;
  c_max_occ : int;
}

type t = {
  now : float;
  armed : bool;
      (** clocks already armed: a restored engine must not re-schedule
          the initial [Tick]s *)
  heap_seq : int;
  actors : actor_state list;  (** in dense-actor-id order *)
  channels : channel_state list;  (** in skeleton channel order *)
  heap : heap_entry list;  (** in [(time, seq)] order *)
}
