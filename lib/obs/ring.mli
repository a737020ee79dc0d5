(** Flight recorder: bounded in-memory retention of the event stream.

    A ring keeps the last [capacity] retained events.  It plugs into a
    collector as a sink ({!attach}), so it sees events in the exact
    order {!Obs} delivers them — a staged capture reaches it when it is
    spliced.

    {b Invariants.}
    {ul
    {- [retained t <= capacity t] always; memory is [O(capacity)]
       regardless of run length.}
    {- Retention is deterministic: whether the k-th span (or counter)
       of the stream is kept depends only on [k] and the config —
       counter-based 1-in-K sampling, no randomness — so the same
       delivered stream yields the same retained stream at 1, 2 or 4
       domains.}
    {- Instants are always retained (subject only to capacity), as is
       any event whose category is in [keep_cats] — reconfigure,
       transaction and fault/supervisor markers survive even aggressive
       span sampling.}
    {- Wall-clock events are excluded by default ([keep_wall = false]):
       their payloads are timing-dependent and would break retained-
       stream reproducibility.}} *)

type config = {
  capacity : int;  (** max retained events, >= 1 *)
  span_every : int;  (** keep 1 of every K spans; 0 = none *)
  counter_every : int;  (** keep 1 of every K counter samples; 0 = none *)
  keep_wall : bool;  (** admit wall-clock events (default no) *)
  keep_cats : string list;  (** categories always admitted *)
}

val default_config : config
(** Capacity 8192; keeps every event it is offered (sampling left to the
    emitter, see {!Obs.sampling}); virtual-clock only; always admits
    ["reconfig"], ["txn"], ["supervisor"], ["fault"], ["ckpt"]. *)

val sampled_config : config
(** {!default_config} with 1-in-16 spans and 1-in-64 counter samples:
    for attaching a bounded recorder to a {e full-capture} collector. *)

type t

val create : ?config:config -> unit -> t
(** @raise Invalid_argument when [capacity < 1]. *)

val attach : ?config:config -> Obs.t -> t
(** [create] + {!Obs.add_sink}.  On a disabled collector the ring is
    returned but never fed. *)

val sink : t -> Obs.sink
val offer : t -> Event.t -> unit

val events : t -> Event.t list
(** Retained events, oldest first. *)

val capacity : t -> int
val retained : t -> int
val seen : t -> int  (** events offered *)

val kept : t -> int  (** events admitted (retained + evicted) *)

val evicted : t -> int  (** admitted events overwritten by newer ones *)

val config : t -> config
